"""Experiment harness: single trials per encoding, top-k metrics,
aggregation over seeds, and the rank-based significance test."""

from __future__ import annotations

import csv
import math
import os
import re
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import curriculum, model
from .data import subsample

ENCODINGS = ("SL", "LS", "LCL", "KD", "DML")


class ExperimentError(ValueError):
    """Invalid experiment configuration or inputs."""


DEFAULT_ALPHA = 0.1  # LS
DEFAULT_TEMPERATURE = 1.0  # KD


def method_label(encoding, epsilon=None, alpha=None, kd_temperature=None):
    """Encoding plus its own hyperparameter, default filled in, independent
    of DR/seed."""
    if encoding == "LCL":
        return f"LCL(eps={epsilon:g})"
    if encoding == "LS":
        return f"LS(alpha={DEFAULT_ALPHA if alpha is None else alpha:g})"
    if encoding == "KD":
        t = DEFAULT_TEMPERATURE if kd_temperature is None else kd_temperature
        return f"KD(T={t:g})"
    return encoding


@dataclass(frozen=True)
class ExperimentConfig:
    """One cell of the experiment grid (seeds enumerate paired trials)."""

    encoding: str
    dr: float = 1.0
    seeds: tuple = (0, 1, 2, 3)
    epsilon: float | None = None  # LCL only
    alpha: float | None = None  # LS only
    kd_temperature: float | None = None  # KD only
    epochs: int = 30
    batch_size: int = 16
    lr: float = 0.1
    lr_decay: float = 1.0
    lam: float = 1e-4
    architecture: str = "linear"
    hidden: int = 64

    def __post_init__(self):
        object.__setattr__(self, "seeds", tuple(self.seeds))
        if self.encoding not in ENCODINGS:
            raise ExperimentError(f"unknown encoding {self.encoding!r}")
        if (self.epsilon is not None) != (self.encoding == "LCL"):
            raise ExperimentError("epsilon is required exactly for LCL")
        if self.encoding == "LCL" and not 0.0 < self.epsilon < 1.0:
            raise ExperimentError("epsilon must lie in (0, 1)")
        if self.alpha is not None and self.encoding != "LS":
            raise ExperimentError("alpha applies to LS only")
        if self.kd_temperature is not None and self.encoding != "KD":
            raise ExperimentError("kd_temperature applies to KD only")
        # every range test is written so that NaN fails it; lr alone may be
        # +inf, a one-step divergence that the training loop's final check
        # reports (a config file admits finite numbers only)
        if not 0.0 <= self.effective_alpha <= 1.0:
            raise ExperimentError("alpha must lie in [0, 1]")
        if not 0.0 < self.effective_temperature < math.inf:
            raise ExperimentError("kd_temperature must be finite and > 0")
        if not 0.0 < self.dr <= 1.0:
            raise ExperimentError("dr must lie in (0, 1]")
        if not self.lr > 0.0:
            raise ExperimentError("lr must be > 0")
        if not 0.0 < self.lr_decay < math.inf:
            raise ExperimentError("lr_decay must be finite and > 0")
        if not 0.0 <= self.lam < math.inf:
            raise ExperimentError("lam must be finite and >= 0")
        if min(self.epochs, self.batch_size, self.hidden) < 1:
            raise ExperimentError("epochs, batch_size and hidden must be >= 1")
        if self.architecture not in model.ARCHITECTURES:
            raise ExperimentError(f"unknown architecture {self.architecture!r}")
        if not self.seeds:
            raise ExperimentError("at least one seed is required")

    @property
    def effective_alpha(self):
        return DEFAULT_ALPHA if self.alpha is None else self.alpha

    @property
    def effective_temperature(self):
        return DEFAULT_TEMPERATURE if self.kd_temperature is None else self.kd_temperature

    @property
    def method_label(self):
        return method_label(self.encoding, self.epsilon, self.alpha, self.kd_temperature)

    @property
    def config_id(self):
        parts = [self.method_label.replace("(", "-").replace(")", "").replace("=", ""),
                 f"dr{self.dr:g}", self.architecture,
                 f"e{self.epochs}", f"b{self.batch_size}", f"lr{self.lr:g}"]
        return "_".join(parts)


@dataclass(frozen=True)
class TrialResult:
    """Metrics of one (config, seed) run."""

    config_id: str
    method_label: str
    encoding: str
    epsilon: float | None
    alpha: float | None
    dr: float
    seed: int
    top1: float
    top5: float
    final_loss: float
    loss_history: tuple
    epochs: int
    wall_ms: float
    final_params: model.ClassifierParams | None = field(default=None, compare=False)
    companion: "TrialResult | None" = None

    def __post_init__(self):
        if not 0.0 <= self.top1 <= self.top5 <= 1.0:
            raise ExperimentError("need 0 <= top1 <= top5 <= 1")


def topk_accuracy(pred_probs, labels, k):
    """Fraction of examples whose true label is among the k most probable
    classes; ties broken toward the lower class index."""
    probs = np.asarray(pred_probs, dtype=float)
    labels = np.asarray(labels, dtype=int)
    if probs.ndim != 2 or probs.shape[0] == 0:
        raise ExperimentError("need a nonempty batch of prediction vectors")
    if not 1 <= k <= probs.shape[1]:
        raise ExperimentError(f"k={k} out of range for C={probs.shape[1]}")
    if labels.shape != probs.shape[:1] or labels.min() < 0 or labels.max() >= probs.shape[1]:
        raise ExperimentError(f"need one label in [0, {probs.shape[1]}) per row")
    # NaN has no place in the order below, so non-finite entries are rejected
    if not np.isfinite(probs).all():
        raise ExperimentError("non-finite prediction entries")
    # the true class's 0-based rank in the order a stable argsort of -probs
    # gives: #greater plus #equal at a lower index
    true = probs[np.arange(probs.shape[0]), labels][:, None]
    lower = np.arange(probs.shape[1]) < labels[:, None]
    rank = (probs > true).sum(axis=1) + ((probs == true) & lower).sum(axis=1)
    return float(np.mean(rank < k))


def _rng_streams(seed):
    """Named deterministic RNG streams; the same seed yields the same
    subsample/init/shuffle randomness for every encoding (paired trials)."""
    return {
        "init": np.random.default_rng([int(seed), 1]),
        "init2": np.random.default_rng([int(seed), 2]),
        "shuffle": np.random.default_rng([int(seed), 3]),
        "shuffle2": np.random.default_rng([int(seed), 4]),
    }


def _train(config, models, xs, targets_at, shuffle_rng):
    """The SGD loop of every encoding. targets_at(epoch) returns the (n, C)
    per-example targets; two models are a DML pair, each also pulled toward
    the other's prediction. Returns the trained models and their per-epoch
    mean losses. sgd_step does not check finiteness, so a diverged run is
    caught here: ModelError on a non-finite epoch loss or final parameter."""
    models = list(models)
    histories = [[] for _ in models]
    n = xs.shape[0]
    for epoch in range(config.epochs):
        lr = config.lr * config.lr_decay ** epoch
        targets = targets_at(epoch)
        order = shuffle_rng.permutation(n)
        losses = [[] for _ in models]
        for start in range(0, n, config.batch_size):
            idx = order[start:start + config.batch_size]
            xb, tb = xs[idx], targets[idx]
            preds = [model.forward(p, xb) for p in models]
            ces = [-np.sum(tb * np.log(np.maximum(pred, model.PROB_FLOOR)), axis=1)
                   for pred in preds]
            errs = [pred - tb for pred in preds]
            if len(models) == 2:  # mimicry: KL(peer || own), logit error own - peer
                ces = [ces[0] + model.kl_rows(preds[1], preds[0]),
                       ces[1] + model.kl_rows(preds[0], preds[1])]
                errs = [errs[0] + (preds[0] - preds[1]), errs[1] + (preds[1] - preds[0])]
            for m, params in enumerate(models):
                loss = float(np.mean(ces[m]))
                if config.lam:
                    loss += config.lam * model.regularizer(params)
                losses[m].append(loss)
                grads = model.gradient_from_arrays(params, xb, errs[m], config.lam)
                models[m] = model.sgd_step(params, grads, lr)
        for history, epoch_losses in zip(histories, losses):
            history.append(float(np.mean(epoch_losses)))
            if not np.isfinite(history[-1]):
                raise model.ModelError(f"epoch {epoch + 1}/{config.epochs}: non-finite loss")
    if not all(params.is_finite() for params in models):
        raise model.ModelError(f"epoch {config.epochs}/{config.epochs}: non-finite parameters")
    return models, histories


def _evaluate(params, test):
    preds = model.forward(params, test.features)
    k5 = min(5, test.num_classes)
    return (topk_accuracy(preds, test.labels, 1),
            topk_accuracy(preds, test.labels, k5))


def run_trial(config, seed, train, test, sim=None, debug_verify=False):
    """One deterministic training run for the config's encoding.

    The seed controls subsampling, initialization, and batch shuffling
    identically across encodings, so method comparisons are paired.
    """
    if config.encoding == "LCL" and sim is None:
        raise ExperimentError("LCL requires a similarity matrix")
    if train.dim != test.dim or train.num_classes != test.num_classes:
        raise ExperimentError("train/test dimension or class-count mismatch")
    if sim is not None and sim.num_classes != train.num_classes:
        raise ExperimentError("similarity class count does not match the data")
    t_start = time.perf_counter()
    streams = _rng_streams(seed)
    if config.dr < 1.0:
        train = subsample(train, config.dr, seed)
    xs, ys, c = train.features, train.labels, train.num_classes

    def init(stream):
        return model.init_params(config.architecture, train.dim, c,
                                 hidden=config.hidden, seed=streams[stream])

    one_hot = np.eye(c)[ys]
    targets_at = lambda epoch: one_hot
    models, shuffle = [init("init")], streams["shuffle"]
    if config.encoding == "LS":
        rows = np.stack([curriculum.label_smoothing(i, c, config.effective_alpha).probs
                         for i in range(c)])
        smoothed = rows[ys]
        targets_at = lambda epoch: smoothed
    elif config.encoding == "LCL":
        schedule = curriculum.init_targets(sim, config.epsilon)
        if debug_verify:
            report = curriculum.verify_curriculum(schedule, config.epochs)
            if not report.passed:
                raise ExperimentError("curriculum axioms violated:\n" + report.summary())

        def targets_at(epoch):
            nonlocal schedule
            schedule = curriculum.advance_to(schedule, epoch)
            return schedule.targets[ys]
    elif config.encoding == "KD":
        # teacher is a full-budget SL run under the same seed streams
        (teacher,), _ = _train(config, models, xs, targets_at, shuffle)
        soft = model._softmax(model.logits(teacher, xs) / config.effective_temperature)
        targets_at = lambda epoch: soft
        models, shuffle = [init("init2")], streams["shuffle2"]
    elif config.encoding == "DML":
        models.append(init("init2"))
    models, histories = _train(config, models, xs, targets_at, shuffle)
    scores = [_evaluate(params, test) for params in models]
    wall_ms = (time.perf_counter() - t_start) * 1000.0
    alpha = config.effective_alpha if config.encoding == "LS" else None

    def result(m, config_id, label, companion=None):
        return TrialResult(
            config_id=config_id, method_label=label, encoding=config.encoding,
            epsilon=config.epsilon, alpha=alpha, dr=config.dr, seed=seed,
            top1=scores[m][0], top5=scores[m][1], final_loss=histories[m][-1],
            loss_history=tuple(histories[m]), epochs=config.epochs, wall_ms=wall_ms,
            final_params=models[m], companion=companion)

    if config.encoding == "DML":  # both rows carry the pair's wall time
        return result(0, config.config_id, "DML1",
                      result(1, config.config_id + "_m2", "DML2"))
    return result(0, config.config_id, config.method_label)


@dataclass(frozen=True)
class AggregateRow:
    config_id: str
    method_label: str
    encoding: str
    epsilon: float | None
    alpha: float | None
    dr: float
    n_trials: int
    top1_mean: float
    top1_std: float
    top5_mean: float
    top5_std: float


def aggregate(results):
    """Per-config mean and standard deviation (divisor n) of top1/top5, over
    the trials in seed order (the order of the raw CSV)."""
    groups = {}
    for r in results:
        groups.setdefault(r.config_id, []).append(r)
    rows = []
    for config_id in sorted(groups):
        rs = sorted(groups[config_id], key=lambda r: r.seed)
        top1 = np.array([r.top1 for r in rs])
        top5 = np.array([r.top5 for r in rs])
        rows.append(AggregateRow(
            config_id=config_id, method_label=rs[0].method_label,
            encoding=rs[0].encoding, epsilon=rs[0].epsilon, alpha=rs[0].alpha,
            dr=rs[0].dr, n_trials=len(rs),
            top1_mean=float(top1.mean()), top1_std=float(top1.std(ddof=0)),
            top5_mean=float(top5.mean()), top5_std=float(top5.std(ddof=0))))
    return rows


def _average_ranks(scores):
    """Ranks along the last axis: 1 = highest score, ties get the average
    rank, (#greater) + (#equal + 1) / 2, which is an exact half."""
    scores = np.asarray(scores, dtype=float)
    other, own = scores[..., None, :], scores[..., :, None]
    greater = (other > own).sum(axis=-1)
    equal = (other == own).sum(axis=-1)
    return greater + (equal + 1) / 2.0


@dataclass(frozen=True)
class RankTestResult:
    methods: tuple  # sorted by average rank, best first
    avg_ranks: tuple  # aligned with methods
    chi2_f: float
    f_f: float | None  # None when the F correction is degenerate
    n_settings: int

    def report(self):
        lines = [f"rank comparison over {self.n_settings} settings, "
                 f"{len(self.methods)} methods (rank 1 = best):"]
        for m, r in zip(self.methods, self.avg_ranks):
            lines.append(f"  {m:<24s} avg rank {r:.4f}")
        lines.append(f"  Friedman chi2_F = {self.chi2_f:.6f}")
        if self.f_f is None:
            lines.append("  F_F undefined: N(k-1) equals chi2_F (degenerate)")
        else:
            lines.append(f"  Iman-Davenport F_F = {self.f_f:.6f}")
        return "\n".join(lines)


def friedman_iman_davenport(score_table, method_names=None):
    """Friedman average ranks with the Iman-Davenport F correction.

    score_table is N settings x k methods of scores (higher = better).
    """
    table = np.asarray(score_table, dtype=float)
    if table.ndim != 2:
        raise ExperimentError("score table must be 2-D")
    n, k = table.shape
    if n < 2 or k < 2:
        raise ExperimentError("need at least 2 settings and 2 methods")
    if not np.all(np.isfinite(table)):
        raise ExperimentError("score table has missing entries")
    ranks = _average_ranks(table)
    avg = ranks.mean(axis=0)
    chi2 = 12.0 * n / (k * (k + 1)) * (np.sum(avg ** 2) - k * (k + 1) ** 2 / 4.0)
    denom = n * (k - 1) - chi2
    f_f = None if denom == 0.0 else (n - 1) * chi2 / denom
    if method_names is None:
        method_names = [f"method{i}" for i in range(k)]
    order = np.argsort(avg, kind="stable")
    return RankTestResult(
        methods=tuple(method_names[i] for i in order),
        avg_ranks=tuple(float(avg[i]) for i in order),
        chi2_f=float(chi2), f_f=None if f_f is None else float(f_f),
        n_settings=n)


def _flatten(results):
    out = []
    for r in results:
        out.append(r)
        if r.companion is not None:
            out.append(r.companion)
    return out


RAW_HEADER = ["config_id", "encoding", "epsilon", "alpha", "dr", "seed",
              "top1", "top5", "final_loss", "epochs", "wall_ms"]
AGG_HEADER = ["config_id", "encoding", "epsilon", "alpha", "dr", "n_trials",
              "top1_mean", "top1_std", "top5_mean", "top5_std"]


def write_raw_csv(results, path):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(RAW_HEADER)
        for r in sorted(results, key=lambda r: (r.config_id, r.seed)):
            w.writerow([r.config_id, r.encoding,
                        "" if r.epsilon is None else repr(r.epsilon),
                        "" if r.alpha is None else repr(r.alpha),
                        repr(r.dr), r.seed, repr(r.top1), repr(r.top5),
                        repr(r.final_loss), r.epochs, f"{r.wall_ms:.1f}"])


def _optional_float(text):
    return None if text == "" else float(text)


def _result_from_row(row):
    if None in row or None in row.values():
        raise ValueError(f"expected {len(RAW_HEADER)} cells")
    config_id, encoding = row["config_id"], row["encoding"]
    epsilon, alpha = _optional_float(row["epsilon"]), _optional_float(row["alpha"])
    if encoding not in ENCODINGS:
        raise ValueError(f"unknown encoding {encoding!r}")
    if (epsilon is None) == (encoding == "LCL"):
        raise ValueError("epsilon is required exactly for LCL")
    if encoding == "DML":
        label = "DML2" if config_id.endswith("_m2") else "DML1"
    else:
        # the raw CSV has no temperature column; config_id starts "KD-T<T>_"
        kd = re.match(r"KD-T([^_]+)_", config_id)
        label = method_label(encoding, epsilon, alpha, float(kd.group(1)) if kd else None)
    final_loss = float(row["final_loss"])
    return TrialResult(
        config_id=config_id, method_label=label, encoding=encoding,
        epsilon=epsilon, alpha=alpha, dr=float(row["dr"]), seed=int(row["seed"]),
        top1=float(row["top1"]), top5=float(row["top5"]), final_loss=final_loss,
        loss_history=(final_loss,), epochs=int(row["epochs"]),
        wall_ms=float(row["wall_ms"]))


def read_raw_csv(path):
    """Trial results from a raw CSV written by write_raw_csv, without loss
    histories or parameters. Malformed rows raise ExperimentError naming
    path:line."""
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        missing = set(RAW_HEADER) - set(reader.fieldnames or [])
        if missing:
            raise ExperimentError(f"{path}: missing columns {sorted(missing)}")
        results = []
        for row in reader:
            try:
                results.append(_result_from_row(row))
            except ValueError as exc:
                raise ExperimentError(f"{path}:{reader.line_num}: {exc}") from exc
    return results


def write_aggregate_csv(rows, path):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        w = csv.writer(fh, lineterminator="\n")
        # std uses divisor n (population convention)
        w.writerow(AGG_HEADER)
        for r in rows:
            w.writerow([r.config_id, r.encoding,
                        "" if r.epsilon is None else repr(r.epsilon),
                        "" if r.alpha is None else repr(r.alpha),
                        repr(r.dr), r.n_trials,
                        repr(r.top1_mean), repr(r.top1_std),
                        repr(r.top5_mean), repr(r.top5_std)])


def check_rank_cells(cells, cause="configs differ in something other than the method"):
    """Raise ExperimentError naming the first (dr, seed, method label) cell
    of the rank table that occurs twice."""
    seen = set()
    for cell in cells:
        if cell in seen:
            dr, seed, method = cell
            raise ExperimentError(f"two trials in one rank-table cell (dr={dr:g}, "
                                  f"seed={seed}, method={method}); {cause}")
        seen.add(cell)


def rank_test_from_results(results, metric="top1"):
    """Build the methods x settings score table from trial results: methods
    are encoding+hyperparameter labels, settings are (dr, seed) pairs.
    Returns None when the table is incomplete or too small; two trials in
    one cell raise ExperimentError."""
    check_rank_cells((r.dr, r.seed, r.method_label) for r in results)
    methods = sorted({r.method_label for r in results})
    settings = sorted({(r.dr, r.seed) for r in results})
    column = {m: j for j, m in enumerate(methods)}
    row = {s: i for i, s in enumerate(settings)}
    table = np.full((len(settings), len(methods)), np.nan)
    for r in results:
        table[row[(r.dr, r.seed)], column[r.method_label]] = getattr(r, metric)
    if len(methods) < 2 or len(settings) < 2 or not np.all(np.isfinite(table)):
        return None
    return friedman_iman_davenport(table, methods)


def write_summary(results, out_dir):
    """Write aggregate.csv, then run the rank test and write rank_report.txt;
    returns (aggregate rows, rank test or None, the rank report text)."""
    agg = aggregate(results)
    write_aggregate_csv(agg, os.path.join(out_dir, "aggregate.csv"))
    rank = rank_test_from_results(results)
    text = ("rank test skipped: need >= 2 methods and >= 2 settings "
            "with a complete score table") if rank is None else rank.report()
    with open(os.path.join(out_dir, "rank_report.txt"), "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    return agg, rank, text


def _run_one(args):
    config, seed, train, test, sim, debug = args
    return run_trial(config, seed, train, test, sim, debug_verify=debug)


def run_suite(configs, train, test, sim=None, out_dir=".", jobs=1,
              debug_verify=False):
    """Run every (config, seed) trial, write raw and aggregate CSVs plus the
    rank report, and return (results, aggregate rows, rank test or None).

    A failing trial is recorded in errors.log and the suite continues; an
    errors.log left in out_dir by an earlier run is removed first. Two
    trials in one rank-table cell raise ExperimentError once raw_results.csv
    and aggregate.csv are written.
    """
    os.makedirs(out_dir, exist_ok=True)
    errors_path = os.path.join(out_dir, "errors.log")
    if os.path.exists(errors_path):
        os.remove(errors_path)
    tasks = [(cfg, seed, train, test, sim, debug_verify)
             for cfg in configs for seed in cfg.seeds]
    results, errors = [], []
    if jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [pool.submit(_run_one, task) for task in tasks]
            for task, fut in zip(tasks, futures):
                try:
                    results.append(fut.result())
                except Exception as exc:
                    errors.append(f"{task[0].config_id} seed={task[1]}: {exc}")
    else:
        for task in tasks:
            try:
                results.append(_run_one(task))
            except Exception as exc:  # keep the suite going
                errors.append(f"{task[0].config_id} seed={task[1]}: {exc}")
    if errors:
        with open(errors_path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(errors) + "\n")
    flat = _flatten(results)
    write_raw_csv(flat, os.path.join(out_dir, "raw_results.csv"))
    agg, rank, _ = write_summary(flat, out_dir)
    return flat, agg, rank
