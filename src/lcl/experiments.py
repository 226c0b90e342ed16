"""Experiment harness: single trials per encoding, top-k metrics,
aggregation over seeds, and the rank-based significance test."""

from __future__ import annotations

import csv
import math
import os
import re
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import _files, curriculum, model
from .data import subsample

ENCODINGS = ("SL", "LS", "LCL", "KD", "DML")


class ExperimentError(ValueError):
    """Invalid experiment configuration or inputs."""


DEFAULT_ALPHA = 0.1  # LS
DEFAULT_TEMPERATURE = 1.0  # KD
LOSS_LOG_ROWS = 64  # rows whose losses are computed at once, rounded to whole batches
SHARED_TABLE_BYTES = 16 * 2 ** 20  # LCL tables a suite keeps for one run of a config's seeds


def _is_seed(seed):
    return curriculum._is_integer(seed) and seed >= 0


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
        for name in ("epochs", "batch_size", "hidden"):
            curriculum._integer(name, getattr(self, name), ExperimentError)
        if min(self.epochs, self.batch_size, self.hidden) < 1:
            raise ExperimentError("epochs, batch_size and hidden must be >= 1")
        if self.architecture not in model.ARCHITECTURES:
            raise ExperimentError(f"unknown architecture {self.architecture!r}")
        if not self.seeds:
            raise ExperimentError("at least one seed is required")
        if not all(map(_is_seed, self.seeds)):
            raise ExperimentError(f"seeds must be integers >= 0, got {self.seeds}")

    @property
    def effective_alpha(self):
        return DEFAULT_ALPHA if self.alpha is None else self.alpha

    @property
    def effective_temperature(self):
        return DEFAULT_TEMPERATURE if self.kd_temperature is None else self.kd_temperature

    @property
    def method_label(self):
        """Encoding plus its own hyperparameter, default filled in; no DR/seed."""
        if self.encoding == "LCL":
            return f"LCL(eps={self.epsilon:g})"
        if self.encoding == "LS":
            return f"LS(alpha={self.effective_alpha:g})"
        if self.encoding == "KD":
            return f"KD(T={self.effective_temperature:g})"
        return self.encoding

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
    return _topk_accuracies(probs, labels, (k,))[0]


def _topk_accuracies(probs, labels, ks):
    """topk_accuracy for each k in ks from one ranking of checked inputs."""
    # NaN has no place in the order below, so non-finite entries are rejected
    if not np.isfinite(probs).all():
        raise ExperimentError("non-finite prediction entries")
    # the true class's 0-based rank in the order a stable argsort of -probs
    # gives: #greater plus #equal at a lower index, two disjoint sets counted at once
    true = probs[np.arange(probs.shape[0]), labels][:, None]
    lower = np.arange(probs.shape[1]) < labels[:, None]
    rank = np.add.reduce((probs > true) | ((probs == true) & lower), axis=1)
    return [float(np.mean(rank < k)) for k in ks]


def _log_losses(pending, targets, b, lam, out):
    """Set out (M, batches) to the mean loss of each b-row batch (the last may
    be short) of the pending (M, b, C) predictions: cross-entropy, plus
    KL(peer || own) for a DML pair, plus the lam * regularizer out holds."""
    preds = np.concatenate(pending, axis=1)
    terms = np.maximum(preds, model.PROB_FLOOR)
    np.log(terms, out=terms)
    terms *= targets
    ce = -np.add.reduce(terms, axis=-1)
    if len(preds) == 2:
        ce += model.kl_rows(preds[::-1], preds)
    full = len(targets) // b
    means = np.add.reduce(ce[:, :full * b].reshape(len(ce), full, b), axis=-1) / b
    if full < out.shape[1]:
        means = np.hstack([means, np.add.reduce(ce[:, full * b:], axis=-1, keepdims=True)
                           / (len(targets) - full * b)])
    out[:] = means + out if lam else means


def _train(config, models, xs, index, table_at, shuffle_rng):
    """The SGD loop of every encoding. Training rows `rows` of epoch t take
    the targets table_at(t)[index[rows]]: rows of a C x C class table picked
    by label, or of KD's (n, C) soft targets picked by row. Two models are a
    DML pair, each also pulled toward the other's prediction. Returns the
    trained models and their per-epoch mean losses, logged after the steps of
    every LOSS_LOG_ROWS rows; sgd_step does not check finiteness, so ModelError
    is raised here on a non-finite epoch loss or final parameter."""
    models = list(models)
    n, b, lam = xs.shape[0], config.batch_size, config.lam
    per_log = max(1, LOSS_LOG_ROWS // b) * b  # rows gathered and logged at once
    history = np.empty((config.epochs, len(models)))
    for epoch in range(config.epochs):
        lr = config.lr * config.lr_decay ** epoch
        table = table_at(epoch)
        order = shuffle_rng.permutation(n)
        losses = np.empty((len(models), -(-n // b)))
        for first in range(0, n, per_log):
            rows = order[first:first + per_log]
            xs_rows, targets_rows, pending = xs[rows], table[index[rows]], []
            for start in range(0, len(rows), b):
                xb, tb = xs_rows[start:start + b], targets_rows[start:start + b]
                outs = [model.forward_batch(p, xb) for p in models]
                preds = [pred for pred, _ in outs]
                pending.append(preds)
                for m, (pred, hidden) in enumerate(outs):
                    err = pred - tb
                    if len(preds) == 2:  # mimicry: KL(peer || own), logit error own - peer
                        err += pred - preds[1 - m]
                    params = models[m]
                    if lam:  # the logged loss takes the regularizer before the step
                        losses[m, (first + start) // b] = lam * model.regularizer(params)
                    grads = model.gradient_from_arrays(params, xb, err, lam, hidden)
                    models[m] = model.sgd_step(params, grads, lr)
            _log_losses(pending, targets_rows, b, lam,
                        losses[:, first // b:first // b + len(pending)])
        # the sum over the batches divided by their count is what mean() computes
        history[epoch] = np.add.reduce(losses, axis=1) / losses.shape[1]
        if not np.logical_and.reduce(np.isfinite(history[epoch])):
            raise model.ModelError(f"epoch {epoch + 1}/{config.epochs}: non-finite loss")
    if not all(params.is_finite() for params in models):
        raise model.ModelError(f"epoch {config.epochs}/{config.epochs}: non-finite parameters")
    return models, history.T.tolist()


def _evaluate(params, test):
    """Top-1 and top-5 accuracy (top-C when C < 5) of params on the test set."""
    preds = model.forward(params, test.features)
    return tuple(_topk_accuracies(preds, test.labels, (1, min(5, test.num_classes))))


def check_inputs(configs, train, test, sim=None):
    """Raise ExperimentError unless every config can train on train, be
    scored on test and, for LCL, take its targets from sim."""
    if sim is None and any(c.encoding == "LCL" for c in configs):
        raise ExperimentError("LCL requires a similarity matrix")
    if train.dim != test.dim or train.num_classes != test.num_classes:
        raise ExperimentError(f"train/test mismatch: {train.dim} vs {test.dim} features, "
                              f"{train.num_classes} vs {test.num_classes} classes")
    if sim is not None and sim.num_classes != train.num_classes:
        raise ExperimentError(f"similarity has {sim.num_classes} classes, "
                              f"the data {train.num_classes}")


def _lcl_table_at(sim, epsilon, shared=None):
    """table_at of an LCL trial. `shared` holds one config's schedules at
    steps 0, 1, ... for a run of its seeds: epoch t reads step t there when it is
    kept, else advances this trial's schedule and keeps it while the tables
    fit in SHARED_TABLE_BYTES. Without `shared` the trial keeps only its own
    current schedule."""
    kept, budget = ([], 0) if shared is None else (shared, SHARED_TABLE_BYTES)
    schedule = kept[-1] if kept else curriculum.init_targets(sim, epsilon)

    def table_at(epoch):
        nonlocal schedule
        if epoch < len(kept):
            return kept[epoch].targets
        schedule = curriculum.advance_to(schedule, epoch)
        if epoch == len(kept) and (epoch + 1) * schedule.targets.nbytes <= budget:
            kept.append(schedule)
        return schedule.targets
    return table_at


def run_trial(config, seed, train, test, sim=None, debug_verify=False, *, _schedules=None):
    """One deterministic training run for the config's encoding.

    The seed controls subsampling, initialization, and batch shuffling
    identically across encodings, so method comparisons are paired.
    """
    if not _is_seed(seed):
        raise ExperimentError(f"seed must be an integer >= 0, got {seed!r}")
    check_inputs((config,), train, test, sim)
    t_start = time.perf_counter()
    if config.dr < 1.0:
        train = subsample(train, config.dr, seed)
    xs, ys, c = train.features, train.labels, train.num_classes

    def rng(stream):  # 1 and 2 draw the first and second model, 3 and 4 shuffle for them
        return np.random.default_rng([int(seed), stream])

    def init(stream):
        return model.init_params(config.architecture, train.dim, c,
                                 hidden=config.hidden, seed=rng(stream))

    table, index = np.eye(c), ys
    table_at = lambda epoch: table  # late-bound: a branch below may replace table
    models, shuffle = [init(1)], rng(3)
    if config.encoding == "LS":
        table = np.stack([curriculum.label_smoothing(i, c, config.effective_alpha).probs
                          for i in range(c)])
    elif config.encoding == "LCL":
        if debug_verify:
            report = curriculum.verify_curriculum(
                curriculum.init_targets(sim, config.epsilon), config.epochs)
            if not report.passed:
                raise ExperimentError("curriculum axioms violated:\n" + report.summary())
        table_at = _lcl_table_at(sim, config.epsilon, _schedules)
    elif config.encoding == "KD":
        # teacher is a full-budget SL run under the same seed streams
        (teacher,), _ = _train(config, models, xs, index, table_at, shuffle)
        table = model._softmax(model.logits(teacher, xs) / config.effective_temperature)
        index = np.arange(len(ys))  # the soft targets are picked by row
        models, shuffle = [init(2)], rng(4)
    elif config.encoding == "DML":
        models.append(init(2))
    models, histories = _train(config, models, xs, index, table_at, shuffle)
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


def _write_table(records, header, path):
    """Write header, then each record's attributes that header names: None
    as an empty cell, wall_ms with one decimal and any other float as its
    repr, which reads back exactly."""
    def cell(name, value):
        if name == "wall_ms":
            return f"{value:.1f}"
        return "" if value is None else repr(float(value)) if isinstance(value, float) else value

    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows([cell(name, getattr(r, name)) for name in header] for r in records)


def write_raw_csv(results, path):
    _write_table(sorted(results, key=lambda r: (r.config_id, r.seed)), RAW_HEADER, path)


def _optional_float(text):
    return None if text == "" else float(text)


def _result_from_row(row):
    if None in row or None in row.values():
        raise ValueError(f"expected {len(RAW_HEADER)} cells")
    config_id, encoding = row["config_id"], row["encoding"]
    epsilon, alpha = _optional_float(row["epsilon"]), _optional_float(row["alpha"])
    # the raw CSV has no temperature column; a KD config_id starts "KD-T<T>_"
    kd = re.match(r"KD-T([^_]+)_", config_id) if encoding == "KD" else None
    config = ExperimentConfig(
        encoding=encoding, dr=float(row["dr"]), seeds=(int(row["seed"]),),
        epsilon=epsilon, alpha=alpha, kd_temperature=float(kd.group(1)) if kd else None,
        epochs=int(row["epochs"]))
    label = config.method_label if encoding != "DML" else \
        "DML2" if config_id.endswith("_m2") else "DML1"
    final_loss = float(row["final_loss"])
    return TrialResult(
        config_id=config_id, method_label=label, encoding=encoding,
        epsilon=epsilon, alpha=alpha, dr=config.dr, seed=config.seeds[0],
        top1=float(row["top1"]), top5=float(row["top5"]), final_loss=final_loss,
        loss_history=(final_loss,), epochs=config.epochs,
        wall_ms=float(row["wall_ms"]))


def read_raw_csv(path):
    """Trial results from a raw CSV written by write_raw_csv, without loss
    histories or parameters. A malformed row, or one whose config a grid
    cell would reject, raises ExperimentError naming path:line."""
    with _files.named(path, ExperimentError), open(path, encoding="utf-8", newline="") as fh:
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
    _write_table(rows, AGG_HEADER, path)  # std uses divisor n (population convention)


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


def rank_test_from_results(results):
    """Build the methods x settings table of top-1 scores: methods
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
        table[row[(r.dr, r.seed)], column[r.method_label]] = r.top1
    if len(methods) < 2 or len(settings) < 2 or not np.all(np.isfinite(table)):
        return None
    return friedman_iman_davenport(table, methods)


def write_summary(results, out_dir):
    """Write aggregate.csv, then run the rank test and write rank_report.txt;
    returns (aggregate rows, rank test or None, the rank report text)."""
    agg = aggregate(results)
    write_aggregate_csv(agg, os.path.join(out_dir, "aggregate.csv"))
    rank = rank_test_from_results(results)
    if rank is None:  # name each method that lost trials, if any did
        n = len({(r.dr, r.seed) for r in results})
        short = sorted((m, k) for m, k in Counter(r.method_label for r in results).items()
                       if k < n)
        text = "\n".join(["rank test skipped: need >= 2 methods and >= 2 settings "
                          "with a complete score table"]
                         + [f"  {m} has {k} of {n} settings" for m, k in short])
    else:
        text = rank.report()
    with open(os.path.join(out_dir, "rank_report.txt"), "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    return agg, rank, text


def _run_seeds(cfg, seeds, train, test, sim):
    """One task of run_suite: the config's trials for these seeds, in turn,
    each through the public run_trial and all sharing one list of LCL
    schedules. Returns each trial's TrialResult or, for a trial that
    failed, its errors.log line."""
    schedules, outcomes = [], []
    for seed in seeds:
        try:
            outcomes.append(run_trial(cfg, seed, train, test, sim, _schedules=schedules))
        except Exception as exc:  # keep the suite going
            outcomes.append(f"{cfg.config_id} seed={seed}: {exc}")
    return outcomes


def run_suite(configs, train, test, sim=None, out_dir=".", jobs=1):
    """Run every (config, seed) trial, write raw and aggregate CSVs plus the
    rank report, and return (results, aggregate rows, rank test or None).

    Each task runs a config's seeds in turn, so they share its LCL tables:
    one task per config serially, and up to `jobs` tasks of contiguous seeds
    per config on a pool of `jobs` workers. A failing trial, or every trial
    of a task whose worker died, is recorded in errors.log and the suite
    continues; an errors.log left in out_dir by an earlier run is removed
    first. Two trials in one rank-table cell raise ExperimentError once
    raw_results.csv and aggregate.csv are written.
    """
    os.makedirs(out_dir, exist_ok=True)
    errors_path = os.path.join(out_dir, "errors.log")
    if os.path.exists(errors_path):
        os.remove(errors_path)
    tasks = []  # each config's seeds cut into up to `jobs` contiguous runs
    for cfg in configs:
        n, k = len(cfg.seeds), min(jobs, len(cfg.seeds))
        tasks += [(cfg, cfg.seeds[n * i // k:n * (i + 1) // k]) for i in range(k)]
    outcomes = []
    if jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [pool.submit(_run_seeds, *task, train, test, sim) for task in tasks]
            for (cfg, seeds), fut in zip(tasks, futures):
                try:
                    outcomes += fut.result()
                except Exception as exc:  # the worker died
                    outcomes += [f"{cfg.config_id} seed={seed}: {exc}" for seed in seeds]
    else:
        for task in tasks:
            outcomes += _run_seeds(*task, train, test, sim)
    errors = [o for o in outcomes if isinstance(o, str)]
    if errors:
        with open(errors_path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(errors) + "\n")
    flat = _flatten(o for o in outcomes if not isinstance(o, str))
    write_raw_csv(flat, os.path.join(out_dir, "raw_results.csv"))
    agg, rank, _ = write_summary(flat, out_dir)
    return flat, agg, rank
