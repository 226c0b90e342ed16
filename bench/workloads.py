"""The benchmark's workloads and the checks on their outputs.

Each workload derives its data and trial seeds from the workload seed, sets
up its inputs (timed as set-up), runs one timed pass at a time through the
unmodified ``lcl`` package, and checks every pass's outputs.

* lowdata-lcl-grid: the acceptance low-data task (20 classes, d=32, DR 5%,
  linear, 200 epochs, batch 4), SL plus LCL at three epsilons over 8 seeds.
  Per-batch Python overhead and the per-epoch schedule update dominate.
* fulldata-baselines-mlp: 50 classes, d=64, full data, mlp1, SL/LS/LCL/KD/DML
  over 4 seeds. Larger matmuls, KD trains twice, DML makes per-example KL
  calls; the curriculum barely runs and subsampling is skipped.
* cli-pipeline: in-process ``lcl.cli.main`` calls with almost no SGD:
  gen-data, build-sim (embedding and hierarchy), verify, run and report.
  It covers similarity construction, curriculum verification, CSV I/O and
  the rank test, which the training workloads do not touch.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os
import re
import shutil
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from lcl import cli, data, experiments, similarity

import summary

DEFAULT_SEED = 0
PARITY_TOL = 1e-10  # per-trial parity tolerance of the refactor gate
ORACLE_TOL = 1e-6  # the rank report prints its statistics with 6 decimals
EPSILONS = (0.9, 0.99, 0.999)


@dataclass(frozen=True)
class Row:
    """One trial row: (config_id, seed) key, accuracies and its losses."""

    key: tuple
    top1: float
    top5: float
    losses: tuple


@dataclass
class Pass:
    wall_s: float
    trials: int
    trial_wall_s: float  # wall time the trials' throughput is taken over
    rows: list
    failures: list = field(default_factory=list)
    attempted: int = 0
    outputs: dict = field(default_factory=dict)  # CLI step -> (exit code, stdout, stderr)
    step_s: dict = field(default_factory=dict)  # CLI step -> wall time


def check_rows(rows, expected_keys, reference):
    """Failure messages for rows that are missing, repeated, unexpected,
    non-finite, out of order (0 <= top1 <= top5 <= 1), or, when reference
    values are given, further than PARITY_TOL from them."""
    failures = []
    counts = Counter(r.key for r in rows)
    for key in sorted(expected_keys, key=str):
        if counts[key] != 1:
            failures.append(f"{key}: {counts[key]} rows, expected 1")
    for r in rows:
        if r.key not in expected_keys:
            failures.append(f"{r.key}: unexpected row")
        elif not all(math.isfinite(x) for x in r.losses):
            failures.append(f"{r.key}: non-finite loss")
        elif not 0.0 <= r.top1 <= r.top5 <= 1.0:
            failures.append(f"{r.key}: top1={r.top1} top5={r.top5}")
        elif reference is not None:
            ref = reference.get(f"{r.key[0]}|{r.key[1]}")
            got = (r.top1, r.top5, r.losses[-1])
            if ref is None or any(abs(a - b) > PARITY_TOL for a, b in zip(got, ref)):
                failures.append(f"{r.key}: (top1, top5, final_loss) {got} != reference {ref}")
    return failures


def reference_table(rows):
    return {f"{r.key[0]}|{r.key[1]}": [r.top1, r.top5, r.losses[-1]] for r in rows}


def _trial_rows(results):
    return [Row((r.config_id, r.seed), r.top1, r.top5,
                tuple(r.loss_history) + (r.final_loss,)) for r in results]


# ----------------------------------------------------------------- grids


@dataclass
class GridState:
    seed: int
    train: object
    test: object
    sim: object
    configs: list
    out_dir: str
    first_rows: dict | None = None


class GridWorkload:
    """A run_suite grid over one synthetic task, trials run serially."""

    def __init__(self, name, make_spec, make_configs):
        self.name = name
        self.make_spec = make_spec
        self.make_configs = make_configs

    def setup(self, seed, work_dir):
        train, test, emb = data.generate_synthetic(self.make_spec(seed))
        sim = similarity.build_cosine_similarity(emb)
        out_dir = os.path.join(work_dir, "suite")
        os.makedirs(out_dir, exist_ok=True)
        return GridState(seed, train, test, sim, self.make_configs(seed), out_dir)

    def warm_up(self, st):
        """One trial of every config, so the timed passes start warm."""
        for cfg in st.configs:
            experiments.run_trial(cfg, cfg.seeds[0], st.train, st.test, st.sim)

    def run_pass(self, st, tracer=None):
        t0 = time.perf_counter()
        results, _, _ = experiments.run_suite(st.configs, st.train, st.test, st.sim,
                                              out_dir=st.out_dir, jobs=1)
        wall = time.perf_counter() - t0
        trials = len(results) - sum(r.companion is not None for r in results)
        return Pass(wall_s=wall, trials=trials, trial_wall_s=wall,
                    rows=_trial_rows(results))

    def expected_keys(self, st):
        keys = set()
        for cfg in st.configs:
            for s in cfg.seeds:
                keys.add((cfg.config_id, s))
                if cfg.encoding == "DML":
                    keys.add((cfg.config_id + "_m2", s))
        return keys

    def check(self, st, p, reference):
        """Check one pass; every pass must also repeat the first exactly."""
        keys = self.expected_keys(st)
        p.attempted = len(keys)
        p.failures += check_rows(p.rows, keys, reference)
        got = {r.key: (r.top1, r.top5, r.losses) for r in p.rows}
        if st.first_rows is None:
            st.first_rows = got
        elif got != st.first_rows:
            p.failures.append("pass results differ from the first pass")

    def finish(self, st):
        return []

    def expected_counts(self, st):
        class_counts = np.bincount(st.train.labels, minlength=st.train.num_classes)
        trials = [(cfg.encoding, cfg.epochs,
                   summary.subsample_size(class_counts.tolist(), cfg.dr), cfg.batch_size)
                  for cfg in st.configs for _ in cfg.seeds]
        return {"work.trials": len(trials),
                "model.sgd_batches": summary.expected_batches(trials)}


def lowdata_spec(seed):
    # the default seed is the acceptance task (data seed 7)
    return data.SyntheticSpec(
        num_superclusters=4, classes_per_supercluster=5, dim=32,
        train_per_class=20, test_per_class=250,
        intra_spread=0.3, inter_spread=2.0, noise_sigma=2.0, seed=7 + seed)


def lowdata_configs(seed):
    # the default seed trains on the acceptance seeds 0..7
    common = dict(dr=0.05, seeds=tuple(range(8 * seed, 8 * seed + 8)), epochs=200,
                  batch_size=4, lr=0.01, lam=0.0, architecture="linear")
    return ([experiments.ExperimentConfig(encoding="SL", **common)]
            + [experiments.ExperimentConfig(encoding="LCL", epsilon=e, **common)
               for e in EPSILONS])


def fulldata_spec(seed):
    return data.SyntheticSpec(
        num_superclusters=10, classes_per_supercluster=5, dim=64,
        train_per_class=40, test_per_class=50,
        intra_spread=0.5, inter_spread=2.0, noise_sigma=2.0, seed=seed)


def fulldata_configs(seed):
    common = dict(dr=1.0, seeds=tuple(range(4 * seed, 4 * seed + 4)), epochs=10,
                  batch_size=32, architecture="mlp1", hidden=64)
    return [experiments.ExperimentConfig(encoding="SL", **common),
            experiments.ExperimentConfig(encoding="LS", **common),
            experiments.ExperimentConfig(encoding="LCL", epsilon=0.99, **common),
            experiments.ExperimentConfig(encoding="KD", **common),
            experiments.ExperimentConfig(encoding="DML", **common)]


# ----------------------------------------------------------- CLI pipeline

GEN = dict(superclusters=10, classes_per_supercluster=10, dim=64,
           train_per_class=60, test_per_class=40,
           intra_spread=0.5, inter_spread=2.0, noise_sigma=2.0)
SIMRANK_DECAY = 0.8  # lcl build-sim's default
# Report input: methods as (encoding, epsilon, alpha, mean top1), 3 DRs, 100 seeds.
REPORT_METHODS = (("SL", "", "", 0.50), ("LS", "", "0.1", 0.51),
                  ("LCL", "0.9", "", 0.52), ("LCL", "0.99", "", 0.53),
                  ("LCL", "0.999", "", 0.54), ("KD", "", "", 0.515))
REPORT_DRS = ("0.05", "0.25", "1.0")
REPORT_SEEDS = 100


@dataclass
class PipelineState:
    seed: int
    paths: dict
    scores: np.ndarray  # report input, settings x methods top1
    configs: list
    report_stats: list = field(default_factory=list)


def write_taxonomy(path, seed):
    """A 220-node DAG: 20 roots, 100 mid nodes with one root parent each,
    100 leaves with two mid parents each. Leaves l0 and l1 share the parents
    m0 and m5, whose roots differ, so their simrank is decay / 2."""
    rng = np.random.default_rng([seed, 11])
    lines = [f"r{i // 5} m{i}" for i in range(100)]
    for leaf in range(100):
        pair = (0, 5) if leaf < 2 else rng.choice(100, size=2, replace=False)
        lines += [f"m{int(m)} l{leaf}" for m in pair]
    lines.append("@leaves " + " ".join(f"l{i}" for i in range(100)))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def write_report_input(path, seed):
    """The raw CSV `lcl report` reads: 6 methods x 3 DRs x 100 seeds of
    continuous scores (no ties). Returns the settings x methods top1 table."""
    rng = np.random.default_rng([seed, 12])
    n_settings = len(REPORT_DRS) * REPORT_SEEDS
    top1 = np.clip(np.array([m[3] for m in REPORT_METHODS])
                   + rng.normal(0.0, 0.03, size=(n_settings, len(REPORT_METHODS))),
                   0.01, 0.9)
    top5 = np.minimum(top1 + rng.uniform(0.05, 0.1, size=top1.shape), 1.0)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(experiments.RAW_HEADER)
        for j, (enc, eps, alpha, _) in enumerate(REPORT_METHODS):
            for d, dr in enumerate(REPORT_DRS):
                config_id = f"{enc}{eps}{alpha}_dr{dr}"
                for s in range(REPORT_SEEDS):
                    i = d * REPORT_SEEDS + s
                    w.writerow([config_id, enc, eps, alpha, dr, s, repr(float(top1[i, j])),
                                repr(float(top5[i, j])), "1.0", 30, "1.0"])
    return top1


class PipelineWorkload:
    """Six in-process `lcl` commands on generated files."""

    name = "cli-pipeline"

    def setup(self, seed, work_dir):
        paths = {k: os.path.join(work_dir, v) for k, v in dict(
            data="data", train="data/train.csv", test="data/test.csv",
            embeddings="data/embeddings.txt", sim="sim.csv", taxonomy="taxonomy.txt",
            hsim="hsim.csv", config="experiment.cfg", results="results",
            raw="report_input.csv", report="report").items()}
        os.makedirs(work_dir, exist_ok=True)
        write_taxonomy(paths["taxonomy"], seed)
        scores = write_report_input(paths["raw"], seed)
        with open(paths["config"], "w", encoding="utf-8") as fh:
            fh.write(f"[paths]\ntrain = {paths['train']}\ntest = {paths['test']}\n"
                     f"out_dir = {paths['results']}\n\n"
                     f"[grid]\nencodings = SL\ndrs = 1.0\nseeds = {2 * seed} {2 * seed + 1}\n\n"
                     "[training]\nepochs = 1\n")
        configs, _ = cli.load_config_file(paths["config"])
        return PipelineState(seed, paths, scores, configs)

    def commands(self, st):
        p = st.paths
        gen = [f"--{k.replace('_', '-')}={v}" for k, v in GEN.items()]
        return {
            "gen-data": ["gen-data", *gen, f"--seed={st.seed}", f"--out-dir={p['data']}"],
            "build-sim-embedding": ["build-sim", "--kind", "embedding",
                                    "--in", p["embeddings"], "--out", p["sim"]],
            "build-sim-hierarchy": ["build-sim", "--kind", "hierarchy",
                                    "--in", p["taxonomy"], "--out", p["hsim"]],
            "verify": ["verify", "--sim", p["sim"], "--epsilon", "0.999",
                       "--horizon", "2000"],
            "run": ["run", p["config"]],
            "report": ["report", p["raw"], "--out-dir", p["report"]],
        }

    def warm_up(self, st):
        self.run_pass(st)

    def run_pass(self, st, tracer=None):
        """Run the steps in order; tracer, when given, gets one span per step."""
        for key in ("data", "results", "report"):
            shutil.rmtree(st.paths[key], ignore_errors=True)
        for key in ("sim", "hsim"):
            with contextlib.suppress(FileNotFoundError):
                os.remove(st.paths[key])
        outputs, times = {}, {}
        t_pass = time.perf_counter()
        for step, argv in self.commands(st).items():
            out, err = io.StringIO(), io.StringIO()
            span = tracer.begin(f"step.{step}") if tracer else None
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(argv)
                except Exception as exc:  # an uncaught error fails the step
                    code = repr(exc)
            times[step] = time.perf_counter() - t0
            if tracer:
                tracer.end(span)
            outputs[step] = (code, out.getvalue(), err.getvalue())
        wall = time.perf_counter() - t_pass
        return Pass(wall_s=wall, trials=sum(len(c.seeds) for c in st.configs),
                    trial_wall_s=times["run"], rows=[], outputs=outputs, step_s=times)

    def check(self, st, p, reference):
        p.attempted = len(p.outputs)
        for step, (code, out, err) in p.outputs.items():
            if code != 0:
                p.failures.append(f"{step}: exit code {code}: {err.strip()}")
        if p.failures:
            return
        try:
            self._check_outputs(st, p, reference)
        except (OSError, ValueError, IndexError, KeyError) as exc:
            p.failures.append(f"unreadable output: {exc!r}")

    def _check_outputs(self, st, p, reference):
        if "-> PASS" not in p.outputs["verify"][1]:
            p.failures.append("verify: no PASS line")
        names, rows = _read_csv_matrix(st.paths["hsim"])
        got = rows[names.index("l0")][names.index("l1")]
        if abs(got - SIMRANK_DECAY / 2.0) > 1e-12:
            p.failures.append(f"build-sim-hierarchy: simrank(l0, l1) = {got!r}, "
                              f"expected {SIMRANK_DECAY / 2.0!r}")
        p.rows = _read_raw_rows(os.path.join(st.paths["results"], "raw_results.csv"))
        keys = {(c.config_id, s) for c in st.configs for s in c.seeds}
        p.failures += [f"run: {m}" for m in check_rows(p.rows, keys, reference)]
        with open(os.path.join(st.paths["report"], "rank_report.txt"), encoding="utf-8") as fh:
            text = fh.read()
        stats = [re.search(pat + r" = (\S+)", text) for pat in ("chi2_F", "F_F")]
        if None in stats:
            p.failures.append("report: rank statistics missing")
        else:
            st.report_stats.append(tuple(float(m.group(1)) for m in stats))

    def finish(self, st):
        """Compare the reported rank statistics with a scipy oracle; scipy is
        imported only here, after memory has been measured."""
        import scipy.stats

        n, k = st.scores.shape
        chi2 = float(scipy.stats.friedmanchisquare(*st.scores.T).statistic)
        f_f = (n - 1) * chi2 / (n * (k - 1) - chi2)
        return [f"report: (chi2_F, F_F) = {got} != oracle ({chi2}, {f_f})"
                for got in st.report_stats
                if abs(got[0] - chi2) > ORACLE_TOL or abs(got[1] - f_f) > ORACLE_TOL]

    def expected_counts(self, st):
        n_train = GEN["train_per_class"]
        class_counts = [n_train] * (GEN["superclusters"] * GEN["classes_per_supercluster"])
        trials = [(c.encoding, c.epochs, summary.subsample_size(class_counts, c.dr),
                   c.batch_size) for c in st.configs for _ in c.seeds]
        return {"work.trials": len(trials),
                "model.sgd_batches": summary.expected_batches(trials)}


def _read_csv_matrix(path):
    with open(path, encoding="utf-8") as fh:
        reader = csv.reader(fh)
        names = next(reader)
        return names, [[float(x) for x in row] for row in reader if row]


def _read_raw_rows(path):
    with open(path, encoding="utf-8") as fh:
        return [Row((r["config_id"], int(r["seed"])), float(r["top1"]),
                    float(r["top5"]), (float(r["final_loss"]),))
                for r in csv.DictReader(fh)]


WORKLOADS = {
    "lowdata-lcl-grid": GridWorkload("lowdata-lcl-grid", lowdata_spec, lowdata_configs),
    "fulldata-baselines-mlp": GridWorkload("fulldata-baselines-mlp", fulldata_spec,
                                           fulldata_configs),
    "cli-pipeline": PipelineWorkload(),
}
