"""Benchmark of the lcl package: end-to-end figures from untraced passes,
per-layer figures from a traced run.

    python3 bench/run_bench.py --workload lowdata-lcl-grid --seed 0 --seconds 40 --trace 0

Run from the root of a checkout; the package is imported from ``src/``. The
load is a closed loop in one process: grids run serially (jobs=1), one pass
after another, until the next pass would overrun ``--seconds``. The last
line of standard output is one JSON object with the keys correct, attempted,
failed and metrics; the lines above it print every figure with its unit and
sample count, the environment, and what is not measured.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import spans
import summary

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

# (name, unit, better, bound, what it is)
END_TO_END = (
    ("trials_per_s", "1/s", "higher", 0.25,
     "completed trials / timed wall time; for cli-pipeline, trials of `lcl run` / its wall time"),
    ("pipeline_s", "s", "lower", 0.25,
     "wall time of the fastest timed pass: the whole grid, or the six CLI steps "
     "each at its fastest"),
    ("setup_s", "s", "lower", 0.25,
     "median wall time of the set-up: data, similarity and input files made before timing"),
    ("peak_rss_mb", "MB", "lower", 0.1, "peak resident set size of the benchmark process"),
    ("top1_mean", "fraction", "higher", 0.25, "mean top-1 over all trial rows of a pass"),
)

ENCODINGS = ("SL", "LS", "LCL", "KD", "DML")
CLI_STEPS = ("gen-data", "build-sim-embedding", "build-sim-hierarchy", "verify", "run",
             "report")
LOWDATA, FULLDATA, CLI = WORKLOAD_NAMES = ("lowdata-lcl-grid", "fulldata-baselines-mlp",
                                            "cli-pipeline")
TRAINING = f"trials_per_s on {LOWDATA} and {FULLDATA}"


def _per_layer():
    """(name, unit, better, the end-to-end figure and workload it should move)."""
    out = [
        ("model.sgd_batches", "count", "lower",
         f"{TRAINING}; exact closed form sum epochs*ceil(n_sub/b)"),
        ("model.batch_us", "us", "lower", f"{TRAINING}, most on {LOWDATA}"),
    ]
    for fn in ("forward", "gradient_from_arrays", "sgd_step", "regularizer"):
        out += [(f"model.{fn}.calls", "count", "lower", f"{TRAINING}, most on {LOWDATA}"),
                (f"model.{fn}.self_ms", "ms", "lower", f"{TRAINING}, most on {LOWDATA}")]
    out += [("model.kl_divergence.calls", "count", "lower", f"trials_per_s on {FULLDATA} only"),
            ("model.kl_divergence.self_ms", "ms", "lower", f"trials_per_s on {FULLDATA} only"),
            ("model.self_ms", "ms", "lower", TRAINING)]
    for fn in ("advance_to", "step"):
        out += [(f"curriculum.{fn}.calls", "count", "lower",
                 f"trials_per_s on {LOWDATA}; flat on {FULLDATA}"),
                (f"curriculum.{fn}.self_ms", "ms", "lower",
                 f"trials_per_s on {LOWDATA}; flat on {FULLDATA}")]
    out += [("curriculum.verify_curriculum.ms", "ms", "lower", f"pipeline_s on {CLI}"),
            ("curriculum.self_ms", "ms", "lower", f"trials_per_s on {LOWDATA}, pipeline_s on {CLI}"),
            ("experiments.run_trial.self_ms", "ms", "lower",
             f"{TRAINING} (loop overhead outside the child layers)")]
    out += [(f"experiments.run_trial.ms.{enc}", "ms", "lower",
             f"{TRAINING} (median trial wall time)") for enc in ENCODINGS]
    out += [(f"experiments.{fn}.self_ms", "ms", "lower", f"{TRAINING} (suite tail)")
            for fn in ("topk_accuracy", "rank_test_from_results", "write_raw_csv")]
    out += [("experiments.self_ms", "ms", "lower", TRAINING),
            ("data.subsample.calls", "count", "lower", f"trials_per_s on {LOWDATA}"),
            ("data.subsample.self_ms", "ms", "lower", f"trials_per_s on {LOWDATA}"),
            ("data.load_dataset.ms", "ms", "lower", f"pipeline_s on {CLI}"),
            ("data.load_dataset.rows_per_s", "1/s", "higher", f"pipeline_s on {CLI}"),
            ("data.save_dataset.ms", "ms", "lower", f"pipeline_s on {CLI}"),
            ("data.generate_synthetic.ms", "ms", "lower",
             f"pipeline_s on {CLI}; setup_s on {LOWDATA} and {FULLDATA}"),
            ("data.self_ms", "ms", "lower", f"pipeline_s on {CLI}; setup_s elsewhere")]
    out += [("similarity.simrank.ms", "ms", "lower", f"pipeline_s on {CLI}"),
            ("similarity.build_cosine_similarity.ms", "ms", "lower",
             f"pipeline_s on {CLI}; setup_s on {LOWDATA} and {FULLDATA}"),
            ("similarity.load_similarity.ms", "ms", "lower", f"pipeline_s on {CLI}"),
            ("similarity.save_similarity.ms", "ms", "lower", f"pipeline_s on {CLI}")]
    out += [("similarity.self_ms", "ms", "lower", f"pipeline_s on {CLI}; setup_s elsewhere")]
    out += [(f"cli.{step}.ms", "ms", "lower", f"pipeline_s on {CLI}") for step in CLI_STEPS]
    out += [("cli.self_ms", "ms", "lower",
             f"pipeline_s on {CLI} (argparse, printing, report's own aggregation)"),
            ("work.trials", "count", "higher", "exact count of trials in one pass"),
            ("work.csv_rows", "count", "higher",
             f"exact count of dataset, similarity and embedding rows parsed; pipeline_s on {CLI}"),
            ("trace.overhead_s", "s", "lower", "traced minus untraced pass wall time"),
            ("trace.overhead_frac", "fraction", "lower",
             "trace.overhead_s / untraced pass wall time")]
    return tuple(out)


PER_LAYER = _per_layer()
COUNT_FIGURES = tuple(n for n, unit, _, _ in PER_LAYER if unit == "count")
ROW_TAGS = {  # loaders whose span tag is the number of rows they parsed
    "data.load_dataset": lambda ds: ds.num_examples,
    "similarity.load_similarity": lambda sim: sim.num_classes,
    "similarity.load_embeddings": lambda table: table.num_classes,
}
SPAN_TAGS = {"experiments.run_trial": lambda result: result.encoding, **ROW_TAGS}

LIMITS = (
    "no CPU pinning: on a shared machine other tenants can take CPU time",
    "no hardware counters",
    "the --jobs>1 process-pool path of run_suite is not measured (trials run serially)",
    "multi-threaded BLAS is not measured (BLAS runs one thread)",
    "a fresh process ran its first grid about 17% slower (4.76 s against 4.03 s) when "
    "sizing the workloads, so an untimed warm-up precedes the timed passes",
)
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS thread: on a shared 2-vCPU host, a second BLAS thread makes every
# larger matmul wait for the other vCPU, whose speed other tenants set. With
# two threads cli-pipeline ran 20-60% slower than with one, and fulldata was
# no faster.
BLAS_THREADS = 1


def cap_blas_threads():
    """Hold BLAS at BLAS_THREADS threads; must run before numpy is imported."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    return BLAS_THREADS


def import_lcl():
    """Put the checkout's src/ first on sys.path, cap BLAS threads and import
    lcl from there; raises ImportError when the checkout has no src/lcl."""
    src = ROOT / "src"
    if not (src / "lcl" / "__init__.py").is_file():
        raise ImportError(f"{src / 'lcl'} not found: run from a checkout of the repository")
    blas_threads = cap_blas_threads()
    sys.path.insert(0, str(src))
    import lcl

    if Path(lcl.__file__).resolve().parent != (src / "lcl").resolve():
        raise ImportError(f"imported lcl from {lcl.__file__}, not from {src}")
    return blas_threads


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def git_revision(root):
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def environment(blas_threads):
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "cpu_model": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas, "blas_threads": blas_threads,
            "git_revision": git_revision(ROOT)}


def timed_loop(run_once, seconds):
    """Call run_once() until the next call would end after `seconds`; at
    least once. run_once returns the wall time it used."""
    start = time.perf_counter()
    while True:
        used = run_once()
        if time.perf_counter() - start + used > seconds:
            return


# ---------------------------------------------------------------- figures


def layer_figures(recorded, selfs, members, trial_of):
    """Per-layer figures of the spans listed in members (one root's tree)."""
    calls, total, own, rows = Counter(), Counter(), Counter(), Counter()
    trial_ms, steps_by_trial = defaultdict(list), Counter()
    for i in members:
        s = recorded[i]
        calls[s.name] += 1
        total[s.name] += s.end_ns - s.start_ns
        own[s.name] += selfs[i]
        if s.name == "experiments.run_trial" and s.tag is not None:
            trial_ms[s.tag].append((s.end_ns - s.start_ns) / 1e6)
        elif s.name in ROW_TAGS and s.tag is not None:
            rows[s.name] += s.tag
        elif s.name == "model.sgd_step":
            steps_by_trial[trial_of[i]] += 1
    # a DML pair takes two sgd_step calls per batch
    batches = sum(n // 2 if t >= 0 and recorded[t].tag == "DML" else n
                  for t, n in steps_by_trial.items())
    layer_self = Counter()
    for name, ns in own.items():
        layer_self[name.split(".", 1)[0]] += ns

    load_s = total["data.load_dataset"] / 1e9
    f = {"model.sgd_batches": batches,
         "model.batch_us": layer_self["model"] / 1e3 / batches if batches else 0.0,
         "data.load_dataset.rows_per_s": rows["data.load_dataset"] / load_s if load_s else 0.0,
         "work.trials": calls["experiments.run_trial"],
         "work.csv_rows": sum(rows.values())}
    for enc in ENCODINGS:
        ms = trial_ms.get(enc)
        f[f"experiments.run_trial.ms.{enc}"] = summary.summarise(ms).median if ms else 0.0
    for step in CLI_STEPS:
        f[f"cli.{step}.ms"] = total[f"step.{step}"] / 1e6
    for layer in spans.LAYERS:
        f[f"{layer}.self_ms"] = layer_self[layer] / 1e6
    for name, *_ in PER_LAYER:
        base, kind = name.rsplit(".", 1)
        if name in f or name.startswith("trace."):
            continue
        f[name] = {"calls": calls[base], "self_ms": own[base] / 1e6,
                   "ms": total[base] / 1e6}[kind]
    return f


def traced_figures(recorded, passes, setup_root):
    """Median per-layer figures over the traced passes; a figure that is zero
    in every pass (set-up work such as data generation on the training
    workloads) is taken from the traced set-up. Also returns the list of
    count figures that differ between passes."""
    selfs = spans.self_times(recorded)
    trial_of = spans.enclosing(recorded, "experiments.run_trial")
    members = defaultdict(list)
    for i, r in enumerate(spans.roots(recorded)):
        members[r].append(i)
    per_pass = [layer_figures(recorded, selfs, members[r], trial_of) for r in passes]
    setup = layer_figures(recorded, selfs, members[setup_root], trial_of)
    out, unsteady = {}, []
    for name, *_ in PER_LAYER:
        if name.startswith("trace."):
            continue
        values = [f[name] for f in per_pass]
        if not any(values):
            out[name] = setup[name]
        elif name in COUNT_FIGURES:
            out[name] = values[0]
            if len(set(values)) > 1:
                unsteady.append(f"{name} differs between traced passes: {values}")
        else:
            out[name] = statistics.median(values)
    return out, per_pass, unsteady


# ------------------------------------------------------------------- runs


def timed_setup(wl, seed, work_dir):
    t0 = time.perf_counter()
    st = wl.setup(seed, str(work_dir))
    return st, time.perf_counter() - t0


def run_untraced(wl, seed, seconds, reference, work_dir):
    """Timed passes until `seconds` is used up. One extra set-up follows each
    pass, so the set-up samples spread over the whole run."""
    st, first = timed_setup(wl, seed, work_dir)
    setup_s, passes = [first], []
    wl.warm_up(st)

    def once():
        p = wl.run_pass(st)
        passes.append(p)
        setup_s.append(timed_setup(wl, seed, work_dir / "setup-repeat")[1])
        return p.wall_s

    timed_loop(once, seconds)
    rss = peak_rss_mb()
    for p in passes:
        wl.check(st, p, reference)
    return st, passes, setup_s, rss


def run_traced(wl, seed, seconds, reference, work_dir, trace_path):
    """Alternate untraced and traced passes until `seconds` is used up; the
    set-up is traced once, after an untraced one has warmed it up."""
    tracer = spans.Tracer()
    modules = _lcl_modules()

    def traced(root_name, fn, *args):
        root = tracer.begin(root_name)
        tracer.install(modules, SPAN_TAGS)
        try:
            return root, fn(*args)
        finally:
            tracer.uninstall()
            tracer.end(root)

    wl.setup(seed, str(work_dir))
    setup_root, st = traced("bench.setup", wl.setup, seed, str(work_dir))
    wl.warm_up(st)
    untraced, traced_passes, pass_roots = [], [], []

    def pair():
        untraced.append(wl.run_pass(st))
        root, p = traced("bench.pass", wl.run_pass, st, tracer)
        traced_passes.append(p)
        pass_roots.append(root)
        return untraced[-1].wall_s + p.wall_s

    timed_loop(pair, seconds)
    passes = untraced + traced_passes
    for p in passes:
        wl.check(st, p, reference)
    recorded = tracer.spans()
    figures, per_pass, failures = traced_figures(recorded, pass_roots, setup_root)
    u_wall = min(p.wall_s for p in untraced)
    t_wall = min(p.wall_s for p in traced_passes)
    figures["trace.overhead_s"] = t_wall - u_wall
    figures["trace.overhead_frac"] = (t_wall - u_wall) / u_wall
    for f in per_pass:
        for name, want in wl.expected_counts(st).items():
            if f[name] != want:
                failures.append(f"{name} = {f[name]}, closed form {want}")
    spans.write_trace(recorded, trace_path)
    print(f"per-layer figures: median over {len(traced_passes)} traced passes; "
          f"{len(recorded)} spans written to {trace_path.relative_to(ROOT)}")
    return st, passes, figures, failures, len(traced_passes)


def _lcl_modules():
    from lcl import cli, curriculum, data, experiments, model, similarity

    return (similarity, curriculum, model, data, experiments, cli)


# ----------------------------------------------------------------- output


def fmt(x):
    return f"{x:.6g}" if isinstance(x, float) else str(x)


def print_row(name, value, unit, n, extra=""):
    print(f"  {name:<40s} {fmt(value):>14s} {unit:<9s} n={n:<5d} {extra}")


def fastest_pass_s(passes):
    """Wall time of the fastest pass. A pass made of CLI steps is put together
    from each step's fastest time over the run: every step then has a dozen
    or more samples, not one per pass, so a slow spell that falls across some
    of the steps of every pass still leaves each step a fast sample."""
    steps = passes[0].step_s
    if steps:
        return sum(min(p.step_s[step] for p in passes) for step in steps)
    return min(p.wall_s for p in passes)


def end_to_end(passes, setup_s, rss):
    """The end-to-end figures as (value, samples). A pass time is taken from
    the fastest pass of the run: on a shared host, slow spells lasting
    seconds move a run's median pass by 10% or more, but rarely its fastest
    pass."""
    rows = passes[-1].rows
    rates = [p.trials / p.trial_wall_s for p in passes]
    top1 = [statistics.fmean(r.top1 for r in rows)] if rows else [0.0]
    return {
        "trials_per_s": (max(rates), rates),
        "pipeline_s": (fastest_pass_s(passes), [p.wall_s for p in passes]),
        "setup_s": (statistics.median(setup_s), setup_s),
        "peak_rss_mb": (rss, [rss]),
        "top1_mean": (top1[0], top1),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    try:
        blas_threads = import_lcl()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    reference = None
    if args.seed == workloads.DEFAULT_SEED:
        with open(BENCH_DIR / "reference.json", encoding="utf-8") as fh:
            reference = json.load(fh)[args.workload]
    out_dir = ROOT / ".bench_out"
    work_dir = out_dir / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    trace_path = out_dir / f"trace-{args.workload}.jsonl.gz"
    os.makedirs(work_dir, exist_ok=True)
    print(f"lcl benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    try:
        if args.trace:
            st, passes, figures, failures, n_traced = run_traced(
                wl, args.seed, args.seconds, reference, work_dir, trace_path)
        else:
            st, passes, setup_s, rss = run_untraced(
                wl, args.seed, args.seconds, reference, work_dir)
            failures = []
        failures += wl.finish(st)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    for p in passes:
        failures += p.failures
    attempted = sum(p.attempted for p in passes) + 1  # +1: the whole-run checks
    failed = min(attempted, len(failures))
    for msg in failures[:20]:
        print(f"FAILED: {msg}", file=sys.stderr)

    metrics = {}
    if args.trace:
        for name, unit, _, _ in PER_LAYER:
            metrics[name] = {"value": figures[name], "unit": unit}
            print_row(name, figures[name], unit, n_traced)
    else:
        print("end-to-end figures: value, then the samples' median, quartiles and the "
              "highest percentile with ten samples beyond it")
        figures = end_to_end(passes, setup_s, rss)
        for name, unit, *_ in END_TO_END:
            value, values = figures[name]
            s = summary.summarise(values)
            metrics[name] = {"value": value, "unit": unit}
            tail = f" p{s.tail_p:g}={fmt(s.tail)}" if s.tail_p else ""
            print_row(name, value, unit, s.n,
                      f"median={fmt(s.median)} q1={fmt(s.q1)} q3={fmt(s.q3)}{tail}")
        print_row("failed_frac", failed / attempted, "fraction", attempted)
        print("pass wall times (s): " + " ".join(f"{p.wall_s:.4f}" for p in passes))
        for step in passes[0].step_s:
            print(f"{step} wall times (s): "
                  + " ".join(f"{p.step_s[step]:.4f}" for p in passes))
    print("environment: " + json.dumps(environment(blas_threads)))
    for limit in LIMITS:
        print(f"not measured: {limit}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
