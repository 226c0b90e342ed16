"""Tests of the benchmark's own helpers:

    python3 -m pytest bench/tests
"""

import json
import statistics
import sys
import types
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import run_bench  # noqa: E402
import spans  # noqa: E402
import summary  # noqa: E402


def span(name, start, end, parent=-1):
    return spans.Span(name, start, end, parent)


def test_self_time_of_hand_built_tree():
    tree = [
        span("root", 0, 100),          # 0
        span("a", 10, 40, 0),          # 1
        span("a.x", 15, 20, 1),        # 2
        span("a.y", 25, 35, 1),        # 3
        span("b", 50, 90, 0),          # 4
        span("b.deep", 60, 70, 4),     # 5
        span("b.deep.z", 61, 69, 5),   # 6
    ]
    assert spans.self_times(tree) == [100 - 30 - 40, 30 - 5 - 10, 5, 10, 40 - 10, 10 - 8, 8]
    assert spans.roots(tree) == [0] * 7
    assert spans.enclosing(tree, "b") == [-1, -1, -1, -1, 4, 4, 4]


def test_self_time_counts_overlapping_and_overhanging_children_once():
    tree = [
        span("p", 0, 100),
        span("c1", 10, 50, 0),
        span("c2", 30, 60, 0),    # overlaps c1 on [30, 50)
        span("c3", 90, 120, 0),   # runs past the parent's end
        span("q", 200, 210),      # a second root
    ]
    # covered part of p: [10, 60) and [90, 100) -> 60
    assert spans.self_times(tree) == [40, 40, 30, 30, 10]
    assert spans.roots(tree) == [0, 0, 0, 0, 4]


def test_tracer_records_names_parents_tags_and_restores():
    mod = types.ModuleType("lcl.fake")

    def inner(x):
        return x + 1

    def outer(x):
        return mod.inner(x) * 2

    def _private(x):
        return x

    for fn in (inner, outer, _private):
        fn.__module__ = "lcl.fake"
        setattr(mod, fn.__name__, fn)
    mod.alias = statistics.median  # not an lcl function: left alone

    tracer = spans.Tracer()
    root = tracer.begin("bench.pass")
    tracer.install([mod], {"fake.inner": lambda result: result})
    assert mod.outer(1) == 4
    tracer.uninstall()
    tracer.end(root)
    assert mod.inner is inner and mod.outer is outer and mod._private is _private
    assert mod.alias is statistics.median

    recorded = tracer.spans()
    assert [(s.name, s.parent, s.tag) for s in recorded] == [
        ("bench.pass", -1, None), ("fake.outer", 0, None), ("fake.inner", 1, 2)]
    for s in recorded:
        assert s.start_ns <= s.end_ns
    assert recorded[0].start_ns <= recorded[1].start_ns <= recorded[2].start_ns


def test_tracer_writes_one_line_per_span(tmp_path):
    import gzip

    tracer = spans.Tracer()
    tracer.end(tracer.begin("a"))
    tracer.end(tracer.begin("b"))
    path = tmp_path / "trace.jsonl.gz"
    spans.write_trace(tracer.spans(), path)
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        lines = [json.loads(line) for line in fh]
    assert lines[0]["fields"][:3] == ["index", "parent", "name"]
    assert [line[2] for line in lines[1:]] == ["a", "b"]


def test_batch_count_closed_form():
    # 20 rows at batch 4 -> 5 batches/epoch; KD trains teacher + student
    assert summary.expected_batches([("SL", 200, 20, 4)]) == 1000
    assert summary.expected_batches([("KD", 10, 2000, 32)]) == 2 * 10 * 63
    assert summary.expected_batches([("DML", 10, 2000, 32)]) == 10 * 63
    assert summary.expected_batches([("LCL", 3, 7, 4), ("LS", 1, 8, 4)]) == 3 * 2 + 2
    assert summary.expected_batches([]) == 0


def test_subsample_size_matches_ceil_per_class():
    assert summary.subsample_size([20] * 20, 0.05) == 20
    assert summary.subsample_size([3, 7, 10], 0.25) == 1 + 2 + 3
    assert summary.subsample_size([40] * 50, 1.0) == 2000


def test_percentile_interpolates_like_numpy():
    np = pytest.importorskip("numpy")
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 10.0]
    for p in (0, 10, 25, 50, 90, 100):
        assert summary.percentile(values, p) == pytest.approx(np.percentile(values, p))
    with pytest.raises(ValueError):
        summary.percentile([], 50)


def test_tail_percentile_needs_ten_samples_beyond():
    assert summary.tail_percentile(9) is None
    assert summary.tail_percentile(39) is None
    assert summary.tail_percentile(40) == 75.0
    assert summary.tail_percentile(100) == 90.0
    assert summary.tail_percentile(200) == 95.0
    assert summary.tail_percentile(1000) == 99.0
    assert summary.tail_percentile(10000) == 99.9


def test_summary_reports_sample_count_and_quartiles():
    values = [float(v) for v in range(1, 101)]
    s = summary.summarise(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert (s.n, s.median, s.q1, s.q3) == (100, 50.5, q1, q3)
    assert s.tail_p == 90.0 and s.tail == pytest.approx(90.1)
    one = summary.summarise([2.5])
    assert (one.n, one.median, one.q1, one.q3, one.tail_p) == (1, 2.5, 2.5, 2.5, None)


def test_fastest_pass_of_cli_steps_takes_each_step_at_its_fastest():
    run_bench.import_lcl()
    import workloads

    def cli_pass(gen, run):
        return workloads.Pass(wall_s=gen + run, trials=2, trial_wall_s=run, rows=[],
                              step_s={"gen-data": gen, "run": run})

    passes = [cli_pass(1.0, 3.0), cli_pass(2.0, 1.5), cli_pass(4.0, 4.0)]
    assert run_bench.fastest_pass_s(passes) == 1.0 + 1.5
    grid = [workloads.Pass(wall_s=w, trials=4, trial_wall_s=w, rows=[]) for w in (3.0, 2.5)]
    assert run_bench.fastest_pass_s(grid) == 2.5


def test_benchmark_json_matches_the_metric_tables():
    with open(BENCH_DIR.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in bench["end_to_end"]] \
        == [row[:4] for row in run_bench.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] \
        == [row[:3] for row in run_bench.PER_LAYER]
    assert [w["name"] for w in bench["workloads"]] == list(run_bench.WORKLOAD_NAMES)


def test_cli_step_names_match_the_pipeline_commands(tmp_path):
    run_bench.import_lcl()
    import workloads

    wl = workloads.PipelineWorkload()
    st = wl.setup(0, str(tmp_path))
    assert tuple(wl.commands(st)) == run_bench.CLI_STEPS
