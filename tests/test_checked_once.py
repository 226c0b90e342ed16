"""Checks made once where they were made per step or per row, with the same
results and errors: verify_curriculum's memory does not grow with its
horizon, read_raw_csv builds one ExperimentConfig per distinct config, and
Dataset finds non-finite features without an (n, d) mask."""

import csv
import re
import tracemalloc
import types

import numpy as np
import pytest

from lcl import curriculum as cur, data, experiments as ex


def traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_verify_peak_does_not_grow_with_the_horizon():
    """At C = 400 the peaks for horizons 10 and 40 differ by less than one
    (41, C) entropies array, and neither holds two C x C arrays."""
    c = 400
    rng = np.random.default_rng(0)
    sim = rng.random(size=(c, c)) * 0.5
    np.fill_diagonal(sim, 1.0)
    schedule = cur.init_targets(types.SimpleNamespace(entries=sim), 0.99)
    cur.verify_curriculum(schedule, 2)  # warm up
    peaks = [traced_peak(cur.verify_curriculum, schedule, horizon) for horizon in (10, 40)]
    assert abs(peaks[1] - peaks[0]) <= 41 * c * 8, peaks
    assert max(peaks) < 2 * c * c * 8, peaks


# 6 methods x 3 DRs x 100 seeds, as `lcl report` reads them in the benchmark
METHODS = [("SL", "SL", "", ""), ("LS", "LS0.1", "", "0.1"), ("LCL", "LCL0.9", "0.9", ""),
           ("LCL", "LCL0.99", "0.99", ""), ("LCL", "LCL0.999", "0.999", ""),
           ("KD", "KD-T2", "", "")]
DRS = ("0.05", "0.25", "1.0")
SEEDS = 100


def report_rows():
    rng = np.random.default_rng(1)
    rows = []
    for encoding, name, eps, alpha in METHODS:
        for dr in DRS:
            for seed in range(SEEDS):
                top1 = float(rng.uniform(0.1, 0.8))
                rows.append(dict(config_id=f"{name}_dr{dr}", encoding=encoding, epsilon=eps,
                                 alpha=alpha, dr=dr, seed=str(seed), top1=repr(top1),
                                 top5=repr(top1 + 0.1), final_loss="1.0", epochs="30",
                                 wall_ms="1.0"))
    return rows


def write_rows(path, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.DictWriter(fh, ex.RAW_HEADER, lineterminator="\n")
        w.writeheader()
        w.writerows(rows)


def former_read_raw_csv(path):
    """read_raw_csv as it was: one ExperimentConfig built and checked per row."""
    results = []
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            try:
                epsilon = None if row["epsilon"] == "" else float(row["epsilon"])
                alpha = None if row["alpha"] == "" else float(row["alpha"])
                kd = re.match(r"KD-T([^_]+)_", row["config_id"]) \
                    if row["encoding"] == "KD" else None
                config = ex.ExperimentConfig(
                    encoding=row["encoding"], dr=float(row["dr"]), seeds=(int(row["seed"]),),
                    epsilon=epsilon, alpha=alpha,
                    kd_temperature=float(kd.group(1)) if kd else None, epochs=int(row["epochs"]))
                final_loss = float(row["final_loss"])
                results.append(ex.TrialResult(
                    config_id=row["config_id"], method_label=config.method_label,
                    encoding=row["encoding"], epsilon=epsilon, alpha=alpha, dr=config.dr,
                    seed=config.seeds[0], top1=float(row["top1"]), top5=float(row["top5"]),
                    final_loss=final_loss, loss_history=(final_loss,), epochs=config.epochs,
                    wall_ms=float(row["wall_ms"])))
            except ValueError as exc:
                raise ex.ExperimentError(f"{path}:{reader.line_num}: {exc}") from exc
    return results


def test_one_config_per_distinct_key(tmp_path, monkeypatch):
    path = tmp_path / "raw.csv"
    write_rows(path, report_rows())
    want = former_read_raw_csv(path)
    built, check = [], ex.ExperimentConfig.__post_init__

    def counted(self):
        built.append(self.config_id)
        check(self)
    monkeypatch.setattr(ex.ExperimentConfig, "__post_init__", counted)
    got = ex.read_raw_csv(path)
    assert len(built) == len(METHODS) * len(DRS) == 18
    assert got == want and len(got) == 1800
    assert {r.method_label for r in got} == {"SL", "LS(alpha=0.1)", "LCL(eps=0.9)",
                                             "LCL(eps=0.99)", "LCL(eps=0.999)", "KD(T=2)"}


def spoiled(tmp_path, row, **cells):
    rows = report_rows()
    rows[row].update(cells)
    path = tmp_path / "raw.csv"
    write_rows(path, rows)
    return path


@pytest.mark.parametrize("row, cells, reason", [
    (499, {"seed": "-1"}, "seeds must be integers >= 0, got (-1,)"),  # its key seen at row 400
    (600, {"epsilon": "1.5"}, "epsilon must lie in (0, 1)"),  # the first LCL row
    (1234, {"top1": "0.9", "top5": "0.8"}, "need 0 <= top1 <= top5 <= 1"),
])
def test_errors_keep_their_text_and_line(tmp_path, row, cells, reason):
    """The line is the data row's index plus 2 (the header is line 1)."""
    path = spoiled(tmp_path, row, **cells)
    expected = f"{path}:{row + 2}: {reason}"
    with pytest.raises(ex.ExperimentError) as former:
        former_read_raw_csv(path)
    with pytest.raises(ex.ExperimentError) as now:
        ex.read_raw_csv(path)
    assert str(now.value) == str(former.value) == expected


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("position", [(0, 0), (2, 1), (6, 2), (3, 0)])
def test_dataset_refuses_non_finite_features_anywhere(value, position):
    feats = np.arange(21.0).reshape(7, 3) - 10.0
    feats[position] = value
    with pytest.raises(data.DataError, match="^non-finite feature entries$"):
        data.Dataset(features=feats, labels=np.arange(7) % 2, num_classes=2, split="train")


def test_dataset_refuses_both_infinities_and_keeps_the_empty_error():
    with pytest.raises(data.DataError, match="^non-finite feature entries$"):
        data.Dataset(features=[[np.inf, -np.inf]], labels=[0], num_classes=1, split="test")
    with pytest.raises(data.DataError, match="^empty dataset$"):
        data.Dataset(features=np.zeros((0, 3)), labels=[], num_classes=1, split="test")


def test_dataset_check_holds_no_feature_sized_mask():
    n, d = 20000, 32
    feats = np.random.default_rng(2).normal(size=(n, d))
    labels = np.arange(n) % 10
    peak = traced_peak(lambda: data.Dataset(features=feats, labels=labels, num_classes=10,
                                            split="test"))
    assert peak < n * d // 4, peak  # an (n, d) bool mask is n * d bytes
