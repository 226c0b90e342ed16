"""Refusals are one line that names the file or the request: multi-line
reasons are joined, dataset labels that do not fit int64 are refused at
path:line, the missing-classes message lists at most ten classes, input-sized
allocations that fail and CSV fields over the csv module's limit are typed
errors. Failed allocations are simulated: numpy is never asked for them."""

import csv
import re
import warnings

import numpy as np
import pytest

from lcl import _files, cli, data, experiments as ex, similarity as sm


def test_named_puts_a_multi_line_reason_on_one_line():
    with pytest.raises(RuntimeError, match=r"^where: first line second line$") as err:
        with _files.named("where", RuntimeError, ValueError):
            raise ValueError("  first line\n\tsecond line  \n")
    assert isinstance(err.value.__cause__, ValueError)


LABELS_OUTSIDE_INT64 = ["18446744073709551616", "-9223372036854775809", "9223372036854775808"]


def write_dataset(path, split, rows, classes=2):
    path.write_text(f"# classes={classes} split={split}\nlabel,f1\n" + rows)


@pytest.mark.parametrize("label", LABELS_OUTSIDE_INT64)
def test_label_outside_int64_is_refused_at_its_line(tmp_path, label):
    path = tmp_path / "d.csv"
    write_dataset(path, "train", f"0,1.0\n1,2.0\n{label},3.0\n")
    message = f"{path}:5: label {label} does not fit int64"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the cast to int64 used to warn
        with pytest.raises(data.DataError, match=f"^{re.escape(message)}$"):
            data.load_dataset(path)


@pytest.mark.parametrize("label", LABELS_OUTSIDE_INT64)
def test_run_exits_2_on_a_label_outside_int64(tmp_path, capsys, label):
    train, test = tmp_path / "d.csv", tmp_path / "t.csv"
    write_dataset(train, "train", "0,1.0\n1,2.0\n")
    write_dataset(test, "test", f"0,1.0\n{label},2.0\n")
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"[paths]\ntrain = {train}\ntest = {test}\nout_dir = {tmp_path / 'out'}\n"
                   "[grid]\nencodings = SL\nseeds = 0\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["run", str(cfg)]) == cli.EXIT_USAGE
    assert capsys.readouterr().err == f"error: {test}:4: label {label} does not fit int64\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("classes, labels, listed", [
    (12, "0 11", "[1, 2, 3, 4, 5, 6, 7, 8, 9, 10]"),
    (13, "0 12", "[1, 2, 3, 4, 5, 6, 7, 8, 9, 10] and 1 more"),
    (20, "0 2 4 6 8 10", "[1, 3, 5, 7, 9, 11, 12, 13, 14, 15] and 4 more"),
    (10_000_000, "0 5", "[1, 2, 3, 4, 6, 7, 8, 9, 10, 11] and 9999988 more"),
])
def test_missing_classes_lists_the_first_ten(tmp_path, classes, labels, listed):
    path = tmp_path / "d.csv"
    write_dataset(path, "train", "".join(f"{y},1.0\n" for y in labels.split()), classes)
    message = f"{path}: training split is missing classes {listed}"
    with pytest.raises(data.DataError, match=f"^{re.escape(message)}$"):
        data.load_dataset(path)


def refuse(monkeypatch, name, error, when=lambda *args: True):
    """Make np.<name> fail, for the calls `when` picks, as numpy fails an
    allocation it cannot make; every other call goes through."""
    real = getattr(np, name)

    def alloc(*args, **kwargs):
        if when(*args):
            raise error
        return real(*args, **kwargs)
    monkeypatch.setattr(np, name, alloc)


FAILED_ALLOCATIONS = [
    MemoryError("Unable to allocate 7.28 TiB for an array with shape (1000000, 1000000) "
                "and data type float64"),
    ValueError("array is too big; `arr.size * arr.dtype.itemsize` is larger than the "
               "maximum possible size."),
]


def wide_header(path, classes=1000):
    """A similarity file whose header names `classes` classes, and no rows."""
    path.write_text(",".join(f"c{i}" for i in range(classes)) + "\n")


@pytest.mark.parametrize("error", FAILED_ALLOCATIONS, ids=["memory", "too-big"])
def test_similarity_header_too_large_to_hold(tmp_path, monkeypatch, error):
    sim = tmp_path / "sim.csv"
    wide_header(sim)
    refuse(monkeypatch, "empty", error, lambda shape, *_: shape == (1000, 1000))
    with pytest.raises(sm.SimilarityFileError,
                       match=f"^{re.escape(f'{sim}: {error}')}$") as err:
        sm.load_similarity(sim)
    assert err.value.__cause__ is error


def test_verify_and_run_exit_2_on_a_similarity_too_large_to_hold(tmp_path, monkeypatch,
                                                                  capsys):
    sim, train, test = tmp_path / "sim.csv", tmp_path / "d.csv", tmp_path / "t.csv"
    wide_header(sim)
    write_dataset(train, "train", "0,1.0\n1,2.0\n")
    write_dataset(test, "test", "0,1.0\n1,2.0\n")
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"[paths]\ntrain = {train}\ntest = {test}\nsimilarity = {sim}\n"
                   f"out_dir = {tmp_path / 'out'}\n"
                   "[grid]\nencodings = LCL\nepsilons = 0.9\nseeds = 0\n")
    error = FAILED_ALLOCATIONS[0]
    refuse(monkeypatch, "empty", error, lambda shape, *_: shape == (1000, 1000))
    for argv in (["verify", "--sim", str(sim), "--epsilon", "0.9"], ["run", str(cfg)]):
        assert cli.main(argv) == cli.EXIT_USAGE
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"error: {sim}: {error}\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("error", FAILED_ALLOCATIONS, ids=["memory", "too-big"])
def test_simrank_too_large_to_hold(tmp_path, monkeypatch, capsys, error):
    h = tmp_path / "h.txt"
    h.write_text("root a\nroot b\n@leaves a b\n")
    refuse(monkeypatch, "eye", error)
    with pytest.raises(sm.SimilarityError, match="^simrank over 3 nodes is too large: "):
        sm.simrank(sm.load_hierarchy(h))
    out = tmp_path / "sim.csv"
    assert cli.main(["build-sim", "--kind", "hierarchy", "--in", str(h),
                     "--out", str(out)]) == cli.EXIT_USAGE
    assert capsys.readouterr().err == f"error: simrank over 3 nodes is too large: {error}\n"
    assert not out.exists()


@pytest.mark.parametrize("error", FAILED_ALLOCATIONS, ids=["memory", "too-big"])
def test_cosine_similarity_too_large_to_hold(tmp_path, monkeypatch, capsys, error):
    emb = tmp_path / "emb.txt"
    emb.write_text("a 1 0\nb 0 1\n")
    refuse(monkeypatch, "triu", error)
    out = tmp_path / "sim.csv"
    assert cli.main(["build-sim", "--kind", "embedding", "--in", str(emb),
                     "--out", str(out)]) == cli.EXIT_USAGE
    assert capsys.readouterr().err == (f"error: cosine similarity of 2 classes is too "
                                       f"large: {error}\n")
    assert not out.exists()


LONG_FIELD = "1" * (csv.field_size_limit() + 1)


def test_verify_exits_2_on_a_field_over_the_csv_limit(tmp_path, capsys):
    sim = tmp_path / "sim.csv"
    sim.write_text(f"a,b\n1.0,{LONG_FIELD}\n0.0,1.0\n")
    assert cli.main(["verify", "--sim", str(sim), "--epsilon", "0.9"]) == cli.EXIT_USAGE
    line, = capsys.readouterr().err.splitlines()
    assert line.startswith(f"error: {sim}: field larger than field limit")


def test_report_exits_2_on_a_field_over_the_csv_limit(tmp_path, capsys):
    raw = tmp_path / "raw.csv"
    raw.write_text(",".join(ex.RAW_HEADER) + f"\nx,{LONG_FIELD}\n")
    assert cli.main(["report", str(raw), "--out-dir", str(tmp_path / "out")]) \
        == cli.EXIT_USAGE
    line, = capsys.readouterr().err.splitlines()
    assert line.startswith(f"error: {raw}: field larger than field limit")
    assert not (tmp_path / "out").exists()
