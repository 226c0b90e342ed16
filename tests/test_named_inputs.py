"""Input errors name their file: a non-UTF-8 data, similarity, embedding,
hierarchy, raw CSV or checkpoint file, a dataset, embedding table or
similarity matrix that breaks an invariant, and a checkpoint whose arrays do
not fit together.
Config values are taken literally, `%` included. The schedule's checks and
cooling step give the bits they gave before they were trimmed."""

import re

import numpy as np
import pytest

from lcl import cli, curriculum, data, experiments as ex, model, similarity as sm

NOT_UTF8 = b"a,b\n1.0,0.5\n0.5,1.0\xff\n"


@pytest.mark.parametrize("load, error", [
    (data.load_dataset, data.DataError),
    (sm.load_embeddings, sm.SimilarityError),
    (sm.load_hierarchy, sm.SimilarityError),
    (sm.load_similarity, sm.SimilarityFileError),
    (ex.read_raw_csv, ex.ExperimentError),
    (model.load_checkpoint, model.ModelError),
], ids=["dataset", "embeddings", "hierarchy", "similarity", "raw-csv", "checkpoint"])
def test_non_utf8_file_names_the_path_and_the_byte(tmp_path, load, error):
    path = tmp_path / "latin1.csv"
    path.write_bytes(NOT_UTF8)
    with pytest.raises(error, match=f"^{re.escape(str(path))}: .*0xff"):
        load(str(path))


def test_cli_names_the_non_utf8_file(tmp_path, capsys):
    path = tmp_path / "latin1.csv"
    path.write_bytes(NOT_UTF8)
    assert cli.main(["verify", "--sim", str(path), "--epsilon", "0.9"]) == cli.EXIT_USAGE
    line, = capsys.readouterr().err.splitlines()
    assert line.startswith(f"error: {path}: ") and "0xff" in line


@pytest.mark.parametrize("rows, reason", [
    ("0,1.0\n5,2.0\n", "label out of range [0, 2)"),
    ("0,1.0\n0,2.0\n", "training split is missing classes [1]"),
], ids=["label-out-of-range", "missing-class"])
def test_run_names_the_train_csv_of_a_dataset_error(tmp_path, capsys, rows, reason):
    train, test = tmp_path / "d.csv", tmp_path / "t.csv"
    train.write_text("# classes=2 split=train\nlabel,f1\n" + rows)
    test.write_text("# classes=2 split=test\nlabel,f1\n0,1.0\n1,2.0\n")
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"[paths]\ntrain = {train}\ntest = {test}\nout_dir = {tmp_path / 'out'}\n"
                   "[grid]\nencodings = SL\nseeds = 0\n")
    assert cli.main(["run", str(cfg)]) == cli.EXIT_USAGE
    assert capsys.readouterr().err == f"error: {train}: {reason}\n"
    assert not (tmp_path / "out").exists()


def test_malformed_class_count_names_the_file(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("# classes=two split=test\nlabel,f1\n0,1.0\n")
    with pytest.raises(data.DataError, match=f"^{re.escape(str(path))}: invalid literal"):
        data.load_dataset(path)


def test_percent_in_a_config_value_is_literal(tmp_path, capsys):
    out = tmp_path / "data"
    assert cli.main(["gen-data", "--superclusters", "2", "--classes-per-supercluster", "2",
                     "--dim", "3", "--train-per-class", "3", "--test-per-class", "3",
                     "--out-dir", str(out)]) == cli.EXIT_OK
    (out / "train.csv").rename(out / "100%.csv")
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"[paths]\ntrain = {out / '100%.csv'}\ntest = {out / 'test.csv'}\n"
                   f"out_dir = {tmp_path / '%(results)s'}\n"
                   "[grid]\nencodings = SL\nseeds = 0 1\n[training]\nepochs = 1\n")
    _, paths = cli.load_config_file(str(cfg))
    assert paths["train"] == str(out / "100%.csv")
    assert cli.main(["run", str(cfg)]) == cli.EXIT_OK
    assert (tmp_path / "%(results)s" / "raw_results.csv").is_file()


def test_checkpoint_shape_error_names_the_file(tmp_path):
    path = tmp_path / "m.ckpt"
    model.save_checkpoint(model.init_params("linear", 3, 4, seed=0), path)
    lines = path.read_text().splitlines()
    assert lines[4] == "b_out 4"
    lines[4:6] = ["b_out 5", " ".join(["0.0"] * 5)]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(model.ModelError,
                       match=f"^{re.escape(str(path))}: W_out / b_out class-count mismatch$"):
        model.load_checkpoint(path)


def step_matrix_before(t, epsilon):
    """The cooling step as written before it was trimmed."""
    c = t.shape[0]
    diag = np.diag(t)
    denom = 1.0 + epsilon * (t.sum(axis=1) - diag)
    out = epsilon * t / denom[:, None]
    out[np.arange(c), np.arange(c)] = 1.0 / denom
    return out


@pytest.mark.parametrize("order", ["C", "F"])
def test_step_matrix_bits_unchanged(order):
    rng = np.random.default_rng(4)
    for c in (1, 2, 5, 30):
        t = rng.random((c, c)) + np.eye(c) * c
        t = np.array(t / t.sum(axis=1, keepdims=True), order=order)
        for eps in (0.5, 0.9, 0.999):
            stepped = curriculum.step(curriculum.TargetSchedule(t, eps))
            assert stepped.targets.tobytes() == step_matrix_before(t, eps).tobytes()


@pytest.mark.parametrize("order", ["C", "F"])
def test_schedule_rejects_off_diagonal_argmax(order):
    t = np.array([[0.6, 0.4, 0.0], [0.5, 0.2, 0.3], [0.0, 0.1, 0.9]], order=order)
    with pytest.raises(curriculum.CurriculumError, match="^row 1: argmax"):
        curriculum.TargetSchedule(t, 0.9)
    t = np.array(t)
    t[2, 0] = np.nan
    with pytest.raises(curriculum.CurriculumError, match="simplex"):
        curriculum.TargetSchedule(t, 0.9)


@pytest.mark.parametrize("text, reason", [
    ("a 1 0\na 0 1\n", "duplicate class name"),
    ("a 0 0\nb 0 1\n", "zero vector for class 'a'"),
    ("a 1 1\nb 1e200 -1e200\n",
     f"entry above {sm._largest_entry(2):.6g} for class 'b' overflows its norm"),
    ("a 1e-200 1e-200\nb 1 0\n",
     f"largest entry below {sm.SMALLEST_PEAK:.6g} for class 'a' underflows its norm"),
], ids=["duplicate-name", "zero-vector", "norm-overflow", "norm-underflow"])
def test_embedding_table_errors_name_the_file(tmp_path, text, reason):
    path = tmp_path / "emb.txt"
    path.write_text(text)
    with pytest.raises(sm.SimilarityError, match=f"^{re.escape(f'{path}: {reason}')}$"):
        sm.load_embeddings(path)


def test_build_sim_exits_2_on_an_overflowing_entry(tmp_path, capsys):
    emb = tmp_path / "emb.txt"
    emb.write_text("a 1 1\nb 1e200 1e200\n")
    out = tmp_path / "sim.csv"
    assert cli.main(["build-sim", "--kind", "embedding", "--in", str(emb),
                     "--out", str(out)]) == cli.EXIT_USAGE
    assert capsys.readouterr().err.startswith(f"error: {emb}: entry above ")
    assert not out.exists()


def test_build_sim_exits_2_on_an_underflowing_entry(tmp_path, capsys):
    emb = tmp_path / "emb.txt"
    emb.write_text("a 1 1\nb 1e-200 1e-200\n")
    out = tmp_path / "sim.csv"
    assert cli.main(["build-sim", "--kind", "embedding", "--in", str(emb),
                     "--out", str(out)]) == cli.EXIT_USAGE
    assert capsys.readouterr().err == (f"error: {emb}: largest entry below "
                                       f"{sm.SMALLEST_PEAK:.6g} for class 'b' underflows "
                                       "its norm\n")
    assert not out.exists()


SIM_MATRIX_ERRORS = [
    ("1.0,0.2\n0.3,1.0\n", "exactly symmetric"),
    ("0.9,0.2\n0.2,1.0\n", "diagonal entries must equal 1"),
    ("1.0,1.0\n1.0,1.0\n", "off-diagonal entry reaches 1"),
    ("1.0,-0.1\n-0.1,1.0\n", r"entries must lie in \[0, 1\]"),
]


@pytest.mark.parametrize("rows, reason", SIM_MATRIX_ERRORS,
                         ids=["asymmetric", "diagonal", "off-diagonal-1", "out-of-range"])
def test_similarity_matrix_errors_name_the_file(tmp_path, rows, reason):
    path = tmp_path / "sim.csv"
    path.write_text("a,b\n" + rows)
    with pytest.raises(sm.SimilarityError, match=f"^{re.escape(str(path))}: .*{reason}") as err:
        sm.load_similarity(path)
    assert not isinstance(err.value, sm.SimilarityFileError)  # `lcl verify` exits 1 on it


def test_run_names_the_asymmetric_similarity_file(tmp_path, capsys):
    out = tmp_path / "data"
    assert cli.main(["gen-data", "--superclusters", "1", "--classes-per-supercluster", "2",
                     "--dim", "3", "--train-per-class", "3", "--test-per-class", "3",
                     "--out-dir", str(out)]) == cli.EXIT_OK
    sim = tmp_path / "sim.csv"
    sim.write_text("a,b\n1.0,0.2\n0.3,1.0\n")
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"[paths]\ntrain = {out / 'train.csv'}\ntest = {out / 'test.csv'}\n"
                   f"similarity = {sim}\nout_dir = {tmp_path / 'out'}\n"
                   "[grid]\nencodings = LCL\nepsilons = 0.9\nseeds = 0\n")
    assert cli.main(["run", str(cfg)]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err == f"error: {sim}: similarity matrix must be exactly symmetric\n"
    assert not (tmp_path / "out").exists()


def test_repeated_class_name_in_a_similarity_header(tmp_path, capsys):
    sim = tmp_path / "sim.csv"
    sim.write_text("a,a\n1.0,0.2\n0.2,1.0\n")
    with pytest.raises(sm.SimilarityError, match=f"^{re.escape(str(sim))}: "
                                                 "repeated class name 'a'$") as err:
        sm.load_similarity(sim)
    assert not isinstance(err.value, sm.SimilarityFileError)
    assert cli.main(["verify", "--sim", str(sim), "--epsilon", "0.9"]) == cli.EXIT_FAIL
    assert capsys.readouterr().out == ("verification failed before stepping: "
                                       f"{sim}: repeated class name 'a'\n")
    out = tmp_path / "data"
    assert cli.main(["gen-data", "--superclusters", "1", "--classes-per-supercluster", "2",
                     "--dim", "3", "--train-per-class", "3", "--test-per-class", "3",
                     "--out-dir", str(out)]) == cli.EXIT_OK
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"[paths]\ntrain = {out / 'train.csv'}\ntest = {out / 'test.csv'}\n"
                   f"similarity = {sim}\nout_dir = {tmp_path / 'out'}\n"
                   "[grid]\nencodings = LCL\nepsilons = 0.9\nseeds = 0\n")
    assert cli.main(["run", str(cfg)]) == cli.EXIT_USAGE
    assert capsys.readouterr().err == f"error: {sim}: repeated class name 'a'\n"
