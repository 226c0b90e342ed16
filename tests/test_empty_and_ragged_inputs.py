"""A similarity needs at least one class, and a ragged embedding row is named
by its line: each is refused where it enters, and `lcl build-sim` and `lcl
verify` exit 2 on it. load_similarity keeps one (C, C) array and nothing of
its size besides while it reads and checks a file."""

import tracemalloc

import numpy as np
import pytest

from lcl import cli, similarity as sm


def one_error(capsys, argv):
    assert cli.main([str(a) for a in argv]) == cli.EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    return err


def test_hierarchy_without_leaves_is_refused(tmp_path, capsys):
    path = tmp_path / "h.txt"
    path.write_text("root a\n@leaves\n")
    with pytest.raises(sm.SimilarityError, match=f"^{path}: no leaf classes$"):
        sm.load_hierarchy(path)
    err = one_error(capsys, ["build-sim", "--kind", "hierarchy", "--in", path,
                             "--out", tmp_path / "sim.csv"])
    assert err == f"error: {path}: no leaf classes\n"
    assert not (tmp_path / "sim.csv").exists()


def test_similarity_matrix_of_zero_classes_is_refused():
    with pytest.raises(sm.SimilarityError, match="needs at least one class"):
        sm.SimilarityMatrix(entries=np.empty((0, 0)), class_names=(), source="t")


@pytest.mark.parametrize("text", ["", "\n", "\n1.0\n"])
def test_header_without_names_is_an_empty_file(tmp_path, capsys, text):
    path = tmp_path / "sim.csv"
    path.write_text(text)
    with pytest.raises(sm.SimilarityFileError, match=f"^{path}: empty similarity file$"):
        sm.load_similarity(path)
    err = one_error(capsys, ["verify", "--sim", path, "--epsilon", "0.9", "--horizon", "2"])
    assert err == f"error: {path}: empty similarity file\n"


def test_one_class_similarity_loads(tmp_path):
    path = tmp_path / "sim.csv"
    path.write_text("a\n1.0\n")
    assert np.array_equal(sm.load_similarity(path).entries, [[1.0]])


@pytest.mark.parametrize("text, line, width, first", [
    ("cat 1 2\ndog 3\n", 2, 1, 2),
    ("# c\ncat 1 2\n\ndog 3 4\nemu 5 6 7\nfox 8\n", 5, 3, 2)])
def test_ragged_embedding_row_names_its_line(tmp_path, capsys, text, line, width, first):
    path = tmp_path / "emb.txt"
    path.write_text(text)
    message = f"{path}:{line}: {width} values, expected {first}"
    with pytest.raises(sm.SimilarityError, match=f"^{message}$"):
        sm.load_embeddings(path)
    err = one_error(capsys, ["build-sim", "--kind", "embedding", "--in", path,
                             "--out", tmp_path / "sim.csv"])
    assert err == f"error: {message}\n"


def test_off_diagonal_one_is_found_by_count():
    m = np.full((3, 3), 0.5)
    np.fill_diagonal(m, 1.0)
    sm.SimilarityMatrix(entries=m, class_names="abc", source="t")
    m[0, 2] = m[2, 0] = 1.0
    with pytest.raises(sm.SimilarityError, match="no strict dominance"):
        sm.SimilarityMatrix(entries=m, class_names="abc", source="t")


@pytest.mark.parametrize("extra, message", [
    ("", None),
    ("0.5,0.5,0.5\n", "expected 3 rows, got 4"),
    ("0.5,x,0.5\n", ":5: could not convert"),
    ("0.5,0.5\n", ":5: 2 entries, expected 3")])
def test_rows_past_c_are_parsed_checked_and_counted(tmp_path, extra, message):
    path = tmp_path / "sim.csv"
    path.write_text("a,b,c\n1.0,0.25,0.5\n0.25,1.0,0.0\n0.5,0.0,1.0\n" + extra)
    if message is None:
        assert np.array_equal(sm.load_similarity(path).entries,
                              [[1.0, 0.25, 0.5], [0.25, 1.0, 0.0], [0.5, 0.0, 1.0]])
    else:
        with pytest.raises(sm.SimilarityFileError, match=message):
            sm.load_similarity(path)


def test_load_similarity_holds_one_matrix(tmp_path):
    c = 300
    rng = np.random.default_rng(3)
    vecs = np.abs(rng.normal(size=(c, 8))) + 0.1
    sim = sm.build_cosine_similarity(sm.EmbeddingTable([f"c{i}" for i in range(c)], vecs))
    path = tmp_path / "sim.csv"
    sm.save_similarity(sim, path)
    tracemalloc.start()
    try:
        back = sm.load_similarity(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(back.entries, sim.entries)
    # the matrix, plus a C x C boolean mask (1/8 of it) and one row's text
    # (1.3x here); rows held as lists of Python floats took 8x
    assert peak < 2 * sim.entries.nbytes
