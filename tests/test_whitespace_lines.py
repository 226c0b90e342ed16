"""A dataset line holding only whitespace is a blank line to both parsers, so
numpy's C parser reads a file that has one instead of handing the whole file
to the line-by-line parser."""

import numpy as np

from lcl import data

HEAD = "# classes=5 split=test\nlabel,f1,f2\n"


def test_fast_parser_reads_a_whitespace_line_inside(tmp_path):
    path = tmp_path / "ws.csv"
    path.write_text(HEAD + "0,1.0,2.0\n   \n1,3.0,4.0\n \t\r\n")
    with open(path, encoding="utf-8") as fh:
        meta, labels, features = data._parse_fast(fh)
    assert meta == {"classes": "5", "split": "test"}
    assert labels.tolist() == [0, 1]
    assert features.tolist() == [[1.0, 2.0], [3.0, 4.0]]


def test_fast_parser_reads_a_block_of_whitespace_lines_only(tmp_path):
    path = tmp_path / "ws.csv"
    path.write_text(HEAD + "0,1.0,2.0\n" + "  \n" * data.LOAD_ROWS + "1,3.0,4.0\n")
    with open(path, encoding="utf-8") as fh:
        _, labels, _ = data._parse_fast(fh)
    assert labels.tolist() == [0, 1]


def test_large_file_with_one_whitespace_line_loads_the_same_bytes(tmp_path):
    rng = np.random.default_rng(0)
    ds = data.Dataset(features=rng.normal(size=(20_000, 32)),
                      labels=np.arange(20_000) % 5, num_classes=5, split="train")
    clean, spaced = tmp_path / "clean.csv", tmp_path / "spaced.csv"
    data.save_dataset(ds, clean)
    lines = clean.read_text().splitlines(keepends=True)
    spaced.write_text("".join(lines[:9_000] + ["    \n"] + lines[9_000:]))
    with open(spaced, encoding="utf-8") as fh:
        assert data._parse_fast(fh) is not None
    got, want = data.load_dataset(spaced), data.load_dataset(clean)
    _, py_labels, py_features = data._parse_python(spaced)
    for labels, features in ((want.labels, want.features), (py_labels, py_features)):
        assert got.labels.tobytes() == labels.tobytes()
        assert got.features.tobytes() == features.tobytes()
    assert got.features.tobytes() == ds.features.tobytes()
