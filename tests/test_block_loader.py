"""The C reader of dataset CSVs parses data.LOAD_ROWS lines at a time into
arrays sized by a first count of the lines: files of one or many blocks
load bit for bit as the line-by-line parser reads them, a bad entry in a
later block still gets that parser's path:line error, and the file's data
is held once while it loads."""

import re
import tracemalloc

import numpy as np
import pytest

from lcl import data

BLOCK = data.LOAD_ROWS


def write(path, n, d=3, seed=0, edit=None):
    """A saved test split of n rows and d features; edit(lines) may change
    its text lines (metadata and header included) before they are written."""
    rng = np.random.default_rng(seed)
    ds = data.Dataset(features=rng.normal(size=(n, d)), labels=rng.integers(0, 7, size=n),
                      num_classes=7, split="test")
    data.save_dataset(ds, path)
    if edit is not None:
        lines = path.read_text().split("\n")
        edit(lines)
        path.write_bytes("\n".join(lines).encode("utf-8"))
    return ds


def python_arrays(path):
    meta, labels, features = data._parse_python(path)
    return meta, labels.astype(np.int64), features


def assert_fast_equals_python(path):
    with open(path, encoding="utf-8") as fh:
        fast = data._parse_fast(fh)
    assert fast is not None, "the C reader fell back"
    meta, labels, features = python_arrays(path)
    assert fast[0] == meta
    assert fast[1].dtype == np.int64 and fast[1].tobytes() == labels.tobytes()
    assert fast[2].flags.c_contiguous and fast[2].shape == features.shape
    assert fast[2].tobytes() == features.tobytes()
    loaded = data.load_dataset(path)
    assert loaded.features.tobytes() == features.tobytes()
    assert loaded.labels.tobytes() == labels.tobytes()


def test_block_size_is_what_these_tests_assume():
    assert BLOCK == 1024


@pytest.mark.parametrize("n", [1, BLOCK, BLOCK + 1, 3000])
def test_blocks_equal_the_python_parser(tmp_path, n):
    path = tmp_path / "d.csv"
    ds = write(path, n)
    assert_fast_equals_python(path)
    assert data.load_dataset(path).features.tobytes() == ds.features.tobytes()


def test_blank_line_in_a_later_block(tmp_path):
    """Blank lines count as lines but not as rows: the arrays are trimmed to
    the rows read, and the rows after the blank line keep their place."""
    path = tmp_path / "d.csv"
    write(path, 3000, edit=lambda lines: lines.insert(2 + 1500, ""))
    assert_fast_equals_python(path)
    assert data.load_dataset(path).num_examples == 3000


def test_trailing_blank_lines_fill_a_block(tmp_path):
    """The last block holds blank lines only, which numpy's parser reads as
    no rows: the file still takes the C reader."""
    path = tmp_path / "d.csv"
    ds = write(path, BLOCK, edit=lambda lines: lines.extend([""] * 5))
    assert_fast_equals_python(path)
    assert data.load_dataset(path).features.tobytes() == ds.features.tobytes()


def test_crlf_file_of_many_blocks(tmp_path):
    path = tmp_path / "d.csv"
    write(path, 3000)
    path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    assert_fast_equals_python(path)


def test_one_crlf_line_in_a_later_block(tmp_path):
    path = tmp_path / "d.csv"
    write(path, 3000, edit=lambda lines: lines.__setitem__(2 + 2000, lines[2 + 2000] + "\r"))
    assert b"\r\n" in path.read_bytes()
    assert_fast_equals_python(path)


@pytest.mark.parametrize("entry, message", [
    ("abc", r"could not convert string to float: 'abc'"),
    ("nan", "non-finite feature"),
])
def test_bad_entry_in_a_later_block_names_its_line(tmp_path, entry, message):
    """Row 2,500 sits in the third block; the file's line 2 + 2,500."""
    path = tmp_path / "d.csv"

    def spoil(lines):
        label, _, rest = lines[2 + 2499].partition(",")
        lines[2 + 2499] = f"{label},{entry},{rest.partition(',')[2]}"

    write(path, 3000, edit=spoil)
    expected = f"^{re.escape(str(path))}:2502: {message}$"
    with pytest.raises(data.DataError, match=expected):
        data.load_dataset(path)
    with pytest.raises(data.DataError, match=expected):
        data._parse_python(path)


def test_loading_holds_the_data_once(tmp_path):
    """Six blocks of 64 features: the traced peak stays below 1.3 x the final
    arrays, where one structured array and its contiguous copy were ~2 x."""
    path = tmp_path / "d.csv"
    write(path, 6000, d=64)
    tracemalloc.start()
    try:
        ds = data.load_dataset(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    final = ds.features.nbytes + ds.labels.nbytes
    assert peak < 1.3 * final, f"peak {peak / final:.2f} x the final arrays"
