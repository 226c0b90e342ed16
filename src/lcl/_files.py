"""File rules of every module: errors name the file, floats print 17 digits."""

import contextlib
import math


@contextlib.contextmanager
def named(path, error, *also):
    """Re-raise a byte that is not UTF-8, or an exception of a type in
    `also`, as `error("<path>: <reason>")`."""
    try:
        yield
    except (UnicodeDecodeError, *also) as exc:
        raise error(f"{path}: {exc}") from exc


def write_rows(fh, rows, sep=",", lead=None):
    """Write each row of the 2-D array rows as a line of sep-separated values
    at 17 significant digits (read back exactly), line i led by lead[i]."""
    row_format = sep.join(["%.17g"] * rows.shape[1]) + "\n"
    # row by row: the whole matrix as Python floats would outweigh the file
    if lead is None:
        fh.writelines(row_format % tuple(row.tolist()) for row in rows)
    else:
        row_format = "%s" + sep + row_format
        fh.writelines(row_format % (first, *row.tolist()) for first, row in zip(lead, rows))


def floats(tokens, where, error):
    """The tokens as floats; `error` names `where` at the first token that is
    not a number or not finite (`nan`, `inf`, or a value that overflows)."""
    try:
        values = [float(x) for x in tokens]
    except ValueError as exc:
        raise error(f"{where}: {exc}") from exc
    bad = [x for x, v in zip(tokens, values) if not math.isfinite(v)]
    if bad:
        raise error(f"{where}: non-finite entry {bad[0]!r}")
    return values
