"""The one rule for errors met while reading a file: they name the file."""

import contextlib


@contextlib.contextmanager
def named(path, error, *also):
    """Re-raise a byte that is not UTF-8, or an exception of a type in
    `also`, as `error("<path>: <reason>")`."""
    try:
        yield
    except (UnicodeDecodeError, *also) as exc:
        raise error(f"{path}: {exc}") from exc
