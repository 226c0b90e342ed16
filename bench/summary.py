"""Order statistics and closed-form work counts used by the benchmark."""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

# Highest percentiles considered for a tail figure, best first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)


def percentile(values, p):
    """Linear-interpolation percentile (numpy's default method), p in [0, 100]."""
    if not values:
        raise ValueError("percentile of no values")
    if not 0.0 <= p <= 100.0:
        raise ValueError("p must lie in [0, 100]")
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(n):
    """The highest percentile in TAIL_PERCENTILES with at least ten of n
    samples beyond it, or None when n is too small for any."""
    for p in TAIL_PERCENTILES:
        if n * (1.0 - p / 100.0) >= 10.0 - 1e-9:
            return p
    return None


@dataclass(frozen=True)
class Summary:
    n: int
    median: float
    q1: float
    q3: float
    tail_p: float | None
    tail: float | None


def summarise(values):
    """Median, quartiles as statistics.quantiles(n=4) gives them, and the
    tail percentile, with the sample count."""
    values = list(values)
    if not values:
        raise ValueError("summary of no values")
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    p = tail_percentile(len(values))
    return Summary(n=len(values), median=statistics.median(values), q1=q1, q3=q3,
                   tail_p=p, tail=None if p is None else percentile(values, p))


def subsample_size(class_counts, dr):
    """Rows kept by lcl.data.subsample: ceil(dr * n_c) for every class."""
    if dr == 1.0:
        return sum(class_counts)
    return sum(math.ceil(dr * n) for n in class_counts)


def expected_batches(trials):
    """SGD batches of a grid in closed form: sum of epochs * ceil(n_sub / b)
    over trials given as (encoding, epochs, n_sub, batch_size). A KD trial
    trains a teacher and then a student; a DML pair steps together, so it
    counts once."""
    total = 0
    for encoding, epochs, n_sub, batch_size in trials:
        models = 2 if encoding == "KD" else 1
        total += models * epochs * math.ceil(n_sub / batch_size)
    return total
