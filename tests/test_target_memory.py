"""Training keeps no per-example (n, C) target array: SL, LS, LCL and DML
gather each chunk's targets from a C x C class table by label, and KD holds
only the teacher's (n, C) soft targets."""

import tracemalloc

import pytest

from lcl import data, experiments as ex, similarity as sm

HYPERPARAMS = {"SL": {}, "LS": {}, "LCL": {"epsilon": 0.9}, "KD": {}, "DML": {}}
# peak traced allocation of one run_trial, in units of one (n, C) float array
LIMITS = {"SL": 0.5, "LS": 0.5, "LCL": 0.5, "DML": 0.5, "KD": 2.5}


@pytest.fixture(scope="module")
def task():
    """C = 200 classes and n = 20,000 training rows, so that one (n, C) array
    (32 MB) outweighs everything else a trial allocates."""
    train, test, emb = data.generate_synthetic(data.SyntheticSpec(20, 10, 8, 100, 1, seed=0))
    return train, test, sm.build_cosine_similarity(emb)


@pytest.mark.parametrize("encoding", ex.ENCODINGS)
def test_peak_memory_has_no_per_example_targets(task, encoding):
    train, test, sim = task
    cfg = ex.ExperimentConfig(encoding=encoding, epochs=2, batch_size=256, lam=0.0,
                              seeds=(0,), **HYPERPARAMS[encoding])
    n_by_c = train.num_examples * train.num_classes * 8
    tracemalloc.start()
    try:
        ex.run_trial(cfg, 0, train, test, sim)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < LIMITS[encoding] * n_by_c, f"peak {peak / n_by_c:.2f} x n*C*8 bytes"
