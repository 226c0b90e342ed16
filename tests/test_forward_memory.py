"""A forward pass holds one (n, C) float array: logits take their bias in
place, the softmax overwrites them, and top-k counts keep at most two
(n, C) masks. KD's soft targets are one (n, C) array, and the synthetic
generator adds each split's centers to its noise in place."""

import tracemalloc

import numpy as np
import pytest

from lcl import data, experiments as ex, model, similarity as sm


def traced_peak(call):
    """Peak bytes traced while call() runs, and its result."""
    tracemalloc.start()
    try:
        out = call()
        return tracemalloc.get_traced_memory()[1], out
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("architecture", model.ARCHITECTURES)
def test_evaluate_holds_one_prediction_array(architecture):
    """C = 200 and 5,000 test rows of d = 8, so that one (n, C) float array
    (8 MB) outweighs the features, the hidden layer and the bool masks."""
    rng = np.random.default_rng(0)
    n, d, c = 5000, 8, 200
    test = data.Dataset(features=rng.normal(size=(n, d)), labels=rng.integers(0, c, size=n),
                        num_classes=c, split="test")
    params = model.init_params(architecture, d, c, hidden=16, seed=1)
    peak, _ = traced_peak(lambda: ex._evaluate(params, test))
    assert peak < 1.5 * n * c * 8, f"peak {peak / (n * c * 8):.2f} x n*C*8 bytes"


def test_kd_trial_holds_one_soft_target_array():
    """KD's soft targets are computed in place: the trial peaks near one
    (n, C) array, where logits, logits / T and their softmax were three."""
    train, test, emb = data.generate_synthetic(data.SyntheticSpec(20, 10, 8, 100, 1, seed=0))
    sim = sm.build_cosine_similarity(emb)
    cfg = ex.ExperimentConfig(encoding="KD", epochs=2, batch_size=256, lam=0.0, seeds=(0,))
    n_by_c = train.num_examples * train.num_classes * 8
    peak, _ = traced_peak(lambda: ex.run_trial(cfg, 0, train, test, sim))
    assert peak < 1.5 * n_by_c, f"peak {peak / n_by_c:.2f} x n*C*8 bytes"


@pytest.mark.parametrize("spec", [data.SyntheticSpec(4, 5, 64, 500, 1, seed=0),
                                  data.SyntheticSpec(20, 10, 8, 100, 1, seed=3)])
def test_generate_synthetic_holds_one_feature_array(spec):
    """One test row per class, so that the training split's (n, d) features
    dominate; their centers are added to the noise in place."""
    peak, (train, _, _) = traced_peak(lambda: data.generate_synthetic(spec))
    assert peak < 1.5 * train.features.nbytes, \
        f"peak {peak / train.features.nbytes:.2f} x n*d*8 bytes"


def test_softmax_without_out_leaves_logits_unchanged():
    z = np.random.default_rng(2).normal(size=(7, 5)) * 30.0
    before = z.copy()
    p = model._softmax(z)
    assert p is not z and z.tobytes() == before.tobytes()
    assert model._softmax(z, out=z) is z and z.tobytes() == p.tobytes()
