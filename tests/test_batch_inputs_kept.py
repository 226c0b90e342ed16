"""The batch step's temporaries are its own: forward_batch,
gradient_from_arrays and sgd_step leave every array they are given byte for
byte as it was, in C-ordered, F-ordered and strided layouts, and none of
their results shares memory with an input."""

import numpy as np
import pytest

from lcl import model
from test_fast_paths import SHAPES, laid_out


def snapshot(arrays):
    return [(a.shape, a.strides, a.tobytes()) for a in arrays]


@pytest.mark.parametrize("lam", [0.0, 1e-3])
@pytest.mark.parametrize("layout", ["C", "F", "sliced"])
@pytest.mark.parametrize("architecture", ["linear", "mlp1"])
def test_batch_step_keeps_its_inputs(architecture, layout, lam):
    rng = np.random.default_rng(29)
    for n, d, h, c in SHAPES:
        params = model.init_params(architecture, d, c, hidden=h, seed=rng)
        params = model.ClassifierParams(architecture, **{
            name: laid_out(arr * 40.0, layout) if arr.ndim == 2 else arr + 0.5
            for name, arr in zip(model.LAYOUT[architecture], params.arrays())})
        xs = laid_out(rng.normal(size=(n, d)), layout)
        err = laid_out(rng.normal(size=(n, c)), layout)
        kept = snapshot(params.arrays() + [xs, err])

        pred, hidden = model.forward_batch(params, xs)
        layers = [] if hidden is None else list(hidden)
        kept_layers = snapshot(layers)
        for recompute in (False, True):  # the hidden layer passed in, and recomputed
            grads = model.gradient_from_arrays(params, xs, err, lam,
                                               None if recompute else hidden)
            kept_grads = snapshot(grads.arrays())
            stepped = model.sgd_step(params, grads, 0.1)
            model.regularizer(params)
            assert snapshot(grads.arrays()) == kept_grads
            assert snapshot(params.arrays() + [xs, err]) == kept
            assert snapshot(layers) == kept_layers
            inputs = params.arrays() + [xs, err] + layers
            for out in [pred] + grads.arrays() + stepped.arrays():
                assert not any(np.shares_memory(out, a) for a in inputs)
            for new in stepped.arrays():
                assert not any(np.shares_memory(new, g) for g in grads.arrays())
