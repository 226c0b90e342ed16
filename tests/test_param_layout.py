"""One parameter type in lcl.model: LAYOUT names each architecture's arrays,
gradients share ClassifierParams, and init, gradient, step and checkpoints
follow the layout bit for bit."""

import hashlib

import numpy as np
import pytest

from lcl import model

# sha256 over init_params(arch, 5, 3, hidden=4, seed=11)'s arrays in layout
# order, as little-endian float64 bytes; recorded from the per-architecture
# init_params this one replaced
INIT_SHA256 = {
    "linear": "524896c0d4233e5022b79f5fa355a9f3780c671be1dc5e055b0166eae49c1d89",
    "mlp1": "07d17ae14c00fae71d6f64b1b8f84ec0000b8e10d061dd4bd279ef5489a51be2",
}
INIT_SHAPES = {"linear": [(5, 3), (3,)], "mlp1": [(5, 4), (4,), (4, 3), (3,)]}


def digest(params):
    h = hashlib.sha256()
    for arr in params.arrays():
        h.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    return h.hexdigest()


def instance(architecture, seed=0, n=6, d=5, c=3, hidden=4):
    rng = np.random.default_rng(seed)
    params = model.init_params(architecture, d, c, hidden=hidden, seed=seed)
    # random biases, so that the bias terms of the formulas are exercised
    params = model.ClassifierParams(architecture, **{
        name: arr if name.startswith("W") else rng.normal(size=arr.shape)
        for name, arr in zip(model.LAYOUT[architecture], params.arrays())})
    xs = rng.normal(size=(n, d))
    err = rng.normal(size=(n, c))
    return params, xs, err


def test_layout_names_every_architecture():
    assert model.ARCHITECTURES == tuple(model.LAYOUT) == ("linear", "mlp1")
    assert model.GradientBundle is model.ClassifierParams
    for architecture, names in model.LAYOUT.items():
        params = model.init_params(architecture, 5, 3, hidden=4, seed=0)
        got = params.arrays()
        assert len(got) == len(names)
        assert all(arr is getattr(params, name) for arr, name in zip(got, names))


@pytest.mark.parametrize("architecture", ["linear", "mlp1"])
def test_init_params_bytes_unchanged(architecture):
    params = model.init_params(architecture, 5, 3, hidden=4, seed=11)
    assert [arr.shape for arr in params.arrays()] == INIT_SHAPES[architecture]
    assert digest(params) == INIT_SHA256[architecture]
    # a Generator seed draws the same stream as its integer seed
    again = model.init_params(architecture, 5, 3, hidden=4,
                              seed=np.random.default_rng(11))
    assert digest(again) == INIT_SHA256[architecture]


def test_missing_arrays_are_named():
    with pytest.raises(model.ModelError, match="mlp1 requires W1, b1"):
        model.ClassifierParams("mlp1", W_out=np.zeros((2, 2)), b_out=np.zeros(2))
    with pytest.raises(model.ModelError, match="mlp1 requires b1"):
        model.ClassifierParams("mlp1", W_out=np.zeros((2, 2)), b_out=np.zeros(2),
                               W1=np.zeros((3, 2)))


@pytest.mark.parametrize("lam", [0.0, 0.3])
def test_linear_gradient_is_its_formula(lam):
    params, xs, err = instance("linear", seed=1)
    g = model.gradient_from_arrays(params, xs, err, lam)
    e = err / xs.shape[0]
    assert isinstance(g, model.ClassifierParams) and g.architecture == "linear"
    assert np.array_equal(g.W_out, xs.T @ e + lam * params.W_out)
    assert np.array_equal(g.b_out, e.sum(axis=0))
    assert g.W1 is None and g.b1 is None
    assert len(g.arrays()) == 2


@pytest.mark.parametrize("lam", [0.0, 0.3])
def test_mlp1_gradient_is_its_formula(lam):
    params, xs, err = instance("mlp1", seed=2)
    g = model.gradient_from_arrays(params, xs, err, lam)
    e = err / xs.shape[0]
    pre = xs @ params.W1 + params.b1
    back = (e @ params.W_out.T) * (pre > 0.0)
    assert isinstance(g, model.ClassifierParams) and g.architecture == "mlp1"
    assert np.array_equal(g.W1, xs.T @ back + lam * params.W1)
    assert np.array_equal(g.b1, back.sum(axis=0))
    assert np.array_equal(g.W_out, np.maximum(pre, 0.0).T @ e + lam * params.W_out)
    assert np.array_equal(g.b_out, e.sum(axis=0))


@pytest.mark.parametrize("architecture", ["linear", "mlp1"])
def test_sgd_step_is_its_formula(architecture):
    params, xs, err = instance(architecture, seed=3)
    grads = model.gradient_from_arrays(params, xs, err, 0.1)
    out = model.sgd_step(params, grads, 0.05)
    assert isinstance(out, model.ClassifierParams)
    assert out.architecture == architecture
    assert len(out.arrays()) == len(model.LAYOUT[architecture])
    for name in model.LAYOUT[architecture]:
        want = getattr(params, name) - 0.05 * getattr(grads, name)
        assert np.array_equal(getattr(out, name), want)


@pytest.mark.parametrize("architecture", ["linear", "mlp1"])
def test_checkpoint_follows_layout(architecture, tmp_path):
    params, _, _ = instance(architecture, seed=4)
    path = tmp_path / "model.ckpt"
    model.save_checkpoint(params, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[:2] == [model.CHECKPOINT_MAGIC, architecture]
    headers = lines[2::2]
    assert [h.split()[0] for h in headers] == list(model.LAYOUT[architecture])
    assert [tuple(int(s) for s in h.split()[1:]) for h in headers] == \
        [arr.shape for arr in params.arrays()]
    back = model.load_checkpoint(path)
    assert back.architecture == architecture
    assert digest(back) == digest(params)
