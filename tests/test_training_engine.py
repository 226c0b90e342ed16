"""The single SGD loop: per-trial parity with the per-encoding loops it
replaced, the batched DML mimicry term, and the DML pair's rows."""

import numpy as np
import pytest

from lcl import data, experiments as ex, model, similarity as sm

PARITY_TOL = 1e-10

# (top1, top5, final_loss, sum |params|) per (architecture, encoding, row),
# recorded from the earlier per-encoding training loops on the task below.
REFERENCE = {
    ("linear", "SL", "SL"): (0.475, 1.0, 1.6069687690613594, 14.696063091080411),
    ("linear", "LS", "LS(alpha=0.2)"): (0.4375, 0.975, 1.8284224116423544, 14.348313744449293),
    ("linear", "LCL", "LCL(eps=0.9)"): (0.4, 0.9875, 1.7542354481172369, 14.423840839279363),
    ("linear", "KD", "KD(T=2)"): (0.1, 0.7375, 2.1384259673866794, 13.444850729376137),
    ("linear", "DML", "DML1"): (0.475, 1.0, 1.748794409957786, 13.822762320100567),
    ("linear", "DML", "DML2"): (0.325, 0.9875, 1.8054429326671582, 12.7814818872115),
    ("mlp1", "SL", "SL"): (0.4625, 1.0, 1.5157498272166026, 35.83959407217232),
    ("mlp1", "LS", "LS(alpha=0.2)"): (0.475, 1.0, 1.7389853067702896, 34.75346527313133),
    ("mlp1", "LCL", "LCL(eps=0.9)"): (0.5, 1.0, 1.6402397288182307, 34.92001093388171),
    ("mlp1", "KD", "KD(T=2)"): (0.25, 0.7875, 2.0891753317041197, 32.6398633076226),
    ("mlp1", "DML", "DML1"): (0.475, 1.0, 1.7226762122176724, 34.31644913836284),
    ("mlp1", "DML", "DML2"): (0.4, 0.975, 1.9270076269305578, 33.82901900816418),
}
HYPERPARAMS = {"SL": {}, "LS": {"alpha": 0.2}, "LCL": {"epsilon": 0.9},
               "KD": {"kd_temperature": 2.0}, "DML": {}}


@pytest.fixture(scope="module")
def task():
    spec = data.SyntheticSpec(2, 4, 6, 8, 10, intra_spread=0.5,
                              inter_spread=2.0, noise_sigma=0.5, seed=0)
    train, test, emb = data.generate_synthetic(spec)
    return train, test, sm.build_cosine_similarity(emb)


def trial(task, encoding, architecture="linear"):
    train, test, sim = task
    cfg = ex.ExperimentConfig(encoding=encoding, epochs=4, batch_size=4, lr=0.05,
                              lr_decay=0.9, architecture=architecture, hidden=8,
                              seeds=(1,), dr=0.75, **HYPERPARAMS[encoding])
    return ex.run_trial(cfg, 1, train, test, sim)


@pytest.mark.parametrize("architecture", ["linear", "mlp1"])
@pytest.mark.parametrize("encoding", ex.ENCODINGS)
def test_parity_with_per_encoding_loops(task, encoding, architecture):
    r = trial(task, encoding, architecture)
    rows = [r] if r.companion is None else [r, r.companion]
    for row in rows:
        got = (row.top1, row.top5, row.final_loss,
               sum(float(np.abs(a).sum()) for a in row.final_params.arrays()))
        want = REFERENCE[(architecture, encoding, row.method_label)]
        assert got == pytest.approx(want, abs=PARITY_TOL, rel=0.0)


def test_batched_kl_matches_per_row():
    rng = np.random.default_rng(0)
    p = rng.dirichlet(np.ones(6), size=20)
    q = rng.dirichlet(np.ones(6), size=20)
    p[0] = np.eye(6)[2]  # zero entries contribute nothing
    q[1, 3] = 0.0  # floored at PROB_FLOOR
    want = [model.kl_divergence(a, b) for a, b in zip(p, q)]
    assert model.kl_rows(p, q) == pytest.approx(want, abs=1e-12, rel=0.0)


def test_dml_rows_share_the_pair_wall_time(task):
    r = trial(task, "DML")
    assert r.wall_ms > 0.0
    assert r.companion.wall_ms == r.wall_ms


def test_gradient_takes_the_logit_error():
    rng = np.random.default_rng(1)
    for arch in ("linear", "mlp1"):
        params = model.init_params(arch, 5, 4, hidden=6, seed=2)
        xs = rng.normal(size=(3, 5))
        ts = rng.dirichlet(np.ones(4), size=3)
        direct = model.gradient_from_arrays(params, xs, model.forward(params, xs) - ts, 0.1)
        batch = model.gradient(params, list(zip(xs, ts)), 0.1)
        for a, b in zip(direct.arrays(), batch.arrays()):
            assert np.array_equal(a, b)
