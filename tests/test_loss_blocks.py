"""Losses logged per block of training rows across epoch boundaries: an
epoch of at most LOSS_LOG_ROWS rows waits for the epochs after it while
their rows fit, the block's shuffles come from one draw, and a diverging
trial still stops at the epoch that diverged. Per-trial results must stay
bitwise those of test_batch_step's per-batch loop."""

import re
import warnings

import numpy as np
import pytest

from lcl import data, experiments as ex, model, similarity as sm
from test_batch_step import HYPERPARAMS, digest, per_batch_train, rows


class RecordingRng:
    """A generator that keeps a copy of every array its methods return."""

    def __init__(self, rng):
        self.rng, self.draws = rng, []

    def __getattr__(self, name):
        method = getattr(self.rng, name)

        def call(*args, **kwargs):
            out = method(*args, **kwargs)
            self.draws.append(np.array(out))
            return out
        return call


def epochs_around_the_block(n):
    """One epoch, and epoch counts that are not a multiple of the block."""
    per_block = max(1, ex.LOSS_LOG_ROWS // n)
    return sorted({1, per_block + 1, 2 * per_block + 3})


@pytest.mark.parametrize("pair", [False, True])
@pytest.mark.parametrize("n", [1, 7, 20, 2000])
def test_block_shuffles_equal_a_permutation_per_epoch(n, pair):
    """The orders _train draws are those of one permutation(n) per epoch, and
    the generator's next draw is the same after them; a DML pair shares one
    stream."""
    c, d = 3, 2
    rng = np.random.default_rng(n)
    xs = rng.normal(size=(n, d))
    labels = np.arange(n) % c
    for epochs in epochs_around_the_block(n):
        cfg = ex.ExperimentConfig("DML" if pair else "SL", epochs=epochs, batch_size=4,
                                  lr=0.05, seeds=(0,))
        models = [model.init_params("linear", d, c, seed=m) for m in range(1 + pair)]
        shuffle = RecordingRng(np.random.default_rng([n, 3]))
        ex._train(cfg, models, xs, labels, lambda epoch: np.eye(c), shuffle)
        reference = np.random.default_rng([n, 3])
        want = np.stack([reference.permutation(n) for _ in range(epochs)])
        got = np.concatenate([draw.ravel() for draw in shuffle.draws]).reshape(-1, n)
        assert got.dtype == want.dtype and np.array_equal(got, want)
        assert shuffle.rng.integers(2 ** 62, size=4).tolist() == \
            reference.integers(2 ** 62, size=4).tolist()


@pytest.fixture(scope="module")
def task():
    """24 training rows, far fewer than LOSS_LOG_ROWS: a block spans 10 epochs."""
    spec = data.SyntheticSpec(2, 3, 5, 4, 10, seed=13)
    train, test, emb = data.generate_synthetic(spec)
    assert train.num_examples == 24 and ex.LOSS_LOG_ROWS // 24 == 10
    return train, test, sm.build_cosine_similarity(emb)


def trial(task, encoding, architecture, lam, batch_size, dr=1.0, train_loop=None,
          monkeypatch=None):
    train, test, sim = task
    cfg = ex.ExperimentConfig(encoding=encoding, dr=dr, epochs=23, batch_size=batch_size,
                              lr=0.05, lr_decay=0.95, lam=lam, architecture=architecture,
                              hidden=4, seeds=(2,), **HYPERPARAMS[encoding])
    if train_loop is not None:
        monkeypatch.setattr(ex, "_train", train_loop)
    return ex.run_trial(cfg, 2, train, test, sim)


@pytest.mark.parametrize("batch_size", [1, 4, 5, ex.LOSS_LOG_ROWS, ex.LOSS_LOG_ROWS + 1])
@pytest.mark.parametrize("lam", [0.0, 1e-3])
@pytest.mark.parametrize("architecture", ["linear", "mlp1"])
@pytest.mark.parametrize("encoding", ex.ENCODINGS)
def test_blocks_across_epochs_are_bitwise_the_per_batch_loop(task, monkeypatch, encoding,
                                                             architecture, lam, batch_size):
    """23 epochs: two whole blocks and a short one. One-row batches give 24
    batch losses an epoch to sum, batches of 4 divide the 24 rows, batches of
    5 leave a short last batch, and the two batch sizes at the block hold the
    whole epoch."""
    got = trial(task, encoding, architecture, lam, batch_size)
    want = trial(task, encoding, architecture, lam, batch_size, train_loop=per_batch_train,
                 monkeypatch=monkeypatch)
    for g, w in zip(rows(got), rows(want)):
        assert g.loss_history == w.loss_history
        assert (g.top1, g.top5, g.final_loss) == (w.top1, w.top5, w.final_loss)
    assert digest(got) == digest(want)


@pytest.mark.parametrize("dr", [0.3, 0.6])
@pytest.mark.parametrize("encoding", ["SL", "DML"])
def test_subsampled_epochs_are_bitwise_the_per_batch_loop(task, monkeypatch, encoding, dr):
    """Fewer rows per epoch (8 and 16 after subsampling), so more epochs per block."""
    got = trial(task, encoding, "linear", 1e-3, 5, dr)
    want = trial(task, encoding, "linear", 1e-3, 5, dr, train_loop=per_batch_train,
                 monkeypatch=monkeypatch)
    assert digest(got) == digest(want)


def divergence_task():
    """TestDivergence's task in test_boundary_checks: 24 training rows, 4 classes."""
    spec = data.SyntheticSpec(2, 2, 6, 8, 10, intra_spread=0.5, inter_spread=2.0,
                              noise_sigma=0.5, seed=0)
    train, test, _ = data.generate_synthetic(spec)
    return train, test


def first_non_finite_epoch(cfg, models, xs, labels, table, shuffle_rng):
    """The 1-based epoch whose mean loss, computed batch by batch before each
    step as the per-batch loop does, is first non-finite; None if none is."""
    models, n, b = list(models), xs.shape[0], cfg.batch_size
    for epoch in range(cfg.epochs):
        lr = cfg.lr * cfg.lr_decay ** epoch
        order = shuffle_rng.permutation(n)
        losses = [[] for _ in models]
        for start in range(0, n, b):
            idx = order[start:start + b]
            xb, tb = xs[idx], table[labels[idx]]
            outs = [model.forward_batch(params, xb) for params in models]
            for m, (pred, hidden) in enumerate(outs):
                ce = -np.sum(tb * np.log(np.maximum(pred, model.PROB_FLOOR)), axis=1)
                err = pred - tb
                if len(models) == 2:
                    peer = outs[1 - m][0]
                    ce, err = ce + model.kl_rows(peer, pred), err + (pred - peer)
                losses[m].append(np.mean(ce) + cfg.lam * model.regularizer(models[m]))
                grads = model.gradient_from_arrays(models[m], xb, err, cfg.lam, hidden)
                models[m] = model.sgd_step(models[m], grads, lr)
        if not np.isfinite(np.mean(losses, axis=1)).all():
            return epoch + 1
    return None


@pytest.mark.parametrize("lr, lr_decay", [
    (1e30, 1.0),  # TestDivergence's in test_boundary_checks
    (0.05, 1e12),  # finite epochs wait in the block before the one that diverges
])
@pytest.mark.parametrize("encoding", ["SL", "DML"])
def test_divergence_inside_a_block_stops_at_its_epoch(monkeypatch, encoding, lr, lr_decay):
    """A run that diverges inside a block raises ModelError naming the epoch
    whose loss is first non-finite, after exactly that many epochs of
    sgd_step calls. Weight decay (lam 1e-4) blows the weights up. Warnings
    are errors, but for overflow, which the regularizer warns of as they
    grow, as in TestDivergence."""
    train, test = divergence_task()
    cfg = ex.ExperimentConfig(encoding, epochs=8, batch_size=4, lr=lr, lr_decay=lr_decay,
                              lam=1e-4, seeds=(0,))
    assert train.num_examples * cfg.epochs <= ex.LOSS_LOG_ROWS  # all in one block
    pair = encoding == "DML"
    models = [model.init_params("linear", train.dim, train.num_classes,
                                seed=np.random.default_rng([0, 1 + m])) for m in range(1 + pair)]
    table = np.eye(train.num_classes)

    def shuffle():
        return np.random.default_rng([0, 3])

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the reference loop may warn on the overflow
        diverged = first_non_finite_epoch(cfg, models, train.features, train.labels, table,
                                          shuffle())
    assert diverged is not None and (diverged > 1) == (lr_decay > 1.0)
    calls = []
    step = model.sgd_step
    monkeypatch.setattr(model, "sgd_step", lambda *args: calls.append(1) or step(*args))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        warnings.filterwarnings("ignore", "overflow", RuntimeWarning)
        with pytest.raises(model.ModelError,
                           match=f"^{re.escape(f'epoch {diverged}/8: non-finite loss')}$"):
            ex._train(cfg, models, train.features, train.labels, lambda epoch: table,
                      shuffle())
    assert len(calls) == diverged * (train.num_examples // cfg.batch_size) * len(models)
