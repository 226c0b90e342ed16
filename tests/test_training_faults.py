"""A diverging trial ends in ModelError naming its epoch: with weight decay
when warnings are errors and no filter is set, and inside an epoch of more
than LOSS_LOG_ROWS rows, whose losses are logged in chunks."""

import re
import warnings

import numpy as np
import pytest

from lcl import data, experiments as ex, model
from test_loss_blocks import divergence_task, first_non_finite_epoch


@pytest.mark.parametrize("encoding", ["SL", "DML"])
def test_diverging_weight_decay_run_raises_model_error_with_warnings_as_errors(encoding):
    """TestDivergence's lr = 1e30 with lam = 1e-4: the regularizer squares
    weights that overflow, and the trial still ends in ModelError, not in a
    RuntimeWarning, with no warning filter at all."""
    train, test = divergence_task()
    cfg = ex.ExperimentConfig(encoding, epochs=3, batch_size=4, lr=1e30, lam=1e-4, seeds=(0,))
    before = np.geterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(model.ModelError, match=r"^epoch 1/3: non-finite loss$"):
            ex.run_trial(cfg, 0, train, test)
    assert np.geterr() == before  # training leaves numpy's error handling as it was


@pytest.mark.parametrize("lr_decay", [1e3, 1e5])
@pytest.mark.parametrize("encoding", ["SL", "DML"])
def test_divergence_inside_an_epoch_of_several_chunks(monkeypatch, encoding, lr_decay):
    """test_batch_step's 318 training rows in batches of 5: every epoch is
    logged in a chunk of 51 batches, then one of 13. Weight decay blows the
    weights up in a later epoch, whose first chunk already logs a non-finite
    loss; the error names the epoch the per-batch loop names, after exactly
    that many epochs of sgd_step calls."""
    train, _, _ = data.generate_synthetic(data.SyntheticSpec(2, 3, 5, 53, 10, seed=11))
    n = train.num_examples
    cfg = ex.ExperimentConfig(encoding, epochs=6, batch_size=5, lr=0.05, lr_decay=lr_decay,
                              lam=1e-4, seeds=(0,))
    chunk_batches = ex.LOSS_LOG_ROWS // cfg.batch_size
    assert n > ex.LOSS_LOG_ROWS and -(-n // cfg.batch_size) == chunk_batches + 13
    pair = encoding == "DML"
    models = [model.init_params("linear", train.dim, train.num_classes,
                                seed=np.random.default_rng([0, 1 + m])) for m in range(1 + pair)]
    table = np.eye(train.num_classes)

    def shuffle():
        return np.random.default_rng([0, 3])

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the reference loop warns of the overflow
        diverged = first_non_finite_epoch(cfg, models, train.features, train.labels, table,
                                          shuffle())
    assert diverged is not None and 1 < diverged < cfg.epochs
    calls, flushes = [], []
    step, log_losses = model.sgd_step, ex._log_losses

    def recording_log_losses(chunks, targets, b, lam, out):
        log_losses(chunks, targets, b, lam, out)
        flushes.append((out.shape[2], bool(np.isfinite(out).all())))

    monkeypatch.setattr(model, "sgd_step", lambda *args: calls.append(1) or step(*args))
    monkeypatch.setattr(ex, "_log_losses", recording_log_losses)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(model.ModelError,
                           match=f"^{re.escape(f'epoch {diverged}/6: non-finite loss')}$"):
            ex._train(cfg, models, train.features, train.labels, lambda epoch: table,
                      shuffle())
    assert len(calls) == diverged * -(-n // cfg.batch_size) * len(models)
    assert flushes[:-2] == [(chunk_batches, True), (13, True)] * (diverged - 1)
    assert flushes[-2] == (chunk_batches, False)
