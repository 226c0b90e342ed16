"""The SGD batch step: batches are slices of one gather, backpropagation
reuses the forward pass's hidden layer, and the loss log is computed in row
chunks after the steps. Per-trial results must stay bitwise those of the
per-batch loop that came before, kept below as `per_batch_train`."""

import hashlib

import numpy as np
import pytest

from lcl import data, experiments as ex, model, similarity as sm

HYPERPARAMS = {"SL": {}, "LS": {"alpha": 0.2}, "LCL": {"epsilon": 0.9},
               "KD": {"kd_temperature": 2.0}, "DML": {}}

# (top1, top5, loss_history, sum |params|) per (architecture, lam, row) at
# batch size 5, recorded from the per-batch loop on the task below. The
# bitwise checks run against per_batch_train; these figures pin that loop
# itself, to a tolerance that leaves room for another BLAS's rounding.
RECORDED_TOL = 1e-10
RECORDED = {
    ('linear', 0.0, 'SL'): (0.9833333333333333, 1.0,
        (1.189607423795945, 0.457252050940649, 0.3426580649279334),
        15.115774233326345),
    ('linear', 0.0, 'LS(alpha=0.2)'): (0.9, 1.0,
        (1.5939277858885936, 1.065712966622376, 1.0020097975476345),
        11.787301750431253),
    ('linear', 0.0, 'LCL(eps=0.9)'): (0.8666666666666667, 1.0,
        (1.9881032288169778, 1.3477403496925975, 1.1140772159363377),
        8.520491190875703),
    ('linear', 0.0, 'KD(T=2)'): (0.9, 1.0,
        (1.5560752532028872, 1.1997351664056208, 1.166722004129107),
        8.914172270526652),
    ('linear', 0.0, 'DML1'): (0.9833333333333333, 1.0,
        (1.4647468932945453, 0.4879201792003469, 0.3539568967044636),
        14.846254031026522),
    ('linear', 0.0, 'DML2'): (0.9833333333333333, 1.0,
        (1.398092255038032, 0.48981811612951254, 0.3564127808754014),
        15.153933040770795),
    ('linear', 0.001, 'SL'): (0.9833333333333333, 1.0,
        (1.192669543760599, 0.46237057545313187, 0.3493183922978756),
        15.036652171815595),
    ('linear', 0.001, 'LS(alpha=0.2)'): (0.9, 1.0,
        (1.596260878691088, 1.0686677460038134, 1.0054365124086575),
        11.725483741700574),
    ('linear', 0.001, 'LCL(eps=0.9)'): (0.8666666666666667, 1.0,
        (1.9894775717096247, 1.3489258629645136, 1.1157655603697663),
        8.475067437943492),
    ('linear', 0.001, 'KD(T=2)'): (0.9, 1.0,
        (1.5600374868069744, 1.2038910952637392, 1.1706878520917714),
        8.837404572068117),
    ('linear', 0.001, 'DML1'): (0.9833333333333333, 1.0,
        (1.4673683266207953, 0.4925815792216458, 0.360255329088338),
        14.77713258629861),
    ('linear', 0.001, 'DML2'): (0.9833333333333333, 1.0,
        (1.4004096765782132, 0.494197455743969, 0.36236863793649965),
        15.07904516048573),
    ('mlp1', 0.0, 'SL'): (0.8, 1.0,
        (1.2729105029076937, 0.8037740176064467, 0.566957760576025),
        30.017972385836952),
    ('mlp1', 0.0, 'LS(alpha=0.2)'): (0.8333333333333334, 1.0,
        (1.5169713222153276, 1.2377573543034093, 1.1259186179220624),
        26.07314894481461),
    ('mlp1', 0.0, 'LCL(eps=0.9)'): (0.7333333333333333, 1.0,
        (1.6804369218945017, 1.4107025719400372, 1.2866263229939632),
        24.007665028964496),
    ('mlp1', 0.0, 'KD(T=2)'): (0.6833333333333333, 1.0,
        (1.4976435941470134, 1.304984423589068, 1.279918934453792),
        22.32436652020631),
    ('mlp1', 0.0, 'DML1'): (0.8, 1.0,
        (1.4309980790682937, 0.8620468354148941, 0.7156702875494458),
        29.156794758735433),
    ('mlp1', 0.0, 'DML2'): (0.8833333333333333, 1.0,
        (1.3686820694486983, 0.830028641519061, 0.7007098643277553),
        28.36423144359119),
    ('mlp1', 0.001, 'SL'): (0.8, 1.0,
        (1.278640403342492, 0.8118815502094525, 0.5784061282756128),
        29.84896935936421),
    ('mlp1', 0.001, 'LS(alpha=0.2)'): (0.8333333333333334, 1.0,
        (1.5224299772692433, 1.244566165632814, 1.1337758421048854),
        25.909856492212985),
    ('mlp1', 0.001, 'LCL(eps=0.9)'): (0.75, 1.0,
        (1.6853783616674856, 1.415926781402581, 1.2925719724956362),
        23.838967873112587),
    ('mlp1', 0.001, 'KD(T=2)'): (0.6833333333333333, 1.0,
        (1.5051537494655167, 1.313825443977751, 1.28906464661155),
        22.151821912203545),
    ('mlp1', 0.001, 'DML1'): (0.8166666666666667, 1.0,
        (1.4365723274422681, 0.8698541309934926, 0.7249377250870259),
        29.00387072675197),
    ('mlp1', 0.001, 'DML2'): (0.8833333333333333, 1.0,
        (1.3737762098454815, 0.8373282657423577, 0.7090626777072606),
        28.208348044791123),
}


@pytest.fixture(scope="module")
def task():
    """318 training rows: more than LOSS_LOG_ROWS, and batches of 5 leave a
    short last batch of 3."""
    spec = data.SyntheticSpec(2, 3, 5, 53, 10, seed=11)
    train, test, emb = data.generate_synthetic(spec)
    assert train.num_examples == 318 > ex.LOSS_LOG_ROWS
    return train, test, sm.build_cosine_similarity(emb)


def per_batch_train(config, models, xs, index, table_at, shuffle_rng):
    """The training loop as it was before the batch step was reworked: two
    fancy-index gathers, a checked forward pass, the loss and a gradient that
    recomputes the hidden layer on every batch."""
    models = list(models)
    histories = [[] for _ in models]
    n = xs.shape[0]
    for epoch in range(config.epochs):
        lr = config.lr * config.lr_decay ** epoch
        targets = table_at(epoch)[index]
        order = shuffle_rng.permutation(n)
        losses = [[] for _ in models]
        for start in range(0, n, config.batch_size):
            idx = order[start:start + config.batch_size]
            xb, tb = xs[idx], targets[idx]
            preds = [model.forward(p, xb) for p in models]
            ces = [-np.sum(tb * np.log(np.maximum(pred, model.PROB_FLOOR)), axis=1)
                   for pred in preds]
            errs = [pred - tb for pred in preds]
            if len(models) == 2:
                ces = [ces[0] + model.kl_rows(preds[1], preds[0]),
                       ces[1] + model.kl_rows(preds[0], preds[1])]
                errs = [errs[0] + (preds[0] - preds[1]), errs[1] + (preds[1] - preds[0])]
            for m, params in enumerate(models):
                loss = float(np.mean(ces[m]))
                if config.lam:
                    loss += config.lam * model.regularizer(params)
                losses[m].append(loss)
                grads = per_batch_gradient(params, xb, errs[m], config.lam)
                models[m] = model.ClassifierParams(
                    params.architecture, **{name: getattr(params, name) - lr * g
                                            for name, g in zip(model.LAYOUT[params.architecture],
                                                               grads)})
        for history, epoch_losses in zip(histories, losses):
            history.append(float(np.mean(epoch_losses)))
    return models, histories


def per_batch_gradient(params, xs, err, lam):
    """The gradient arrays, in LAYOUT order, as computed before the hidden
    layer was shared with the forward pass."""
    err = err / xs.shape[0]
    if params.architecture == "linear":
        return [xs.T @ err + lam * params.W_out, err.sum(axis=0)]
    pre = xs @ params.W1 + params.b1
    hidden = np.maximum(pre, 0.0)
    back = (err @ params.W_out.T) * (pre > 0.0)
    return [xs.T @ back + lam * params.W1, back.sum(axis=0),
            hidden.T @ err + lam * params.W_out, err.sum(axis=0)]


def rows(result):
    return [result] if result.companion is None else [result, result.companion]


def digest(result):
    """sha256 of every row's loss history, top-1/top-5 and parameter bytes."""
    h = hashlib.sha256()
    for row in rows(result):
        h.update(np.array(row.loss_history + (row.top1, row.top5)).tobytes())
        for arr in row.final_params.arrays():
            h.update(arr.tobytes())
    return h.hexdigest()


def trial(task, encoding, architecture, lam, batch_size=5, train_loop=None, monkeypatch=None):
    train, test, sim = task
    cfg = ex.ExperimentConfig(encoding=encoding, epochs=3, batch_size=batch_size, lr=0.05,
                              lr_decay=0.9, lam=lam, architecture=architecture, hidden=6,
                              seeds=(1,), **HYPERPARAMS[encoding])
    if train_loop is not None:
        monkeypatch.setattr(ex, "_train", train_loop)
    return ex.run_trial(cfg, 1, train, test, sim)


@pytest.mark.parametrize("lam", [0.0, 1e-3])
@pytest.mark.parametrize("architecture", ["linear", "mlp1"])
@pytest.mark.parametrize("encoding", ex.ENCODINGS)
def test_bitwise_equal_to_the_per_batch_loop(task, monkeypatch, encoding, architecture, lam):
    got = trial(task, encoding, architecture, lam)
    want = trial(task, encoding, architecture, lam, train_loop=per_batch_train,
                 monkeypatch=monkeypatch)
    for g, w in zip(rows(got), rows(want)):
        assert g.loss_history == w.loss_history
        assert (g.top1, g.top5, g.final_loss) == (w.top1, w.top5, w.final_loss)
    assert digest(got) == digest(want)
    for row in rows(got):
        top1, top5, history, abs_sum = RECORDED[(architecture, lam, row.method_label)]
        assert (row.top1, row.top5) == (top1, top5)
        assert row.loss_history == pytest.approx(history, abs=RECORDED_TOL, rel=0.0)
        assert sum(float(np.abs(a).sum()) for a in row.final_params.arrays()) == \
            pytest.approx(abs_sum, abs=RECORDED_TOL, rel=0.0)


@pytest.mark.parametrize("batch_size", [1, 7, 64, 65, 300, 400])
@pytest.mark.parametrize("encoding, architecture", [("SL", "linear"), ("DML", "mlp1")])
def test_batch_sizes_around_the_loss_chunk(task, monkeypatch, encoding, architecture,
                                           batch_size):
    """One-row batches, chunks of whole batches with a short last batch, a
    batch as large as the chunk, one just above it, and a batch larger than
    the training set."""
    got = trial(task, encoding, architecture, 1e-3, batch_size)
    want = trial(task, encoding, architecture, 1e-3, batch_size,
                 train_loop=per_batch_train, monkeypatch=monkeypatch)
    assert digest(got) == digest(want)


@pytest.mark.parametrize("lam", [0.0, 1e-3])
@pytest.mark.parametrize("architecture", ["linear", "mlp1"])
def test_shared_hidden_layer_gives_the_same_gradient(architecture, lam):
    rng = np.random.default_rng(3)
    params = model.init_params(architecture, 5, 4, hidden=6, seed=2)
    xs = rng.normal(size=(7, 5))
    err = rng.normal(size=(7, 4))
    pred, hidden = model.forward_batch(params, xs)
    assert pred.tobytes() == model.forward(params, xs).tobytes()
    shared = model.gradient_from_arrays(params, xs, err, lam, hidden)
    recomputed = model.gradient_from_arrays(params, xs, err, lam)
    before = per_batch_gradient(params, xs, err, lam)
    for a, b, c in zip(shared.arrays(), recomputed.arrays(), before):
        assert a.tobytes() == b.tobytes() == c.tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("fn", [model.forward, model.logits])
def test_public_forward_still_rejects_non_finite_inputs(fn, bad):
    params = model.init_params("mlp1", 3, 2, hidden=4, seed=0)
    for x in (np.array([0.0, bad, 1.0]), np.array([[0.0, 1.0, 2.0], [bad, 0.0, 0.0]])):
        with pytest.raises(model.ModelError, match="non-finite input"):
            fn(params, x)


@pytest.mark.parametrize("dr", [1.0, 0.3])
@pytest.mark.parametrize("encoding", ex.ENCODINGS)
def test_one_public_step_per_model_per_batch(task, monkeypatch, encoding, dr):
    """Every batch of every model goes through the public forward_batch,
    gradient_from_arrays and sgd_step once: epochs * ceil(n / b) calls for one
    model, twice that for KD (teacher, then student) and for a DML pair."""
    calls = {name: 0 for name in ("forward_batch", "gradient_from_arrays", "sgd_step")}

    def counted(name):
        fn = getattr(model, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(model, name, counted(name))
    train, test, sim = task
    cfg = ex.ExperimentConfig(encoding=encoding, dr=dr, epochs=3, batch_size=5, seeds=(1,),
                              **HYPERPARAMS[encoding])
    ex.run_trial(cfg, 1, train, test, sim)
    n = data.subsample(train, dr, 1).num_examples
    models = 2 if encoding in ("KD", "DML") else 1
    expected = models * cfg.epochs * -(-n // cfg.batch_size)
    assert calls == dict.fromkeys(calls, expected)
