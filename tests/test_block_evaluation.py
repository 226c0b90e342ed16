"""Evaluation runs the forward pass over experiments.EVAL_ROWS test rows at a
time and sums each block's integer top-k hits, so its scores equal a
stable-argsort ranking of the whole set's probabilities and its memory does
not grow with the test set; a serial run never imports the process pool."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from lcl import data, experiments as ex, model


def reference_topk(probs, labels, k):
    """A stable argsort of -probs, lower index first among ties."""
    order = np.argsort(-probs, axis=1, kind="stable")[:, :k]
    return float(np.mean((order == labels[:, None]).any(axis=1)))


def indexed_test(n, classes, rng):
    """A test split whose first feature is the row's index, so that a stand-in
    forward pass can return given probabilities for any block of rows."""
    features = rng.normal(size=(n, 3))
    features[:, 0] = np.arange(n)
    return data.Dataset(features=features, labels=rng.integers(0, classes, size=n),
                        num_classes=classes, split="test")


def scores(preds, labels, classes):
    return (reference_topk(preds, labels, 1), reference_topk(preds, labels, min(5, classes)))


@pytest.mark.parametrize("n", [7, 9, 300, 302])  # 9 and 300 leave a short last block
@pytest.mark.parametrize("classes, case", [
    (6, "heavy ties"), (6, "signed zeros"), (4, "uniform"), (1, "heavy ties"),
    (12, "heavy ties"),
])
def test_blocks_of_seven_match_one_ranking(monkeypatch, n, classes, case):
    rng = np.random.default_rng(n * classes)
    test = indexed_test(n, classes, rng)
    if case == "uniform":
        preds = np.full((n, classes), 1.0 / classes)
    else:
        preds = rng.integers(0, 3, size=(n, classes)) / 2.0
    if case == "signed zeros":
        preds[rng.random(size=preds.shape) < 0.3] = -0.0
        assert len(set(np.signbit(preds[preds == 0.0]))) == 2  # both zeros occur
    blocks = []

    def forward(params, x):
        blocks.append(len(x))
        return preds[x[:, 0].astype(int)]

    monkeypatch.setattr(ex, "EVAL_ROWS", 7)
    monkeypatch.setattr(model, "forward", forward)
    assert ex._evaluate(None, test) == scores(preds, test.labels, classes)
    assert blocks == [7] * (n // 7) + ([n % 7] if n % 7 else [])


@pytest.mark.parametrize("architecture", model.ARCHITECTURES)
def test_blocks_of_seven_match_the_whole_forward_pass(monkeypatch, architecture):
    """A real model: 300 rows, a short last block, scores as on one forward
    pass over the whole set."""
    rng = np.random.default_rng(5)
    classes = 9
    test = data.Dataset(features=rng.normal(size=(300, 6)),
                        labels=rng.integers(0, classes, size=300), num_classes=classes,
                        split="test")
    params = model.init_params(architecture, 6, classes, hidden=5, seed=rng)
    whole = scores(model.forward(params, test.features), test.labels, classes)
    monkeypatch.setattr(ex, "EVAL_ROWS", 7)
    assert ex._evaluate(params, test) == whole


def test_eval_rows_covers_the_300_row_reference_cases_in_one_block():
    """tests/test_fast_paths.py patches model.forward to return all 300 rows'
    probabilities at once, which holds while one block takes them all."""
    assert ex.EVAL_ROWS >= 300


def traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("architecture", model.ARCHITECTURES)
def test_evaluation_memory_is_flat_in_the_test_set(architecture):
    """C = 200: 5,000 and 50,000 test rows peak alike, near one EVAL_ROWS x C
    block, where a whole forward pass would hold 8 and 80 MB."""
    rng = np.random.default_rng(0)
    d, c = 8, 200
    params = model.init_params(architecture, d, c, hidden=16, seed=1)
    peaks = []
    for n in (5000, 50000):
        test = data.Dataset(features=rng.normal(size=(n, d)),
                            labels=rng.integers(0, c, size=n), num_classes=c, split="test")
        peaks.append(traced_peak(lambda: ex._evaluate(params, test)))
    block = ex.EVAL_ROWS * c * 8
    assert peaks[1] < 1.1 * peaks[0], f"peaks {peaks[0] / block:.2f}, {peaks[1] / block:.2f} blocks"
    assert peaks[1] < 2 * block, f"peak {peaks[1] / block:.2f} x one EVAL_ROWS x C block"


def test_unknown_attribute_is_still_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'NoSuchName'"):
        ex.NoSuchName


def test_serial_run_never_imports_the_process_pool(tmp_path):
    """A fresh interpreter imports lcl and runs a serial suite; neither loads
    concurrent.futures.process or multiprocessing."""
    script = (
        "import sys\n"
        "from lcl import data, experiments as ex\n"
        "loaded = lambda: [m for m in ('concurrent.futures.process', 'multiprocessing')"
        " if m in sys.modules]\n"
        "assert not loaded(), loaded()\n"
        "train, test, _ = data.generate_synthetic(data.SyntheticSpec(2, 2, 3, 4, 4))\n"
        "ex.run_suite([ex.ExperimentConfig('SL', epochs=1, seeds=(0, 1))], train, test,\n"
        f"             out_dir={str(tmp_path)!r})\n"
        "assert not loaded(), loaded()\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(Path(ex.__file__).parents[1]), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
