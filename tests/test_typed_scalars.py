"""Counts follow the integer rule seeds follow (a numbers.Integral, numpy's
integers included), and the curriculum's scalars and the float fields of
ExperimentConfig and SyntheticSpec follow its real-number rule: each wrong
type raises the module's own error naming the field, never a bare
TypeError from deeper down."""

import numpy as np
import pytest

from lcl import curriculum as cur, data, experiments as ex

SPEC = dict(num_superclusters=2, classes_per_supercluster=2, dim=3, train_per_class=4,
            test_per_class=4, intra_spread=0.5, inter_spread=2.0, noise_sigma=0.5, seed=0)


@pytest.mark.parametrize("name", ["epochs", "batch_size", "hidden"])
@pytest.mark.parametrize("value", [2.5, 2.0, "2", None, True, False])
def test_config_counts_must_be_integers(name, value):
    with pytest.raises(ex.ExperimentError, match=f"^{name} must be an integer, got "):
        ex.ExperimentConfig("SL", **{name: value})


def test_config_counts_take_numpy_integers():
    cfg = ex.ExperimentConfig("SL", epochs=np.int64(2), batch_size=np.int32(4),
                              hidden=np.uint8(3))
    assert (cfg.epochs, cfg.batch_size, cfg.hidden) == (2, 4, 3)


@pytest.mark.parametrize("name", ["num_superclusters", "classes_per_supercluster", "dim",
                                  "train_per_class", "test_per_class", "seed"])
@pytest.mark.parametrize("value", [2.5, 1.5, "2", True, False])
def test_synthetic_counts_must_be_integers(name, value):
    with pytest.raises(data.DataError, match=f"^{name} must be an integer, got "):
        data.SyntheticSpec(**{**SPEC, name: value})


def test_synthetic_counts_take_numpy_integers():
    spec = data.SyntheticSpec(**{**SPEC, "dim": np.int64(3), "seed": np.int64(1)})
    train, _, _ = data.generate_synthetic(spec)
    assert train.dim == 3


MALFORMED = {
    "fractional num_classes": (lambda: cur.one_hot(0, 2.5),
                               "^num_classes must be an integer, got 2.5$"),
    "zero num_classes": (lambda: cur.one_hot(0, 0), "^num_classes must be >= 1$"),
    "smoothed fractional num_classes": (lambda: cur.label_smoothing(0, 2.5, 0.1),
                                        "^num_classes must be an integer, got 2.5$"),
    "smoothed zero num_classes": (lambda: cur.label_smoothing(0, 0, 0.1),
                                  "^num_classes must be >= 1$"),
    "text epsilon": (lambda: cur.TargetSchedule(targets=np.eye(2), epsilon="0.5"),
                     "^epsilon must be a real number, got '0.5'$"),
    "missing epsilon": (lambda: cur.TargetSchedule(targets=np.eye(2), epsilon=None),
                        "^epsilon must be a real number, got None$"),
    "missing alpha": (lambda: cur.label_smoothing(0, 4, None),
                      "^alpha must be a real number, got None$"),
    "text alpha": (lambda: cur.label_smoothing(0, 4, "0.1"),
                   "^alpha must be a real number, got '0.1'$"),
    "bool step_count": (lambda: cur.TargetSchedule(targets=np.eye(2), epsilon=0.5,
                                                   step_count=True),
                        "^step_count must be an integer, got True$"),
    "bool epsilon": (lambda: cur.TargetSchedule(targets=np.eye(2), epsilon=True),
                     "^epsilon must be a real number, got True$"),
    "bool num_classes": (lambda: cur.one_hot(0, True),
                         "^num_classes must be an integer, got True$"),
    "bool alpha": (lambda: cur.label_smoothing(0, 4, False),
                   "^alpha must be a real number, got False$"),
}


@pytest.mark.parametrize("case", MALFORMED)
def test_curriculum_scalar_names_its_field(case):
    call, message = MALFORMED[case]
    with pytest.raises(cur.CurriculumError, match=message):
        call()


def test_numpy_scalars_are_accepted():
    assert cur.one_hot(1, np.int64(3)).probs.tolist() == [0.0, 1.0, 0.0]
    assert cur.label_smoothing(0, np.int32(2), np.float32(0.5)).probs.tolist() == [0.75, 0.25]
    assert cur.TargetSchedule(targets=np.eye(2), epsilon=np.float32(0.5)).epsilon == 0.5


@pytest.mark.parametrize("kwargs, name", [
    ({"encoding": "LCL", "epsilon": "0.5"}, "epsilon"),
    ({"encoding": "SL", "lr": "0.1"}, "lr"),
    ({"encoding": "SL", "dr": None}, "dr"),
    ({"encoding": "LS", "alpha": "0.1"}, "alpha"),
    ({"encoding": "KD", "kd_temperature": "2"}, "kd_temperature"),
    ({"encoding": "SL", "lr_decay": None}, "lr_decay"),
    ({"encoding": "SL", "lam": [0.0]}, "lam"),
    ({"encoding": "SL", "lr": True}, "lr"),
    ({"encoding": "SL", "dr": True}, "dr"),
    ({"encoding": "SL", "lam": False}, "lam"),
    ({"encoding": "LCL", "epsilon": True}, "epsilon"),
    ({"encoding": "KD", "kd_temperature": True}, "kd_temperature"),
])
def test_config_floats_must_be_real(kwargs, name):
    with pytest.raises(ex.ExperimentError, match=f"^{name} must be a real number, got "):
        ex.ExperimentConfig(**kwargs)


@pytest.mark.parametrize("seeds", [(True,), (0, False)])
def test_bool_seeds_are_not_seeds(seeds):
    with pytest.raises(ex.ExperimentError, match=r"^seeds must be integers >= 0, got "):
        ex.ExperimentConfig("SL", seeds=seeds)


def test_bool_trial_seed_is_not_a_seed():
    train, test, _ = data.generate_synthetic(data.SyntheticSpec(**SPEC))
    with pytest.raises(ex.ExperimentError, match="^seed must be an integer >= 0, got True$"):
        ex.run_trial(ex.ExperimentConfig("SL", epochs=1, seeds=(1,)), True, train, test)


def test_config_floats_take_numpy_floats_and_integers():
    cfg = ex.ExperimentConfig("LCL", epsilon=np.float32(0.5), dr=1, lr=np.float64(0.1),
                              lam=np.int64(0))
    assert (cfg.epsilon, cfg.dr, cfg.lr, cfg.lam) == (0.5, 1, 0.1, 0)
    assert ex.ExperimentConfig("LS", alpha=np.float16(0.25)).alpha == 0.25


@pytest.mark.parametrize("name", ["intra_spread", "inter_spread", "noise_sigma"])
@pytest.mark.parametrize("value", ["1", None, True])
def test_synthetic_floats_must_be_real(name, value):
    with pytest.raises(data.DataError, match=f"^{name} must be a real number, got "):
        data.SyntheticSpec(**{**SPEC, name: value})


def test_synthetic_floats_take_numpy_floats():
    spec = data.SyntheticSpec(**{**SPEC, "intra_spread": np.float32(0.5), "noise_sigma": 1})
    assert data.generate_synthetic(spec)[0].dim == 3
