"""An LS or KD config holds the alpha or temperature it trains with, its
default filled in, and run_suite refuses a worker count that is not an
integer >= 1 before it writes anything."""

import pytest

from lcl import data, experiments as ex


@pytest.fixture(scope="module")
def task():
    spec = data.SyntheticSpec(2, 2, 3, 4, 4, seed=2)
    train, test, _ = data.generate_synthetic(spec)
    return train, test


@pytest.mark.parametrize("encoding, name, default", [
    ("LS", "alpha", ex.DEFAULT_ALPHA), ("KD", "kd_temperature", ex.DEFAULT_TEMPERATURE)])
def test_default_is_stored_and_equals_the_explicit_value(encoding, name, default):
    implicit, explicit = ex.ExperimentConfig(encoding), ex.ExperimentConfig(
        encoding, **{name: default})
    assert getattr(implicit, name) == default
    assert implicit == explicit
    assert (implicit.method_label, implicit.config_id) == (explicit.method_label,
                                                           explicit.config_id)


def test_labels_and_ids_keep_their_text():
    assert ex.ExperimentConfig("LS").config_id == "LS-alpha0.1_dr1_linear_e30_b16_lr0.1"
    assert ex.ExperimentConfig("KD").config_id == "KD-T1_dr1_linear_e30_b16_lr0.1"
    assert ex.ExperimentConfig("LS", alpha=0.3).method_label == "LS(alpha=0.3)"
    assert ex.ExperimentConfig("KD", kd_temperature=4.0).method_label == "KD(T=4)"


@pytest.mark.parametrize("encoding", ["SL", "LCL", "DML"])
def test_other_encodings_hold_none(encoding):
    cfg = ex.ExperimentConfig(encoding, epsilon=0.9 if encoding == "LCL" else None)
    assert (cfg.alpha, cfg.kd_temperature) == (None, None)
    with pytest.raises(ex.ExperimentError, match="^alpha applies to LS only$"):
        ex.ExperimentConfig(encoding, epsilon=cfg.epsilon, alpha=ex.DEFAULT_ALPHA)


def test_trial_result_carries_the_ls_alpha_only(task):
    train, test = task
    kw = dict(epochs=1, batch_size=4, seeds=(0,))
    assert ex.run_trial(ex.ExperimentConfig("LS", **kw), 0, train, test).alpha == 0.1
    assert ex.run_trial(ex.ExperimentConfig("KD", **kw), 0, train, test).alpha is None


@pytest.mark.parametrize("jobs, message", [
    (0, "^jobs must be >= 1, got 0$"), (-2, "^jobs must be >= 1, got -2$"),
    (1.5, "^jobs must be an integer, got 1.5$"), (True, "^jobs must be an integer, got True$")])
def test_run_suite_refuses_a_bad_jobs_before_writing(task, tmp_path, jobs, message):
    train, test = task
    out = tmp_path / "out"
    with pytest.raises(ex.ExperimentError, match=message):
        ex.run_suite([ex.ExperimentConfig("SL", epochs=1, seeds=(0,))], train, test,
                     out_dir=str(out), jobs=jobs)
    assert not out.exists()
