"""Checks that run at load time and at epoch/trial boundaries instead of in
the SGD and curriculum hot loop: the vectorised schedule argmax check,
divergence caught by the training loop, and non-finite or malformed data
and similarity files rejected with their path and line."""

import re

import numpy as np
import pytest

from lcl import cli, curriculum, data, experiments as ex, model, similarity as sm


def reference_argmax_error(t):
    """The per-row loop the vectorised check replaced: the message for the
    first row whose diagonal is not strictly above every other entry."""
    for i in range(t.shape[0]):
        other = np.delete(t[i], i)
        if not (other.size == 0 or t[i, i] > np.max(other)):
            return f"row {i}: argmax is not the true class"
    return None


def schedule_error(t):
    try:
        curriculum.TargetSchedule(targets=t, epsilon=0.9)
    except curriculum.CurriculumError as exc:
        return str(exc)
    return None


def random_stochastic(rng, c, ties):
    """Row-stochastic matrix; with ties, some rows put their largest value on
    the diagonal and on one off-diagonal entry. Equal entries of a row stay
    exactly equal after the row is divided by its sum."""
    t = rng.integers(1, 8, size=(c, c)).astype(float)
    if ties:
        for i in rng.choice(c, size=max(1, c // 3), replace=False):
            j = (i + 1 + rng.integers(c - 1)) % c
            t[i, i] = t[i, j] = t[i].max()
    return t / t.sum(axis=1, keepdims=True)


class TestScheduleArgmaxCheck:
    @pytest.mark.parametrize("ties", [False, True])
    def test_matches_per_row_reference(self, ties):
        rng = np.random.default_rng(11)
        outcomes = set()
        for trial in range(200):
            c = int(rng.integers(2, 9))
            t = random_stochastic(rng, c, ties)
            if trial % 2:  # most of each row's mass on the diagonal
                t = 0.1 * t + 0.9 * np.eye(c)
            expected = reference_argmax_error(t)
            assert schedule_error(t) == expected
            outcomes.add(expected is None)
        assert outcomes == {True, False}

    def test_exact_tie_names_first_bad_row(self):
        t = np.array([[0.5, 0.25, 0.25], [0.25, 0.5, 0.25], [0.25, 0.375, 0.375]])
        assert schedule_error(t) == "row 2: argmax is not the true class"
        t = np.array([[0.25, 0.5, 0.25], [0.5, 0.25, 0.25], [0.0, 0.0, 1.0]])
        assert schedule_error(t) == "row 0: argmax is not the true class"

    def test_nan_row_rejected(self):
        for col in (0, 1):
            t = np.array([[0.75, 0.25], [0.25, 0.75]])
            t[1, col] = np.nan
            with pytest.raises(curriculum.CurriculumError):
                curriculum.TargetSchedule(targets=t, epsilon=0.9)

    def test_one_by_one_accepted(self):
        s = curriculum.TargetSchedule(targets=np.array([[1.0]]), epsilon=0.5)
        assert curriculum.advance_to(s, 3).targets[0, 0] == 1.0


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
class TestDivergence:
    @staticmethod
    def task():
        spec = data.SyntheticSpec(2, 2, 6, 8, 10, intra_spread=0.5,
                                  inter_spread=2.0, noise_sigma=0.5, seed=0)
        train, test, _ = data.generate_synthetic(spec)
        return train, test

    def test_diverged_loss_raises_model_error(self):
        train, test = self.task()
        cfg = ex.ExperimentConfig("SL", epochs=3, batch_size=4, lr=1e30, seeds=(0,))
        with pytest.raises(model.ModelError, match=r"epoch \d+/3: non-finite"):
            ex.run_trial(cfg, 0, train, test)

    def test_last_step_divergence_caught_by_final_check(self):
        # one epoch of one batch: the loss is computed before the only step
        train, test = self.task()
        cfg = ex.ExperimentConfig("SL", epochs=1, batch_size=64, lr=float("inf"),
                                  lam=0.0, seeds=(0,))
        with pytest.raises(model.ModelError, match="epoch 1/1: non-finite parameters"):
            ex.run_trial(cfg, 0, train, test)

    def test_run_suite_logs_divergence(self, tmp_path):
        train, test = self.task()
        configs = [ex.ExperimentConfig("SL", epochs=3, batch_size=4, lr=0.05, seeds=(0,)),
                   ex.ExperimentConfig("LS", epochs=3, batch_size=4, lr=1e30, seeds=(0,))]
        results, _, _ = ex.run_suite(configs, train, test, out_dir=str(tmp_path))
        assert [r.encoding for r in results] == ["SL"]
        log = (tmp_path / "errors.log").read_text()
        assert configs[1].config_id in log and "non-finite" in log

    def test_sgd_step_result_is_valid_params(self):
        rng = np.random.default_rng(2)
        for arch in ("linear", "mlp1"):
            p = model.init_params(arch, 5, 3, hidden=4, seed=rng)
            g = model.gradient_from_arrays(p, rng.normal(size=(6, 5)),
                                           rng.normal(size=(6, 3)), 0.1)
            out = model.sgd_step(p, g, 0.05)
            assert out.architecture == arch and out.is_finite()
            for before, grad, after in zip(p.arrays(), g.arrays(), out.arrays()):
                assert np.array_equal(after, before - 0.05 * grad)
            # the unchecked result passes every constructor check
            model.ClassifierParams(architecture=arch, W_out=out.W_out, b_out=out.b_out,
                                   W1=out.W1, b1=out.b1)


def write_dataset(path, rows):
    path.write_text("# classes=2 split=train\nlabel,f1,f2\n" + "".join(
        line + "\n" for line in rows))
    return path


class TestDataRejectedAtLoad:
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_feature_names_path_line(self, tmp_path, value):
        path = write_dataset(tmp_path / "d.csv", ["0,1.0,2.0", f"1,3.0,{value}"])
        message = re.escape(f"{path}:4: non-finite feature")
        with pytest.raises(data.DataError, match=message):
            data.load_dataset(path)

    def test_ragged_row_names_path_line(self, tmp_path):
        path = write_dataset(tmp_path / "d.csv", ["0,1.0,2.0", "1,3.0", "1,3.0,4.0"])
        message = re.escape(f"{path}:4: 1 features, expected 2")
        with pytest.raises(data.DataError, match=message):
            data.load_dataset(path)

    def test_dataset_rejects_non_finite_features(self):
        feats = np.array([[0.0, 1.0], [np.nan, 2.0]])
        with pytest.raises(data.DataError, match="non-finite"):
            data.Dataset(features=feats, labels=np.array([0, 1]),
                         num_classes=2, split="test")


class TestMalformedSimilarityFile:
    def verify(self, tmp_path, text, capsys):
        path = tmp_path / "sim.csv"
        path.write_text(text)
        code = cli.main(["verify", "--sim", str(path), "--epsilon", "0.9"])
        return code, path, capsys.readouterr().err

    def test_non_numeric_entry(self, tmp_path, capsys):
        code, path, err = self.verify(tmp_path, "a,b\n1.0,0.5\n0.5,oops\n", capsys)
        assert code == cli.EXIT_USAGE
        assert f"{path}:3:" in err

    def test_ragged_row(self, tmp_path, capsys):
        code, path, err = self.verify(tmp_path, "a,b\n1.0,0.5,0.1\n0.5,1.0\n", capsys)
        assert code == cli.EXIT_USAGE
        assert f"{path}:2: 3 entries, expected 2" in err

    def test_load_similarity_raises_similarity_error(self, tmp_path):
        path = tmp_path / "sim.csv"
        path.write_text("a,b\n1.0,x\n0.5,1.0\n")
        with pytest.raises(sm.SimilarityError, match=re.escape(f"{path}:2:")):
            sm.load_similarity(path)
