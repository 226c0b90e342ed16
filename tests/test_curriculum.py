"""Unit tests for target schedules, the cooling update, and verification."""

import numpy as np
import pytest

from lcl import curriculum as cur
from lcl import similarity as sm


def schedule_from(matrix, epsilon):
    return cur.TargetSchedule(targets=np.asarray(matrix, dtype=float),
                              epsilon=epsilon)


def random_dominant_schedule(c, epsilon, rng):
    """A random row-stochastic matrix whose diagonal strictly dominates."""
    m = rng.uniform(0.0, 1.0, size=(c, c))
    np.fill_diagonal(m, 0.0)
    diag = m.max(axis=1) + rng.uniform(0.1, 1.0, size=c)
    m[np.arange(c), np.arange(c)] = diag
    m /= m.sum(axis=1, keepdims=True)
    return schedule_from(m, epsilon)


class TestConstruction:
    def test_init_targets_row_normalizes(self):
        sim = sm.SimilarityMatrix(entries=np.array([[1.0, 0.5], [0.5, 1.0]]),
                                  class_names=["a", "b"], source="t")
        s = cur.init_targets(sim, 0.9)
        assert s.targets[0] == pytest.approx([1 / 1.5, 0.5 / 1.5], abs=1e-15)
        assert s.step_count == 0

    def test_epsilon_range(self):
        with pytest.raises(cur.CurriculumError):
            schedule_from(np.eye(2), 1.0)
        with pytest.raises(cur.CurriculumError):
            schedule_from(np.eye(2), 0.0)

    @pytest.mark.parametrize("matrix", [
        [[0.8, 0.3], [0.2, 0.8]],
        [[1.1, -0.1], [0.2, 0.8]],  # a negative entry in a row that sums to 1
        [[0.9, 0.1], [np.nan, 1.0]],
        [[np.nan, 0.1], [0.2, 0.8]],  # NaN on the diagonal
        [[0.9, 0.1, 0.0], [0.1, 0.8, 0.1], [0.0, 0.5, 0.5 + 1e-11]],  # sum off by 1e-11
    ])
    def test_non_simplex_rejected(self, matrix):
        with pytest.raises(cur.CurriculumError):
            schedule_from(matrix, 0.9)

    @pytest.mark.parametrize("matrix", [
        [[0.4, 0.6], [0.2, 0.8]],
        [[0.5, 0.5], [0.2, 0.8]],  # a tie is not a strict maximum
        [[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.6, 0.3]],
        [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 1.0, 0.0]],  # one-hot off the diagonal
    ])
    def test_wrong_argmax_rejected(self, matrix):
        with pytest.raises(cur.CurriculumError):
            schedule_from(matrix, 0.9)

    def test_target_vector_simplex(self):
        with pytest.raises(cur.CurriculumError):
            cur.TargetVector(probs=np.array([0.5, 0.6]), true_class=1)
        with pytest.raises(cur.CurriculumError):
            cur.TargetVector(probs=np.array([1.0]), true_class=2)


class TestStep:
    def test_two_class_oracle(self):
        # row (0.6, 0.4), eps=0.9: S=0.4, denom=1.36 -> (1/1.36, 0.36/1.36)
        s = cur.step(schedule_from([[0.6, 0.4], [0.4, 0.6]], 0.9))
        assert s.targets[0] == pytest.approx(
            [1.0 / 1.36, 0.36 / 1.36], abs=1e-15)
        assert s.step_count == 1

    def test_three_class_oracle(self):
        # row (0.5, 0.25, 0.25), eps=0.9: S=0.5, denom=1.45
        row = [0.5, 0.25, 0.25]
        m = np.array([row, [0.25, 0.5, 0.25], [0.25, 0.25, 0.5]])
        s = cur.step(schedule_from(m, 0.9))
        assert s.targets[0] == pytest.approx(
            [1.0 / 1.45, 0.225 / 1.45, 0.225 / 1.45], abs=1e-15)

    def test_step_row_matches_matrix_step(self):
        rng = np.random.default_rng(0)
        s = random_dominant_schedule(5, 0.95, rng)
        stepped = cur.step(s)
        for i in range(5):
            assert np.array_equal(stepped.targets[i],
                                  cur.step_row(s.targets[i].copy(), i, 0.95))

    def test_one_hot_fixed_point_bitwise(self):
        s = schedule_from(np.eye(4), 0.9)
        assert np.array_equal(cur.step(s).targets, np.eye(4))

    def test_advance_to(self):
        rng = np.random.default_rng(1)
        s = random_dominant_schedule(3, 0.9, rng)
        manual = cur.step(cur.step(cur.step(s)))
        jumped = cur.advance_to(s, 3)
        assert np.array_equal(manual.targets, jumped.targets)
        assert jumped.step_count == 3

    def test_advance_rejects_rewind(self):
        s = cur.advance_to(schedule_from(np.eye(2), 0.9), 2)
        with pytest.raises(cur.CurriculumError):
            cur.advance_to(s, 1)


class TestEncodings:
    def test_target_for(self):
        s = schedule_from([[0.7, 0.3], [0.3, 0.7]], 0.9)
        v = cur.target_for(s, 1)
        assert v.true_class == 1
        assert np.array_equal(v.probs, [0.3, 0.7])
        with pytest.raises(cur.CurriculumError):
            cur.target_for(s, 2)

    def test_one_hot(self):
        v = cur.one_hot(2, 4)
        assert np.array_equal(v.probs, [0.0, 0.0, 1.0, 0.0])
        with pytest.raises(cur.CurriculumError):
            cur.one_hot(4, 4)

    def test_label_smoothing_alpha_range(self):
        with pytest.raises(cur.CurriculumError):
            cur.label_smoothing(0, 4, -0.1)
        with pytest.raises(cur.CurriculumError):
            cur.label_smoothing(0, 4, 1.1)

    def test_label_smoothing_sums_to_one(self):
        v = cur.label_smoothing(3, 7, 0.25)
        assert v.probs.sum() == pytest.approx(1.0, abs=1e-15)
        assert np.argmax(v.probs) == 3


class TestEntropy:
    def test_uniform_is_log_c(self):
        assert cur.entropy(np.full(8, 1 / 8)) == pytest.approx(np.log(8), abs=1e-12)

    def test_one_hot_zero(self):
        assert cur.entropy(cur.one_hot(0, 5)) == 0.0

    def test_decreases_under_step(self):
        rng = np.random.default_rng(2)
        s = random_dominant_schedule(6, 0.9, rng)
        h0 = [cur.entropy(s.targets[i]) for i in range(6)]
        s = cur.step(s)
        h1 = [cur.entropy(s.targets[i]) for i in range(6)]
        assert all(b < a for a, b in zip(h0, h1))


class TestVerification:
    def test_valid_schedule_passes(self):
        rng = np.random.default_rng(3)
        report = cur.verify_curriculum(random_dominant_schedule(8, 0.95, rng), 100)
        assert report.passed
        assert report.entropies.shape == (101, 8)
        assert "PASS" in report.summary()

    def test_entropies_match_scalar_entropy(self):
        rng = np.random.default_rng(4)
        s = random_dominant_schedule(4, 0.9, rng)
        report = cur.verify_curriculum(s, 5)
        walk = s
        for t in range(6):
            expected = [cur.entropy(walk.targets[i]) for i in range(4)]
            assert np.array_equal(report.entropies[t], expected)
            walk = cur.step(walk)

    def test_detects_injected_violation(self):
        # white-box: bypass the constructor to hand verify a broken matrix
        rng = np.random.default_rng(5)
        s = random_dominant_schedule(3, 0.9, rng)
        bad = s.targets.copy()
        bad[0, 1] += 1e-6  # breaks the simplex (and the decay bound)
        object.__setattr__(s, "targets", bad)
        report = cur.verify_curriculum(s, 2)
        assert not report.passed
        assert any(v.axiom == "simplex" for v in report.violations)
        assert "FAIL" in report.summary()

    def test_horizon_range(self):
        with pytest.raises(cur.CurriculumError):
            cur.verify_curriculum(schedule_from(np.eye(2), 0.9), 0)


class TestClosedForm:
    def test_zero_mass(self):
        assert cur.off_diagonal_mass_closed_form(0.0, 0.9, 100) == 0.0

    def test_one_step_matches_recursion(self):
        s0 = 0.3
        s1 = 0.9 * s0 / (1.0 + 0.9 * s0)
        assert cur.off_diagonal_mass_closed_form(s0, 0.9, 1) == pytest.approx(
            s1, abs=1e-15)


class TestSaveSchedule:
    def test_header_and_rows(self, tmp_path):
        s = cur.advance_to(schedule_from([[0.7, 0.3], [0.3, 0.7]], 0.9), 2)
        path = tmp_path / "sched.csv"
        cur.save_schedule(s, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "# epsilon=0.9 step=2"
        values = np.array([[float(x) for x in line.split(",")]
                           for line in lines[1:]])
        assert np.array_equal(values, s.targets)
