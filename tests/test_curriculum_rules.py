"""One home for each curriculum rule: the schedule constructor refuses exactly
the step-0 matrices that verify_curriculum reports off the simplex or with
the argmax off the diagonal, naming the same first argmax row; malformed
curriculum inputs are CurriculumErrors that name their field; NumPy-scalar
hyperparameters are written to result and schedule files as plain floats."""

import numpy as np
import pytest

from lcl import cli, curriculum as cur, data, experiments as ex, similarity as sm
from test_fast_paths import KINDS, bypass_schedule, random_targets


def constructor_error(t, eps):
    try:
        cur.TargetSchedule(targets=t, epsilon=eps)
    except cur.CurriculumError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("c", [2, 3, 5, 12])
@pytest.mark.parametrize("kind", KINDS)
def test_constructor_refuses_what_verify_reports_at_step_0(kind, c):
    rng = np.random.default_rng([KINDS.index(kind), c])
    # an inf entry makes the cooling step itself compute inf - inf
    quiet = {"invalid": "ignore"} if kind == "inf entry" else {}
    for _ in range(8):
        t = random_targets(rng, c, kind)
        eps = float(rng.uniform(0.01, 0.99))
        with np.errstate(**quiet):
            report = cur.verify_curriculum(bypass_schedule(t, eps), 1)
        simplex = [v.row for v in report.violations if v.step == 0 and v.axiom == "simplex"]
        argmax = [v.row for v in report.violations if v.step == 0 and v.axiom == "argmax"]
        error = constructor_error(t, eps)
        assert (error is None) == (not simplex and not argmax)
        assert (error is None) == (kind in ("valid", "one-hot rows"))
        if simplex:
            assert error == "every row must be on the probability simplex"
        elif argmax:
            assert error == f"row {argmax[0]}: argmax is not the true class"


SCHEDULE = cur.TargetSchedule(targets=np.array([[0.75, 0.25], [0.25, 0.75]]), epsilon=0.9)

MALFORMED = {
    "scalar targets": (lambda: cur.TargetSchedule(targets=1.0, epsilon=0.9),
                       "^targets must be a non-empty square matrix$"),
    "0 x 0 targets": (lambda: cur.TargetSchedule(targets=np.zeros((0, 0)), epsilon=0.9),
                      "^targets must be a non-empty square matrix$"),
    "2-D probs": (lambda: cur.TargetVector(probs=[[0.5, 0.5]], true_class=0),
                  "^probs must be a non-empty vector$"),
    "empty probs": (lambda: cur.TargetVector(probs=[], true_class=0),
                    "^probs must be a non-empty vector$"),
    "fractional true_class": (lambda: cur.TargetVector(probs=[1.0, 0.0], true_class=0.5),
                              "^true_class must be an integer, got 0.5$"),
    "fractional step_count": (
        lambda: cur.TargetSchedule(targets=np.eye(2), epsilon=0.9, step_count=1.5),
        "^step_count must be an integer, got 1.5$"),
    "negative step_count": (
        lambda: cur.TargetSchedule(targets=np.eye(2), epsilon=0.9, step_count=-1),
        "^step_count must be >= 0$"),
    "fractional t": (lambda: cur.advance_to(SCHEDULE, 2.5), "^t must be an integer, got 2.5$"),
    "fractional horizon": (lambda: cur.verify_curriculum(SCHEDULE, 2.5),
                           "^horizon must be an integer, got 2.5$"),
    "fractional class_index": (lambda: cur.target_for(SCHEDULE, 0.5),
                               "^class_index must be an integer, got 0.5$"),
}


@pytest.mark.parametrize("case", MALFORMED)
def test_malformed_input_names_its_field(case):
    call, message = MALFORMED[case]
    with pytest.raises(cur.CurriculumError, match=message):
        call()


def test_numpy_integers_are_integers():
    s = cur.TargetSchedule(targets=SCHEDULE.targets, epsilon=0.9, step_count=np.int64(1))
    s = cur.advance_to(s, np.int64(3))
    assert s.step_count == 3
    assert cur.target_for(s, np.int64(1)).true_class == 1
    assert cur.verify_curriculum(s, np.int64(2)).passed


@pytest.mark.parametrize("make", [lambda k, c: cur.one_hot(k, c),
                                  lambda k, c: cur.label_smoothing(k, c, 0.1)])
@pytest.mark.parametrize("k", [-1, 4, 1.5])
def test_encodings_refuse_a_bad_class_index(make, k):
    with pytest.raises(cur.CurriculumError):
        make(k, 4)


def test_encoding_values_unchanged():
    # the vectors as they were built: zeros or alpha/C, then the true class set
    for c in (1, 2, 7, 100):
        for k in range(c):
            former = np.zeros(c)
            former[k] = 1.0
            assert cur.one_hot(k, c).probs.tobytes() == former.tobytes()
            for alpha in (0.0, 0.1, 0.37, 1.0):
                former = np.full(c, alpha / c)
                former[k] = (1.0 - alpha) + alpha / c
                assert cur.label_smoothing(k, c, alpha).probs.tobytes() == former.tobytes()


def test_numpy_scalar_hyperparameters_round_trip_through_report(tmp_path):
    spec = data.SyntheticSpec(2, 2, 6, 8, 10, intra_spread=0.5,
                              inter_spread=2.0, noise_sigma=0.5, seed=0)
    train, test, emb = data.generate_synthetic(spec)
    common = dict(dr=np.float64(0.5), epochs=2, batch_size=8, lr=0.05, seeds=(0, 1))
    configs = [ex.ExperimentConfig("SL", **common),
               ex.ExperimentConfig("LS", alpha=np.float64(0.2), **common),
               ex.ExperimentConfig("LCL", epsilon=np.float64(0.9), **common)]
    run_dir, report_dir = tmp_path / "run", tmp_path / "report"
    ex.run_suite(configs, train, test, sim=sm.build_cosine_similarity(emb),
                 out_dir=str(run_dir))
    raw = (run_dir / "raw_results.csv").read_text()
    assert "np." not in raw and ",0.9," in raw and ",0.5," in raw
    assert cli.main(["report", str(run_dir / "raw_results.csv"),
                     "--out-dir", str(report_dir)]) == cli.EXIT_OK
    for name in ("aggregate.csv", "rank_report.txt"):
        assert (report_dir / name).read_bytes() == (run_dir / name).read_bytes()
    assert "np." not in (run_dir / "aggregate.csv").read_text()


def test_schedule_header_writes_a_plain_float(tmp_path):
    s = cur.TargetSchedule(targets=np.eye(2), epsilon=np.float64(0.9), step_count=np.int64(2))
    cur.save_schedule(s, tmp_path / "s.csv")
    assert (tmp_path / "s.csv").read_text().splitlines()[0] == "# epsilon=0.9 step=2"
