"""Time-evolving soft-label targets: similarity-based initialization, the
geometric cooling update, baseline encodings, and axiom verification."""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

from . import _files

SIMPLEX_TOL = 1e-12
DECAY_TOL = 1e-12
ENTROPY_TOL = 1e-14


class CurriculumError(ValueError):
    """Invalid curriculum construction or evolution request."""


def _is_integer(value):
    """The one integer rule of every count, index and seed: a numbers.Integral,
    numpy's integers included."""
    return isinstance(value, numbers.Integral)


def _integer(name, value, error=CurriculumError):
    """value, if it is an integer; else `error` naming the field."""
    if not _is_integer(value):
        raise error(f"{name} must be an integer, got {value!r}")
    return value


def _real(name, value):
    """value, if it is a real number (numbers.Real, numpy's floats included)."""
    if not isinstance(value, numbers.Real):
        raise CurriculumError(f"{name} must be a real number, got {value!r}")
    return value


def _off_simplex(t):
    """Each row's sum, and the mask of rows off the probability simplex: a
    negative entry or a sum more than SIMPLEX_TOL from 1. Written so that a
    NaN puts its row in the mask."""
    sums = np.add.reduce(t, axis=-1)
    return sums, ~(np.logical_and.reduce(t >= 0.0, axis=-1)
                   & (np.abs(sums - 1.0) <= SIMPLEX_TOL))


def _off_argmax(t):
    """The rows of the square t whose diagonal entry is not strictly above
    the row's other entries; a NaN anywhere in a row puts it in the mask."""
    off = t.copy()
    off.reshape(-1)[::t.shape[0] + 1] = -np.inf  # a C-ordered copy: reshape is a view
    return ~(t.diagonal() > np.maximum.reduce(off, axis=1))


@dataclass(frozen=True)
class TargetVector:
    """A single target distribution over C classes with its true class."""

    probs: np.ndarray
    true_class: int

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        object.__setattr__(self, "probs", p)
        if p.ndim != 1 or not p.size:
            raise CurriculumError("probs must be a non-empty vector")
        if not 0 <= _integer("true_class", self.true_class) < p.shape[0]:
            raise CurriculumError(f"true_class {self.true_class} out of range")
        if _off_simplex(p)[1]:
            raise CurriculumError("target vector is not on the probability simplex")


@dataclass(frozen=True)
class TargetSchedule:
    """Row-stochastic C x C target matrix: row i is the target distribution
    for true class i at the current step. Immutable; step() returns a new
    schedule."""

    targets: np.ndarray
    epsilon: float
    step_count: int = 0

    def __post_init__(self):
        t = np.asarray(self.targets, dtype=float)
        object.__setattr__(self, "targets", t)
        if not 0.0 < _real("epsilon", self.epsilon) < 1.0:
            raise CurriculumError("epsilon must lie in (0, 1)")
        if _integer("step_count", self.step_count) < 0:
            raise CurriculumError("step_count must be >= 0")
        if t.ndim != 2 or t.shape[0] != t.shape[1] or not t.size:
            raise CurriculumError("targets must be a non-empty square matrix")
        if np.logical_or.reduce(_off_simplex(t)[1]):
            raise CurriculumError("every row must be on the probability simplex")
        bad = _off_argmax(t)
        if np.logical_or.reduce(bad):
            raise CurriculumError(f"row {bad.argmax()}: argmax is not the true class")

    @property
    def num_classes(self):
        return self.targets.shape[0]


def init_targets(sim, epsilon):
    """Row-normalize the similarity matrix into the step-0 target schedule."""
    s = sim.entries
    targets = s / s.sum(axis=1, keepdims=True)
    return TargetSchedule(targets=targets, epsilon=epsilon, step_count=0)


def step_row(row, true_class, epsilon):
    """One cooling update of a single target row: off-true entries shrink by
    epsilon and the shared denominator 1 + epsilon * (off-true mass)."""
    off_mass = row.sum() - row[true_class]
    denom = 1.0 + epsilon * off_mass
    out = epsilon * row / denom
    out[true_class] = 1.0 / denom
    return out


def _step_matrix(t, epsilon):
    denom = 1.0 + epsilon * (np.add.reduce(t, axis=1) - t.diagonal())
    out = epsilon * t
    out /= denom[:, None]
    out.flat[::t.shape[0] + 1] = 1.0 / denom
    return out


def step(schedule):
    """Apply the cooling update to every row; the step counter advances by 1.

    One-hot rows are exact fixed points (off-diagonal mass 0, denominator 1).
    """
    return TargetSchedule(targets=_step_matrix(schedule.targets, schedule.epsilon),
                          epsilon=schedule.epsilon,
                          step_count=schedule.step_count + 1)


def advance_to(schedule, t):
    """Evolve the schedule to step t by repeated application of step()."""
    if _integer("t", t) < schedule.step_count:
        raise CurriculumError(
            f"cannot rewind schedule from step {schedule.step_count} to {t}")
    out = schedule
    for _ in range(t - schedule.step_count):
        out = step(out)
    return out


def target_for(schedule, class_index):
    """The target distribution for one class at the schedule's current step."""
    if not 0 <= _integer("class_index", class_index) < schedule.num_classes:
        raise CurriculumError(f"class index {class_index} out of range")
    return TargetVector(probs=schedule.targets[class_index].copy(),
                        true_class=class_index)


def _classes(num_classes):
    """The class indices 0, ..., num_classes - 1 of a checked num_classes."""
    if _integer("num_classes", num_classes) < 1:
        raise CurriculumError("num_classes must be >= 1")
    return np.arange(num_classes)


def one_hot(class_index, num_classes):
    return TargetVector(probs=np.where(_classes(num_classes) == class_index, 1.0, 0.0),
                        true_class=class_index)


def label_smoothing(class_index, num_classes, alpha):
    """Time-invariant smoothed target: (1 - alpha) + alpha/C on the true
    class, alpha/C elsewhere."""
    if not 0.0 <= _real("alpha", alpha) <= 1.0:
        raise CurriculumError("alpha must lie in [0, 1]")
    p = np.where(_classes(num_classes) == class_index,
                 (1.0 - alpha) + alpha / num_classes, alpha / num_classes)
    return TargetVector(probs=p, true_class=class_index)


def entropy(v):
    """Shannon entropy in nats, with 0 ln 0 = 0."""
    p = v.probs if isinstance(v, TargetVector) else np.asarray(v, dtype=float)
    nz = p[p > 0.0]
    return float(-np.sum(nz * np.log(nz)))


@dataclass
class AxiomViolation:
    axiom: str  # entropy-decrease | simplex | argmax | geometric-decay
    row: int
    step: int
    detail: str


@dataclass
class VerificationReport:
    """Per-step record of the curriculum axioms over a horizon."""

    horizon: int
    epsilon: float
    entropies: np.ndarray  # (horizon + 1, C)
    violations: list = field(default_factory=list)

    @property
    def passed(self):
        return not self.violations

    def summary(self):
        lines = [f"curriculum verification: horizon={self.horizon} "
                 f"epsilon={self.epsilon} -> {'PASS' if self.passed else 'FAIL'}"]
        for v in self.violations[:20]:
            lines.append(f"  violation [{v.axiom}] row={v.row} step={v.step}: {v.detail}")
        if len(self.violations) > 20:
            lines.append(f"  ... {len(self.violations) - 20} more")
        return "\n".join(lines)


def verify_curriculum(schedule, horizon):
    """Evolve the schedule for `horizon` steps and check, at every step:
    simplex membership, fixed argmax, strictly decreasing entropy (unless the
    row is already one-hot), and the geometric off-diagonal decay bound."""
    if _integer("horizon", horizon) < 1:
        raise CurriculumError("horizon must be >= 1")
    c = schedule.num_classes
    eps = schedule.epsilon
    initial = schedule.targets.copy()
    entropies = np.zeros((horizon + 1, c))
    violations = []
    off_mask = ~np.eye(c, dtype=bool)
    prev_off_mass = np.zeros(c)
    cur = schedule.targets.copy()

    def row_entropies(mat):
        # 0 ln 0 = 0, and so are the terms of negative and NaN entries;
        # 0.0 - sum keeps a one-hot row's entropy at +0.0
        safe = np.where(mat > 0.0, mat, 1.0)
        terms = np.log(safe)
        terms *= safe
        return 0.0 - terms.sum(axis=1)

    for t in range(horizon + 1):
        entropies[t] = row_entropies(cur)
        row_sums, off_simplex = _off_simplex(cur)
        for i in np.flatnonzero(off_simplex):
            violations.append(AxiomViolation(
                "simplex", int(i), t, f"residual {abs(row_sums[i] - 1.0):.3g}"))
        for i in np.flatnonzero(_off_argmax(cur)) if c > 1 else []:
            violations.append(AxiomViolation(
                "argmax", int(i), t, f"argmax at {int(np.argmax(cur[i]))}"))
        if t > 0:
            # strict decrease, with 1e-14 slack for rounding, unless the row
            # had already collapsed to one-hot
            rising = (prev_off_mass > SIMPLEX_TOL) & \
                (entropies[t] >= entropies[t - 1] + ENTROPY_TOL)
            for i in np.flatnonzero(rising):
                violations.append(AxiomViolation(
                    "entropy-decrease", int(i), t,
                    f"H went {entropies[t - 1, i]:.17g} -> {entropies[t, i]:.17g}"))
            over = off_mask & (cur > eps ** t * initial + DECAY_TOL)
            for i in np.flatnonzero(over.any(axis=1)):
                violations.append(AxiomViolation(
                    "geometric-decay", int(i), t,
                    f"off-diagonal {int(np.argmax(over[i]))} above eps^t bound"))
        prev_off_mass = row_sums - cur.diagonal()
        if t < horizon:
            cur = _step_matrix(cur, eps)
    return VerificationReport(horizon=horizon, epsilon=eps,
                              entropies=entropies, violations=violations)


def off_diagonal_mass_closed_form(s0, epsilon, t):
    """Closed-form off-diagonal mass after t cooling steps from mass s0,
    solving S_{t+1} = eps*S_t / (1 + eps*S_t). Test oracle; the schedule
    itself always evolves by the recursion."""
    if s0 == 0.0:
        return 0.0
    inv_eps_t = epsilon ** (-t)
    inv = inv_eps_t / s0 + (inv_eps_t - 1.0) / (1.0 / epsilon - 1.0)
    return 1.0 / inv


def save_schedule(schedule, path):
    """Write the schedule as CSV, one row per class, full precision, headed
    by a `# epsilon=<e> step=<t>` comment line."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# epsilon={float(schedule.epsilon)!r} step={schedule.step_count}\n")
        _files.write_rows(fh, schedule.targets)
