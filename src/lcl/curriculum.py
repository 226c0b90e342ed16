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
VERIFY_BLOCK_BYTES = 2 ** 18  # a row block of verify_curriculum, sized to stay in cache


class CurriculumError(ValueError):
    """Invalid curriculum construction or evolution request."""


def _is_integer(value):
    """The one integer rule of every count, index and seed: a numbers.Integral,
    numpy's integers included, other than a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _integer(name, value, error=CurriculumError):
    """value, if it is an integer; else `error` naming the field."""
    if not _is_integer(value):
        raise error(f"{name} must be an integer, got {value!r}")
    return value


def _real(name, value, error=CurriculumError):
    """value, if it is a real number (numbers.Real, numpy's floats included)
    other than a bool; else `error` naming the field."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise error(f"{name} must be a real number, got {value!r}")
    return value


def _off_simplex(t):
    """Each row's sum, and the mask of rows off the probability simplex: a
    negative entry or a sum more than SIMPLEX_TOL from 1. Written so that a
    NaN puts its row in the mask."""
    sums = np.add.reduce(t, axis=-1)
    return sums, ~(np.logical_and.reduce(t >= 0.0, axis=-1)
                   & (np.abs(sums - 1.0) <= SIMPLEX_TOL))


def _off_argmax(t, first=0):
    """The rows of t, rows first, first + 1, ... of a square matrix, whose
    diagonal entry is not strictly above the row's other entries; a NaN
    anywhere in a row puts it in the mask."""
    off = t.copy()
    off.reshape(-1)[first::t.shape[1] + 1] = -np.inf  # a C-ordered copy: reshape is a view
    return ~(t.diagonal(first) > np.maximum.reduce(off, axis=1))


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


def _step_matrix(t, epsilon, sums=None, first=0):
    """The cooling update of t, rows first, first + 1, ... of a square
    matrix, as a new array; `sums`, if given, are t's row sums."""
    if sums is None:
        sums = np.add.reduce(t, axis=1)
    denom = 1.0 + epsilon * (sums - t.diagonal(first))
    out = np.multiply(t, epsilon)
    out /= denom[:, None]
    out.flat[first::t.shape[1] + 1] = 1.0 / denom
    return out


def _unchecked(cls, fields):
    """The frozen dataclass cls with the attribute dict fields, skipping its
    constructor's checks: for results that a checked input keeps valid, such
    as steps of a checked schedule, which the cooling update keeps on the
    simplex with its argmax fixed (verify_curriculum checks that claim)."""
    out = object.__new__(cls)
    object.__setattr__(out, "__dict__", fields)
    return out


def step(schedule):
    """Apply the cooling update to every row; the step counter advances by 1.

    One-hot rows are exact fixed points (off-diagonal mass 0, denominator 1).
    """
    return TargetSchedule(targets=_step_matrix(schedule.targets, schedule.epsilon),
                          epsilon=schedule.epsilon,
                          step_count=schedule.step_count + 1)


def advance_to(schedule, t):
    """Evolve the schedule to step t by repeated application of the cooling
    update; the steps of a checked schedule are not checked again."""
    if _integer("t", t) < schedule.step_count:
        raise CurriculumError(
            f"cannot rewind schedule from step {schedule.step_count} to {t}")
    out = schedule
    for _ in range(t - schedule.step_count):
        out = _unchecked(TargetSchedule, {"targets": _step_matrix(out.targets, out.epsilon),
                                          "epsilon": out.epsilon,
                                          "step_count": out.step_count + 1})
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


AXIOMS = ("simplex", "argmax", "entropy-decrease", "geometric-decay")  # report order


def verify_curriculum(schedule, horizon):
    """Evolve the schedule for `horizon` steps and check, at every step:
    simplex membership, fixed argmax, strictly decreasing entropy (unless the
    row is already one-hot), and the geometric off-diagonal decay bound.

    A row evolves and is checked on its own, so blocks of rows of about
    VERIFY_BLOCK_BYTES each run through the whole horizon while their arrays
    stay in cache; the violations are then listed by step, axiom and row."""
    if _integer("horizon", horizon) < 1:
        raise CurriculumError("horizon must be >= 1")
    c, eps = schedule.num_classes, schedule.epsilon
    try:
        entropies = np.zeros((horizon + 1, c))
    # numpy's message names the size it could not allocate, or says that no
    # array can be that large
    except (MemoryError, ValueError) as exc:
        raise CurriculumError(f"horizon {horizon} is too long: {exc}") from exc
    violations = []
    rows = max(1, VERIFY_BLOCK_BYTES // (8 * c))
    for first in range(0, c, rows):
        block = slice(first, first + rows)
        violations += _verify_rows(schedule.targets[block], first, eps, horizon,
                                   entropies[:, block])
    violations.sort(key=lambda v: (v.step, AXIOMS.index(v.axiom), v.row))
    return VerificationReport(horizon=horizon, epsilon=eps,
                              entropies=entropies, violations=violations)


def _verify_rows(initial, first, eps, horizon, entropies):
    """verify_curriculum's checks of the rows `initial`, rows first, first + 1,
    ... of a C x C schedule: returns their violations and writes their
    entropies into the (horizon + 1, rows) view `entropies`.

    Each axiom is first tested on the whole block; its per-row mask is built
    only at a step where that test fails. Every temporary is block-sized."""
    c = initial.shape[1]
    # row-major, as the row sums' bits and the diagonal masks' reshape views
    # assume; a C-ordered schedule's block already is, and is not copied
    cur = initial = np.ascontiguousarray(initial)
    found = []
    for t in range(horizon + 1):
        sums = np.add.reduce(cur, axis=1)
        nonnegative = np.minimum.reduce(cur, axis=None) >= 0.0  # NaN fails it
        # 0 ln 0 = 0: a zero entry's term is ln(5e-324) * 0 = -0.0, which
        # leaves its row's sum as it was. Negative and NaN entries also give
        # 0, as ln(1) * 1
        if nonnegative:
            terms = np.log(np.maximum(cur, 5e-324))
            terms *= cur
        else:
            positive = np.where(cur > 0.0, cur, 1.0)
            terms = np.log(positive)
            terms *= positive
        # 0.0 - sum keeps a one-hot row's entropy at +0.0
        entropies[t] = 0.0 - np.add.reduce(terms, axis=1)
        on_simplex = nonnegative and np.maximum.reduce(np.abs(sums - 1.0)) <= SIMPLEX_TOL
        if not on_simplex:
            for i in np.flatnonzero(_off_simplex(cur)[1]):
                found.append(AxiomViolation(
                    "simplex", first + int(i), t, f"residual {abs(sums[i] - 1.0):.3g}"))
        # on the simplex, a diagonal entry d above 1/2 + SIMPLEX_TOL beats every
        # other entry of its row, which is at most 1 + SIMPLEX_TOL - d (a sum's
        # rounding error is far below SIMPLEX_TOL); from step 1 on a checked
        # schedule's diagonal is about 1 / (1 + eps) or more, so only step 0
        # needs the scan, unless eps is within 4e-12 of 1
        if c > 1 and not (on_simplex and
                          np.minimum.reduce(cur.diagonal(first)) > 0.5 + SIMPLEX_TOL):
            for i in _off_argmax(cur, first).nonzero()[0]:
                found.append(AxiomViolation(
                    "argmax", first + int(i), t, f"argmax at {int(np.argmax(cur[i]))}"))
        if t > 0:
            # strict decrease, with 1e-14 slack for rounding, unless the row
            # had already collapsed to one-hot
            rising = (prev_off_mass > SIMPLEX_TOL) & \
                (entropies[t] >= entropies[t - 1] + ENTROPY_TOL)
            for i in rising.nonzero()[0]:
                found.append(AxiomViolation(
                    "entropy-decrease", first + int(i), t,
                    f"H went {entropies[t - 1, i]:.17g} -> {entropies[t, i]:.17g}"))
            over = cur > initial * eps ** t + DECAY_TOL
            over.reshape(-1)[first::c + 1] = False  # off-diagonal entries only
            if np.logical_or.reduce(over, axis=None):
                for i in np.flatnonzero(np.logical_or.reduce(over, axis=1)):
                    found.append(AxiomViolation(
                        "geometric-decay", first + int(i), t,
                        f"off-diagonal {int(np.argmax(over[i]))} above eps^t bound"))
        prev_off_mass = sums - cur.diagonal(first)
        if t < horizon:
            cur = _step_matrix(cur, eps, sums, first=first)
    return found


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
