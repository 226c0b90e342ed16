"""Time-evolving soft-label targets: similarity-based initialization, the
geometric cooling update, baseline encodings, and axiom verification."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

SIMPLEX_TOL = 1e-12
DECAY_TOL = 1e-12
ENTROPY_TOL = 1e-14


class CurriculumError(ValueError):
    """Invalid curriculum construction or evolution request."""


@dataclass(frozen=True)
class TargetVector:
    """A single target distribution over C classes with its true class."""

    probs: np.ndarray
    true_class: int

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        object.__setattr__(self, "probs", p)
        if not 0 <= self.true_class < p.shape[0]:
            raise CurriculumError(f"true_class {self.true_class} out of range")
        # written so that a NaN entry fails the test
        if not (np.all(p >= 0.0) and abs(p.sum() - 1.0) <= SIMPLEX_TOL):
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
        if not 0.0 < self.epsilon < 1.0:
            raise CurriculumError("epsilon must lie in (0, 1)")
        if self.step_count < 0:
            raise CurriculumError("step counter must be nonnegative")
        c = t.shape[0]
        if t.ndim != 2 or t.shape[1] != c:
            raise CurriculumError("targets must be a square matrix")
        # written so that a NaN entry fails the test
        if not (np.all(t >= 0.0) and np.max(np.abs(t.sum(axis=1) - 1.0)) <= SIMPLEX_TOL):
            raise CurriculumError("every row must be on the probability simplex")
        # each diagonal entry strictly above its row's off-diagonal maximum;
        # a NaN anywhere in a row fails the comparison
        off_max = np.where(np.eye(c, dtype=bool), -np.inf, t).max(axis=1)
        bad = np.flatnonzero(~(np.diag(t) > off_max))
        if bad.size:
            raise CurriculumError(f"row {bad[0]}: argmax is not the true class")

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
    c = t.shape[0]
    diag = np.diag(t)
    off_mass = t.sum(axis=1) - diag
    denom = 1.0 + epsilon * off_mass
    out = epsilon * t / denom[:, None]
    out[np.arange(c), np.arange(c)] = 1.0 / denom
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
    if t < schedule.step_count:
        raise CurriculumError(
            f"cannot rewind schedule from step {schedule.step_count} to {t}")
    out = schedule
    for _ in range(t - schedule.step_count):
        out = step(out)
    return out


def target_for(schedule, class_index):
    """The target distribution for one class at the schedule's current step."""
    if not 0 <= class_index < schedule.num_classes:
        raise CurriculumError(f"class index {class_index} out of range")
    return TargetVector(probs=schedule.targets[class_index].copy(),
                        true_class=class_index)


def one_hot(class_index, num_classes):
    if not 0 <= class_index < num_classes:
        raise CurriculumError(f"class index {class_index} out of range")
    p = np.zeros(num_classes)
    p[class_index] = 1.0
    return TargetVector(probs=p, true_class=class_index)


def label_smoothing(class_index, num_classes, alpha):
    """Time-invariant smoothed target: (1 - alpha) + alpha/C on the true
    class, alpha/C elsewhere."""
    if not 0 <= class_index < num_classes:
        raise CurriculumError(f"class index {class_index} out of range")
    if not 0.0 <= alpha <= 1.0:
        raise CurriculumError("alpha must lie in [0, 1]")
    p = np.full(num_classes, alpha / num_classes)
    p[class_index] = (1.0 - alpha) + alpha / num_classes
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
    if horizon < 1:
        raise CurriculumError("horizon must be >= 1")
    c = schedule.num_classes
    eps = schedule.epsilon
    initial = schedule.targets.copy()
    entropies = np.zeros((horizon + 1, c))
    violations = []
    idx = np.arange(c)
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
        row_sums = cur.sum(axis=1)
        diag = cur[idx, idx]
        entropies[t] = row_entropies(cur)
        resid = np.abs(row_sums - 1.0)
        bad = ~((cur >= 0.0).all(axis=1) & (resid <= SIMPLEX_TOL))
        for i in np.flatnonzero(bad):
            violations.append(AxiomViolation(
                "simplex", int(i), t, f"residual {resid[i]:.3g}"))
        off_max = np.where(off_mask, cur, -np.inf).max(axis=1)
        for i in np.flatnonzero(~(diag > off_max)) if c > 1 else []:
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
        prev_off_mass = row_sums - diag
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
        fh.write(f"# epsilon={schedule.epsilon!r} step={schedule.step_count}\n")
        for row in schedule.targets:
            fh.write(",".join(repr(float(x)) for x in row) + "\n")
