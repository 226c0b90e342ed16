"""Minimal softmax classifiers (linear and one-hidden-layer MLP), the
regularized cross-entropy objective against soft targets, analytic
gradients, and plain SGD."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _files
from .curriculum import TargetVector, _unchecked

PROB_FLOOR = 1e-12
CHECKPOINT_MAGIC = "LCLM1"
# each architecture's parameter arrays, input layer first, as (weight, bias)
# pairs; arrays(), checkpoints and every constructor follow this order
LAYOUT = {"linear": ("W_out", "b_out"), "mlp1": ("W1", "b1", "W_out", "b_out")}
ARCHITECTURES = tuple(LAYOUT)


class ModelError(ValueError):
    """Invalid model construction or use."""


@dataclass(frozen=True)
class ClassifierParams:
    """Parameters of a softmax-output classifier, or an objective gradient
    shape-matched to them (GradientBundle is the same type).

    architecture "linear": W_out (d, C), b_out (C,), W1/b1 unused (None).
    architecture "mlp1": W1 (d, h), b1 (h,), W_out (h, C), b_out (C,).
    """

    architecture: str
    W_out: np.ndarray
    b_out: np.ndarray
    W1: np.ndarray | None = None
    b1: np.ndarray | None = None

    def __post_init__(self):
        if self.architecture not in LAYOUT:
            raise ModelError(f"unknown architecture {self.architecture!r}")
        missing = [name for name in LAYOUT[self.architecture] if getattr(self, name) is None]
        if missing:
            raise ModelError(f"{self.architecture} requires {', '.join(missing)}")
        if not self.is_finite():
            raise ModelError("non-finite parameter entries")
        if self.architecture == "mlp1" and not (
                self.W1.shape[1] == self.b1.shape[0] == self.W_out.shape[0]):
            raise ModelError("hidden width mismatch between W1, b1 and W_out")
        if self.W_out.shape[1] != self.b_out.shape[0]:
            raise ModelError("W_out / b_out class-count mismatch")

    def arrays(self):
        return [getattr(self, name) for name in LAYOUT[self.architecture]]

    def is_finite(self):
        return all(np.all(np.isfinite(arr)) for arr in self.arrays())


GradientBundle = ClassifierParams


def init_params(architecture, input_dim, num_classes, hidden=64, seed=0):
    """Glorot-uniform weights, zero biases, deterministic per seed; weights
    are drawn input layer first."""
    if architecture not in LAYOUT:
        raise ModelError(f"unknown architecture {architecture!r}")
    rng = np.random.default_rng(seed)
    names = LAYOUT[architecture]
    widths = [input_dim] + [hidden] * (len(names) // 2 - 1) + [num_classes]
    arrays = []
    for fan_in, fan_out in zip(widths, widths[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        arrays += [rng.uniform(-limit, limit, size=(fan_in, fan_out)), np.zeros(fan_out)]
    return ClassifierParams(architecture=architecture, **dict(zip(names, arrays)))


def _softmax(logits, out=None):
    """Row-wise softmax, written into out (which may be logits itself) or,
    without out, into a new array."""
    # max-subtraction keeps exp() in range; exp and the division reuse z; the
    # ufunc reductions are what ndarray.max and .sum call, minus a wrapper
    z = np.subtract(logits, np.maximum.reduce(logits, axis=-1, keepdims=True), out=out)
    np.exp(z, out=z)
    z /= np.add.reduce(z, axis=-1, keepdims=True)
    return z


def _logits(params, x):
    """Unchecked logits, a new array, and the mlp1 hidden layer as
    (pre-activation, ReLU)."""
    # each bias is added in place: `x @ W + b` would hold the product and the sum at once
    hidden = None
    if params.architecture == "mlp1":
        pre = x @ params.W1
        pre += params.b1
        hidden = pre, np.maximum(pre, 0.0)
        x = hidden[1]
    z = x @ params.W_out
    z += params.b_out
    return z, hidden


def logits(params, x):
    """Pre-softmax outputs; x may be a single d-vector or an (n, d) batch."""
    x = np.asarray(x, dtype=float)
    if not np.isfinite(x).all():
        raise ModelError("non-finite input")
    return _logits(params, x)[0]


def forward(params, x):
    """Predicted class distribution(s) softmax(logits)."""
    z = logits(params, x)
    return _softmax(z, out=z)


def forward_batch(params, xs):
    """forward() of an (n, d) batch and the hidden layer for gradient_from_arrays,
    without the scan for non-finite inputs: a Dataset has checked them."""
    z, hidden = _logits(params, xs)
    return _softmax(z, out=z), hidden


def cross_entropy(pred, target):
    """-sum target_c ln pred_c, with predictions floored at 1e-12."""
    t = target.probs if isinstance(target, TargetVector) else np.asarray(target, dtype=float)
    p = np.maximum(np.asarray(pred, dtype=float), PROB_FLOOR)
    return float(-np.sum(t * np.log(p)))


def kl_divergence(p, q):
    """KL(p || q) with 0 ln 0 = 0 and q floored at 1e-12."""
    p = np.asarray(p, dtype=float)
    q = np.maximum(np.asarray(q, dtype=float), PROB_FLOOR)
    nz = p > 0.0
    return float(np.sum(p[nz] * np.log(p[nz] / q[nz])))


def kl_rows(p, q):
    """Row-wise KL(p_i || q_i) of (n, C) batches, as kl_divergence per row."""
    q = np.maximum(q, PROB_FLOOR)
    # where p is 0 the log argument is 1/q, finite, and its term is 0
    return np.sum(p * np.log(np.where(p > 0.0, p, 1.0) / q), axis=-1)


def dml_pair_losses(pred1, pred2, target1, target2):
    """Per-model mutual-learning losses: own cross-entropy plus a KL mimicry
    term toward the other model's prediction."""
    loss1 = cross_entropy(pred1, target1) + kl_divergence(pred2, pred1)
    loss2 = cross_entropy(pred2, target2) + kl_divergence(pred1, pred2)
    return loss1, loss2


def _batch_arrays(batch):
    xs = np.asarray([np.asarray(x, dtype=float) for x, _ in batch])
    ts = np.asarray([t.probs if isinstance(t, TargetVector) else np.asarray(t, dtype=float)
                     for _, t in batch])
    return xs, ts


def regularizer(params):
    """Half the summed squared weights; biases excluded."""
    # Python floats round as numpy's float64 scalars do, at less cost
    r = 0.5 * float(np.add.reduce(params.W_out * params.W_out, axis=None))
    if params.architecture == "mlp1":
        r += 0.5 * float(np.add.reduce(params.W1 * params.W1, axis=None))
    return r


def objective(params, batch, lam=0.0):
    """Mean batch cross-entropy plus lam * (1/2 sum W^2)."""
    if not batch:
        raise ModelError("empty batch")
    xs, ts = _batch_arrays(batch)
    preds = forward(params, xs)
    ce = -np.sum(ts * np.log(np.maximum(preds, PROB_FLOOR)), axis=1)
    return float(np.mean(ce) + lam * regularizer(params))


def gradient(params, batch, lam=0.0):
    """Analytic gradient of objective(); output-layer error per example is
    pred - target, ReLU subgradient at 0 taken as 0."""
    if not batch:
        raise ModelError("empty batch")
    xs, ts = _batch_arrays(batch)
    return gradient_from_arrays(params, xs, forward(params, xs) - ts, lam)


def gradient_from_arrays(params, xs, err, lam=0.0, hidden=None):
    """Backpropagation on dense (n, d) inputs and the (n, C) per-example
    error at the logits (pred - target for the cross-entropy term). hidden is
    the hidden layer forward_batch returned for xs; None recomputes it. The
    result skips the ClassifierParams checks: the training loop checks
    finiteness at epoch and trial boundaries."""
    err = err / xs.shape[0]
    architecture = params.architecture
    if architecture == "linear":
        grads = {"architecture": architecture, "W_out": xs.T @ err,
                 "b_out": np.add.reduce(err, axis=0)}
    else:
        pre, act = _logits(params, xs)[1] if hidden is None else hidden
        back = err @ params.W_out.T
        back *= pre > 0.0
        grads = {"architecture": architecture, "W1": xs.T @ back,
                 "b1": np.add.reduce(back, axis=0), "W_out": act.T @ err,
                 "b_out": np.add.reduce(err, axis=0)}
    if lam:  # weight decay on the weights, every other array in LAYOUT order
        for name in LAYOUT[architecture][::2]:
            grads[name] += lam * getattr(params, name)
    return _unchecked(ClassifierParams, grads)


def sgd_step(params, grads, lr):
    """theta <- theta - lr * g for every parameter array. Like the gradient,
    the result skips the ClassifierParams checks. Each new array is written
    over the lr * g computed for it, so it takes the gradient's dtype:
    float64 for every gradient of float64 inputs."""
    if grads.architecture != params.architecture:
        raise ModelError("gradient/parameter architecture mismatch")
    old, step = params.__dict__, grads.__dict__
    new = {"architecture": params.architecture}
    for name in LAYOUT[params.architecture]:
        t = np.multiply(step[name], lr)
        new[name] = np.subtract(old[name], t, out=t)
    return _unchecked(ClassifierParams, new)


def save_checkpoint(params, path):
    """Text checkpoint: magic line, architecture, then one `name shape...`
    header plus flat values per parameter array."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{CHECKPOINT_MAGIC}\n{params.architecture}\n")
        for name, arr in zip(LAYOUT[params.architecture], params.arrays()):
            fh.write(f"{name} {' '.join(map(str, arr.shape))}\n")
            _files.write_rows(fh, arr.reshape(1, -1), sep=" ")


def load_checkpoint(path):
    with _files.named(path, ModelError), open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != CHECKPOINT_MAGIC:
        raise ModelError(f"{path}: not a {CHECKPOINT_MAGIC} checkpoint")
    if len(lines) % 2:  # magic, architecture, then header/values pairs
        raise ModelError(f"{path}: truncated checkpoint ({len(lines)} lines)")
    names = tuple(line.split(" ", 1)[0] for line in lines[2::2])
    if names != LAYOUT.get(lines[1]):  # an unknown architecture has no layout
        raise ModelError(f"{path}: arrays {', '.join(names) or '(none)'} do not match "
                         f"architecture {lines[1]!r}")
    fields = {}
    for i in range(2, len(lines), 2):
        name, *shape = lines[i].split()
        values = _files.floats(lines[i + 1].split(), f"{path}:{i + 2}", ModelError)
        try:
            fields[name] = np.array(values).reshape(tuple(int(s) for s in shape))
        except ValueError as exc:
            raise ModelError(f"{path}:{i + 1}: bad parameter entry: {exc}") from exc
    with _files.named(path, ModelError, ModelError):  # arrays whose shapes do not fit
        return ClassifierParams(architecture=lines[1], **fields)
