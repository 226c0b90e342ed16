"""Minimal softmax classifiers (linear and one-hidden-layer MLP), the
regularized cross-entropy objective against soft targets, analytic
gradients, and plain SGD."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curriculum import TargetVector

PROB_FLOOR = 1e-12
CHECKPOINT_MAGIC = "LCLM1"
ARCHITECTURES = ("linear", "mlp1")


class ModelError(ValueError):
    """Invalid model construction or use."""


@dataclass(frozen=True)
class ClassifierParams:
    """Parameters of a softmax-output classifier.

    architecture "linear": W_out (d, C), b_out (C,), W1/b1 unused (None).
    architecture "mlp1": W1 (d, h), b1 (h,), W_out (h, C), b_out (C,).
    """

    architecture: str
    W_out: np.ndarray
    b_out: np.ndarray
    W1: np.ndarray | None = None
    b1: np.ndarray | None = None

    def __post_init__(self):
        if self.architecture not in ARCHITECTURES:
            raise ModelError(f"unknown architecture {self.architecture!r}")
        if self.architecture == "mlp1" and (self.W1 is None or self.b1 is None):
            raise ModelError("mlp1 requires hidden-layer parameters")
        if not self.is_finite():
            raise ModelError("non-finite parameter entries")
        if self.architecture == "mlp1" and self.W1.shape[1] != self.W_out.shape[0]:
            raise ModelError("hidden width mismatch between W1 and W_out")
        if self.W_out.shape[1] != self.b_out.shape[0]:
            raise ModelError("W_out / b_out class-count mismatch")

    def arrays(self):
        out = [self.W_out, self.b_out]
        if self.architecture == "mlp1":
            out = [self.W1, self.b1] + out
        return out

    def is_finite(self):
        return all(np.all(np.isfinite(arr)) for arr in self.arrays())

    @property
    def num_classes(self):
        return self.b_out.shape[0]

    @property
    def input_dim(self):
        return self.W1.shape[0] if self.architecture == "mlp1" else self.W_out.shape[0]


@dataclass(frozen=True)
class GradientBundle:
    """Objective gradient, shape-matched to its ClassifierParams."""

    architecture: str
    W_out: np.ndarray
    b_out: np.ndarray
    W1: np.ndarray | None = None
    b1: np.ndarray | None = None

    def arrays(self):
        out = [self.W_out, self.b_out]
        if self.architecture == "mlp1":
            out = [self.W1, self.b1] + out
        return out


def init_params(architecture, input_dim, num_classes, hidden=64, seed=0):
    """Glorot-uniform weights, zero biases, deterministic per seed."""
    rng = np.random.default_rng(seed)

    def glorot(fan_in, fan_out):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-limit, limit, size=(fan_in, fan_out))

    if architecture == "linear":
        return ClassifierParams(
            architecture="linear",
            W_out=glorot(input_dim, num_classes),
            b_out=np.zeros(num_classes),
        )
    if architecture == "mlp1":
        return ClassifierParams(
            architecture="mlp1",
            W1=glorot(input_dim, hidden),
            b1=np.zeros(hidden),
            W_out=glorot(hidden, num_classes),
            b_out=np.zeros(num_classes),
        )
    raise ModelError(f"unknown architecture {architecture!r}")


def _softmax(logits):
    # max-subtraction keeps exp() in range
    z = logits - np.max(logits, axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def logits(params, x):
    """Pre-softmax outputs; x may be a single d-vector or an (n, d) batch."""
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ModelError("non-finite input")
    if params.architecture == "linear":
        return x @ params.W_out + params.b_out
    hidden = np.maximum(x @ params.W1 + params.b1, 0.0)
    return hidden @ params.W_out + params.b_out


def forward(params, x):
    """Predicted class distribution(s) softmax(logits)."""
    return _softmax(logits(params, x))


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
    r = 0.5 * np.sum(params.W_out ** 2)
    if params.architecture == "mlp1":
        r += 0.5 * np.sum(params.W1 ** 2)
    return float(r)


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


def gradient_from_arrays(params, xs, err, lam=0.0):
    """Backpropagation on dense (n, d) inputs and the (n, C) per-example
    error at the logits (pred - target for the cross-entropy term)."""
    err = err / xs.shape[0]
    if params.architecture == "linear":
        gW = xs.T @ err + lam * params.W_out
        gb = err.sum(axis=0)
        return GradientBundle(architecture="linear", W_out=gW, b_out=gb)
    pre = xs @ params.W1 + params.b1
    hidden = np.maximum(pre, 0.0)
    gW_out = hidden.T @ err + lam * params.W_out
    gb_out = err.sum(axis=0)
    back = (err @ params.W_out.T) * (pre > 0.0)
    gW1 = xs.T @ back + lam * params.W1
    gb1 = back.sum(axis=0)
    return GradientBundle(architecture="mlp1", W1=gW1, b1=gb1,
                          W_out=gW_out, b_out=gb_out)


def sgd_step(params, grads, lr):
    """theta <- theta - lr * g for every parameter array. The result skips
    the ClassifierParams checks: the inputs are checked parameters, and the
    training loop checks finiteness at epoch and trial boundaries."""
    if grads.architecture != params.architecture:
        raise ModelError("gradient/parameter architecture mismatch")
    out = object.__new__(ClassifierParams)
    out.__dict__.update(
        architecture=params.architecture,
        W_out=params.W_out - lr * grads.W_out,
        b_out=params.b_out - lr * grads.b_out)
    if params.architecture == "mlp1":
        out.__dict__.update(W1=params.W1 - lr * grads.W1,
                            b1=params.b1 - lr * grads.b1)
    return out


def save_checkpoint(params, path):
    """Text checkpoint: magic line, architecture, then one `name shape...`
    header plus flat values per parameter array."""
    names = ["W1", "b1", "W_out", "b_out"] if params.architecture == "mlp1" \
        else ["W_out", "b_out"]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{CHECKPOINT_MAGIC}\n{params.architecture}\n")
        for name in names:
            arr = getattr(params, name)
            shape = " ".join(str(s) for s in arr.shape)
            fh.write(f"{name} {shape}\n")
            fh.write(" ".join(repr(float(v)) for v in arr.ravel()) + "\n")


def load_checkpoint(path):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != CHECKPOINT_MAGIC:
        raise ModelError(f"{path}: not a {CHECKPOINT_MAGIC} checkpoint")
    if len(lines) % 2:  # magic, architecture, then header/values pairs
        raise ModelError(f"{path}: truncated checkpoint ({len(lines)} lines)")
    fields = {}
    for i in range(2, len(lines), 2):
        try:
            name, *shape = lines[i].split()
            values = np.array([float(v) for v in lines[i + 1].split()])
            fields[name] = values.reshape(tuple(int(s) for s in shape))
        except ValueError as exc:
            raise ModelError(f"{path}:{i + 1}: bad parameter entry: {exc}") from exc
    try:
        return ClassifierParams(architecture=lines[1], **fields)
    except TypeError as exc:
        raise ModelError(f"{path}: wrong parameter set: {exc}") from exc
