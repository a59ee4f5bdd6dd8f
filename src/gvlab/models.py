"""Generalized linear classifiers trained from scratch.

A :class:`LinearModel` is an affine map with a sigmoid head (binary, one
weight row) or a softmax head (K rows), producing a score vector in
``[0,1]^K`` that sums to one.  Training is mini-batch SGD with momentum
under cross-entropy loss, deterministic given the config seed:

- weights and bias start at zero, so repeated runs share the optimum of
  the convex objective and 100-run averages are reproducible;
- each epoch shuffles with a generator seeded by (base seed, epoch);
- the loss uses log-sum-exp / log1p-of-exp stabilized forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from .errors import GvlabError

Head = Literal["sigmoid", "softmax"]


@dataclass(frozen=True)
class VectorDataset:
    """Dense-feature classification data: inputs (n, d), labels in 0..k-1."""

    x: np.ndarray
    y: np.ndarray
    k: int

    def __post_init__(self):
        x = np.ascontiguousarray(np.asarray(self.x, dtype=np.float64))
        y = np.ascontiguousarray(np.asarray(self.y, dtype=np.int64))
        x.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        if x.ndim != 2 or y.shape != (x.shape[0],):
            raise GvlabError("bad-input-dim", "x must be (n, d) with aligned labels")
        if self.k < 2:
            raise GvlabError("bad-variable", "need at least two classes")
        if y.size and (y.min() < 0 or y.max() >= self.k):
            raise GvlabError("bad-variable", "labels must lie in 0..k-1")

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def d(self) -> int:
        return self.x.shape[1]


@dataclass(frozen=True)
class LinearModel:
    """Affine classifier with a sigmoid or softmax head."""

    weights: np.ndarray  # (1, d) sigmoid / (k, d) softmax
    bias: np.ndarray     # (1,) or (k,)
    head: Head

    def __post_init__(self):
        w = np.ascontiguousarray(np.asarray(self.weights, dtype=np.float64))
        b = np.ascontiguousarray(np.asarray(self.bias, dtype=np.float64))
        w.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "bias", b)
        if w.ndim != 2 or b.shape != (w.shape[0],):
            raise GvlabError("bad-variable", "weights must be (rows, d) with aligned bias")
        if not (np.isfinite(w).all() and np.isfinite(b).all()):
            raise GvlabError("bad-variable", "model parameters must be finite")
        if self.head == "sigmoid" and w.shape[0] != 1:
            raise GvlabError("bad-variable", "sigmoid head stores a single weight row")
        if self.head == "softmax" and w.shape[0] < 2:
            raise GvlabError("bad-variable", "softmax head needs >= 2 weight rows")

    @property
    def d(self) -> int:
        return self.weights.shape[1]

    @property
    def k(self) -> int:
        return 2 if self.head == "sigmoid" else self.weights.shape[0]

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Score vector(s) for one input (d,) or a batch (n, d)."""
        x = np.asarray(x, dtype=np.float64)
        single = x.ndim == 1
        batch = x[None, :] if single else x
        if batch.ndim != 2 or batch.shape[1] != self.d:
            raise GvlabError("bad-input-dim", f"expected inputs of dimension {self.d}")
        if self.head == "sigmoid":
            z = batch @ self.weights[0] + self.bias[0]
            s = _sigmoid(z)
            probs = np.column_stack([1.0 - s, s])
        else:
            logits = batch @ self.weights.T + self.bias
            logits -= logits.max(axis=1, keepdims=True)
            e = np.exp(logits)
            probs = e / e.sum(axis=1, keepdims=True)
        return probs[0] if single else probs


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.01
    momentum: float = 0.9
    batch_size: int = 256
    epochs: int = 100
    seed: int = 0

    def __post_init__(self):
        # learning_rate 0 is allowed so a no-update run stays expressible.
        if self.learning_rate < 0.0:
            raise GvlabError("bad-config", "learning rate must be >= 0")
        if not 0.0 <= self.momentum < 1.0:
            raise GvlabError("bad-config", "momentum must lie in [0, 1)")
        if self.batch_size < 1 or self.epochs < 1:
            raise GvlabError("bad-config", "batch size and epochs must be >= 1")


@dataclass(frozen=True)
class TrainResult:
    model: LinearModel
    loss_curve: tuple[float, ...]
    estimated_error_curve: tuple[float, ...]


def _epoch_rng(seed: int, epoch: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, epoch)))


def train(data: VectorDataset, config: TrainConfig) -> TrainResult:
    """Mini-batch SGD with momentum from zero initialization.

    The loss curve holds each epoch's mean sample loss; the estimated
    error curve holds 1 minus the mean maximum score over the training
    inputs at the end of each epoch.
    """
    if data.n == 0:
        raise GvlabError("empty-dataset", "cannot train on an empty dataset")
    if config.batch_size > data.n:
        raise GvlabError("bad-config", f"batch size {config.batch_size} exceeds n={data.n}")
    head: Head = "sigmoid" if data.k == 2 else "softmax"
    rows = 1 if head == "sigmoid" else data.k
    w = np.zeros((rows, data.d))
    b = np.zeros(rows)
    vw = np.zeros_like(w)
    vb = np.zeros_like(b)

    losses, estimated_errors = [], []
    with np.errstate(over="ignore", invalid="ignore"):  # divergence detected per epoch
        for epoch in range(config.epochs):
            order = _epoch_rng(config.seed, epoch).permutation(data.n)
            loss_sum = 0.0
            for start in range(0, data.n, config.batch_size):
                idx = order[start:start + config.batch_size]
                batch_loss, gw, gb = _loss_sum_and_gradients(w, b, head, data.x[idx], data.y[idx])
                loss_sum += batch_loss
                vw = config.momentum * vw + gw
                vb = config.momentum * vb + gb
                w = w - config.learning_rate * vw
                b = b - config.learning_rate * vb
            if not (np.isfinite(w).all() and np.isfinite(b).all() and np.isfinite(loss_sum)):
                raise GvlabError("diverged", f"non-finite parameters or loss at epoch {epoch}")
            losses.append(loss_sum / data.n)
            model = LinearModel(w, b, head)
            estimated_errors.append(1.0 - float(model.forward(data.x).max(axis=1).mean()))
    return TrainResult(LinearModel(w, b, head), tuple(losses), tuple(estimated_errors))


@dataclass(frozen=True)
class RiskReport:
    zero_one_error: float
    mean_max_output: float


def risk(model: LinearModel, data: VectorDataset) -> RiskReport:
    """0/1 error (argmax prediction, ties to the lowest label) and mean max score."""
    if data.n == 0:
        raise GvlabError("empty-dataset", "risk needs a non-empty dataset")
    probs = model.forward(data.x)
    predictions = probs.argmax(axis=1)
    return RiskReport(float((predictions != data.y).mean()), float(probs.max(axis=1).mean()))


def loss_and_gradients(model: LinearModel, x: np.ndarray, y: np.ndarray
                       ) -> tuple[float, np.ndarray, np.ndarray]:
    """Mean cross-entropy on a batch with analytic parameter gradients."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if x.ndim != 2 or x.shape[1] != model.d:
        raise GvlabError("bad-input-dim", f"expected inputs of dimension {model.d}")
    loss_sum, gw, gb = _loss_sum_and_gradients(model.weights, model.bias, model.head, x, y)
    return loss_sum / x.shape[0], gw, gb


def _loss_sum_and_gradients(w: np.ndarray, b: np.ndarray, head: Head, x: np.ndarray,
                            y: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """Summed cross-entropy on a batch and the gradients of its mean.

    This is the one gradient: ``train`` steps with it and
    ``loss_and_gradients`` exposes it for checking.
    """
    n = x.shape[0]
    if head == "sigmoid":
        z = x @ w[0] + b[0]
        yf = y.astype(np.float64)
        loss = float(np.sum(np.maximum(z, 0.0) - z * yf + np.log1p(np.exp(-np.abs(z)))))
        gz = (_sigmoid(z) - yf) / n
        return loss, (gz @ x)[None, :], np.array([gz.sum()])
    logits = x @ w.T + b
    shifted = logits - logits.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1)) + logits.max(axis=1)
    loss = float(np.sum(lse - logits[np.arange(n), y]))
    probs = np.exp(shifted)
    probs /= probs.sum(axis=1, keepdims=True)
    gl = (probs - np.eye(w.shape[0])[y]) / n
    return loss, gl.T @ x, gl.sum(axis=0)


def save_model(model: LinearModel, path: str) -> None:
    """Plain-text rows: one line per weight row, then the bias line (17 sig digits)."""
    with open(path, "w") as fh:
        for row in model.weights:
            fh.write(" ".join(f"{v:.17g}" for v in row) + "\n")
        fh.write(" ".join(f"{v:.17g}" for v in model.bias) + "\n")


def load_model(path: str) -> LinearModel:
    with open(path) as fh:
        rows = [np.array([float(v) for v in line.split()]) for line in fh if line.strip()]
    weights = np.vstack(rows[:-1])
    head: Head = "sigmoid" if weights.shape[0] == 1 else "softmax"
    return LinearModel(weights, rows[-1], head)
