"""Generalized linear classifiers trained from scratch.

A :class:`LinearModel` is an affine map with a sigmoid head (binary, one
weight row) or a softmax head (K rows), producing a score vector in
``[0,1]^K`` that sums to one.  Training is mini-batch SGD with momentum
under cross-entropy loss, deterministic given the config seed:

- weights and bias start at zero, so repeated runs share the optimum of
  the convex objective and 100-run averages are reproducible;
- each epoch shuffles with a generator seeded by (base seed, epoch);
- the loss uses log-sum-exp / log1p-of-exp stabilized forms;
- training records each epoch's mean loss; the mean-max-output error
  estimate is taken once, from :func:`risk` on the trained model;
- models whose data differ only in substituted columns train in one
  lockstep loop (:func:`train_lockstep`), bit-identical to separate runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Sequence

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
        probs = _probs(self.weights[None], self.bias[None], self.head, batch[None])[0]
        return probs[0] if single else probs


def _sigmoid_terms(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``exp(-|z|)`` and the sigmoid of ``z``, both from that one exp.

    Each branch of the ``where`` is the stable form for its sign of ``z``,
    so the values equal the textbook masked evaluation bit for bit.
    """
    e = np.exp(-np.abs(z))
    return e, np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _probs(w: np.ndarray, b: np.ndarray, head: Head, x: np.ndarray) -> np.ndarray:
    """Score vectors (models, rows, k) of stacked models ``w`` (models, rows_w, d),
    ``b`` (models, rows_w) on stacked inputs ``x`` (models, rows, d)."""
    if head == "sigmoid":
        _, s = _sigmoid_terms((x @ w[:, 0, :, None])[..., 0] + b)
        return np.stack([1.0 - s, s], axis=-1)
    logits = x @ w.transpose(0, 2, 1) + b[:, None, :]
    logits -= logits.max(axis=2, keepdims=True)
    e = np.exp(logits)
    return e / e.sum(axis=2, keepdims=True)


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


def _epoch_rng(seed: int, epoch: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, epoch)))


def train(data: VectorDataset, config: TrainConfig) -> TrainResult:
    """Mini-batch SGD with momentum from zero initialization.

    The loss curve holds each epoch's mean sample loss.
    """
    return train_lockstep(data, config)[0]


def train_lockstep(data: VectorDataset, config: TrainConfig,
                   substitutions: Sequence[tuple[int, np.ndarray]] = ()
                   ) -> tuple[TrainResult, ...]:
    """Train ``1 + len(substitutions)`` models in one SGD loop.

    Model 0 trains on ``data``; model ``i`` trains on ``data`` with column
    ``substitutions[i-1][0]`` replaced by the length-n column
    ``substitutions[i-1][1]``.  All models start from zero under one seed,
    so they share every epoch's permutation, and each result is
    bit-identical to ``train`` on its own substituted dataset: stacked
    ``matmul`` calls BLAS once per model and every reduction runs along one
    model's row.  No stacked copy of the dataset is made: each minibatch is
    gathered from the shared rows.
    A model that diverges raises at the epoch where that ``train`` call
    would; with several, the first model in order decides.
    """
    if data.n == 0:
        raise GvlabError("empty-dataset", "cannot train on an empty dataset")
    if config.batch_size > data.n:
        raise GvlabError("bad-config", f"batch size {config.batch_size} exceeds n={data.n}")
    dims = np.array([int(j) for j, _ in substitutions], dtype=np.int64)
    noise = np.empty((data.n, len(dims)))
    for i, (j, column) in enumerate(substitutions):
        if not 0 <= j < data.d:
            raise GvlabError("bad-variable", f"dimension {j} outside 0..{data.d - 1}")
        column = np.asarray(column, dtype=np.float64)
        if column.shape != (data.n,):
            raise GvlabError("bad-input-dim", f"substitute for dimension {j} must have "
                                              f"shape ({data.n},), got {column.shape}")
        noise[:, i] = column
    models = len(dims) + 1
    substituted = np.arange(1, models)
    head: Head = "sigmoid" if data.k == 2 else "softmax"
    rows = 1 if head == "sigmoid" else data.k
    w = np.zeros((models, rows, data.d))
    b = np.zeros((models, rows))
    vw = np.zeros_like(w)
    vb = np.zeros_like(b)

    losses = np.empty((config.epochs, models))
    diverged_at = np.full(models, -1)
    with np.errstate(over="ignore", invalid="ignore"):  # divergence detected per epoch
        for epoch in range(config.epochs):
            order = _epoch_rng(config.seed, epoch).permutation(data.n)
            loss_sum = np.zeros(models)
            for start in range(0, data.n, config.batch_size):
                idx = order[start:start + config.batch_size]
                x = np.repeat(data.x[idx][None], models, axis=0)
                x[substituted, :, dims] = noise[idx].T
                batch_loss, gw, gb = _loss_sum_and_gradients(w, b, head, x, data.y[idx])
                loss_sum += batch_loss
                vw = config.momentum * vw + gw
                vb = config.momentum * vb + gb
                w = w - config.learning_rate * vw
                b = b - config.learning_rate * vb
            finite = np.isfinite(w).all(axis=(1, 2)) & np.isfinite(b).all(axis=1) \
                & np.isfinite(loss_sum)
            diverged_at[(diverged_at < 0) & ~finite] = epoch
            if (diverged_at >= 0).all():
                break
            losses[epoch] = loss_sum / data.n
    if (diverged_at >= 0).any():
        epoch = diverged_at[diverged_at >= 0][0]
        raise GvlabError("diverged", f"non-finite parameters or loss at epoch {epoch}")
    return tuple(TrainResult(LinearModel(w[i], b[i], head), tuple(losses[:, i].tolist()))
                 for i in range(models))


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
    loss_sum, gw, gb = _loss_sum_and_gradients(model.weights[None], model.bias[None],
                                               model.head, x[None], y)
    return float(loss_sum[0]) / x.shape[0], gw[0], gb[0]


def _loss_sum_and_gradients(w: np.ndarray, b: np.ndarray, head: Head, x: np.ndarray,
                            y: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-model summed cross-entropy on a batch and the gradients of its mean.

    Stacked shapes: ``w`` (models, rows, d), ``b`` (models, rows), ``x``
    (models, n, d) with shared labels ``y`` (n,).  This is the one
    gradient: ``train_lockstep`` steps with it and ``loss_and_gradients``
    exposes it for checking.
    """
    n = x.shape[1]
    if head == "sigmoid":
        z = (x @ w[:, 0, :, None])[..., 0] + b
        yf = y.astype(np.float64)
        e, s = _sigmoid_terms(z)
        loss = (np.maximum(z, 0.0) - z * yf + np.log1p(e)).sum(axis=1)
        gz = (s - yf) / n
        return loss, gz[:, None, :] @ x, gz.sum(axis=1)[:, None]
    logits = x @ w.transpose(0, 2, 1) + b[:, None, :]
    top = logits.max(axis=2, keepdims=True)
    e = np.exp(logits - top)
    total = e.sum(axis=2, keepdims=True)
    loss = (np.log(total[..., 0]) + top[..., 0] - logits[:, np.arange(n), y]).sum(axis=1)
    gl = (e / total - np.eye(w.shape[1])[y]) / n
    return loss, gl.transpose(0, 2, 1) @ x, gl.sum(axis=1)


def save_model(model: LinearModel, path: str) -> None:
    """Plain-text rows: one line per weight row, then the bias line (17 sig digits)."""
    with open(path, "w") as fh:
        for row in model.weights:
            fh.write(" ".join(f"{v:.17g}" for v in row) + "\n")
        fh.write(" ".join(f"{v:.17g}" for v in model.bias) + "\n")


def load_model(path: str) -> LinearModel:
    """Read a model written by :func:`save_model`."""
    try:
        with open(path) as fh:
            rows = [[float(v) for v in line.split()] for line in fh if line.strip()]
    except ValueError as err:
        raise GvlabError("bad-model-file", f"{path}: {err}") from None
    if len(rows) < 2 or len({len(row) for row in rows[:-1]}) != 1:
        raise GvlabError("bad-model-file",
                         f"{path}: need weight rows of one length, then a bias line")
    weights = np.array(rows[:-1])
    head: Head = "sigmoid" if weights.shape[0] == 1 else "softmax"
    return LinearModel(weights, np.array(rows[-1]), head)
