"""Generalized linear classifiers trained from scratch.

A :class:`LinearModel` is an affine map with a sigmoid head (binary, one
weight row) or a softmax head (K rows), producing a score vector in
``[0,1]^K`` that sums to one.  Training is mini-batch SGD with momentum
under cross-entropy loss, deterministic given the config seed:

- weights and bias start at zero, so repeated runs share the optimum of
  the convex objective and 100-run averages are reproducible;
- each epoch shuffles with a generator seeded by (base seed, epoch);
- the loss uses log-sum-exp / log1p-of-exp stabilized forms;
- training records each epoch's mean loss, computed once per epoch from
  the forward terms its steps stored; the mean-max-output error estimate
  is taken once, from :func:`risk` on the trained model;
- models whose data differ only in substituted columns train in one
  lockstep loop (:func:`train_lockstep`), bit-identical to separate runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

from .core import _is_int
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


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """Sigmoid of ``z`` from one ``exp(-|z|)``.

    The numerator picks the stable form for each sign of ``z``: 1 where
    ``z >= 0`` (``e <= 1`` there) and ``e`` elsewhere, NaN staying NaN, so
    the values equal the textbook masked evaluation bit for bit.
    """
    e = np.exp(-np.abs(z))
    return np.maximum(e, z >= 0) / (1.0 + e)


def _forward_terms(w: np.ndarray, b: np.ndarray, head: Head, x: np.ndarray,
                   out: np.ndarray | None = None) -> np.ndarray:
    """Pre-activation terms of stacked models ``w`` (models, rows_w, d), ``b``
    (models, rows_w) on stacked inputs ``x`` (models, rows, d): sigmoid ``z``
    (models, rows) or softmax logits (models, rows, k), written into ``out``
    when given."""
    if head == "sigmoid":
        out = np.matmul(x, w[:, 0, :, None], out=None if out is None else out[..., None])[..., 0]
        out += b
    else:
        out = np.matmul(x, w.transpose(0, 2, 1), out=out)
        out += b[:, None, :]
    return out


def _probs(w: np.ndarray, b: np.ndarray, head: Head, x: np.ndarray) -> np.ndarray:
    """Score vectors (models, rows, k) of stacked models on stacked inputs."""
    terms = _forward_terms(w, b, head, x)
    if head == "sigmoid":
        s = _sigmoid(terms)
        return np.stack([1.0 - s, s], axis=-1)
    terms -= terms.max(axis=2, keepdims=True)
    e = np.exp(terms)
    return e / e.sum(axis=2, keepdims=True)


def _gradients(terms: np.ndarray, head: Head, x: np.ndarray, y: np.ndarray,
               gw: np.ndarray, gb: np.ndarray) -> None:
    """Write the gradients of each model's mean batch loss into ``gw``
    (models, rows_w, d) and ``gb`` (models, rows_w).

    ``terms`` come from :func:`_forward_terms` on ``x`` and are left intact;
    labels ``y`` are floats for the sigmoid head and integers for softmax.
    This is the one gradient: ``train_lockstep`` steps with it and
    ``loss_and_gradients`` exposes it for checking.
    """
    n = x.shape[1]
    if head == "sigmoid":
        g = _sigmoid(terms)
        g -= y
        g /= n
        np.matmul(g[:, None, :], x, out=gw)
        g.sum(axis=1, out=gb[:, 0])
    else:
        g = terms - terms.max(axis=2, keepdims=True)
        np.exp(g, out=g)
        g /= g.sum(axis=2, keepdims=True)
        g[:, np.arange(n), y] -= 1.0
        g /= n
        np.matmul(g.transpose(0, 2, 1), x, out=gw)
        g.sum(axis=1, out=gb)


def _sample_losses(terms: np.ndarray, head: Head, y: np.ndarray) -> np.ndarray:
    """Cross-entropy (models, rows) of each sample from its forward terms, in
    the log1p-of-exp / log-sum-exp stabilized forms."""
    if head == "sigmoid":
        loss = np.maximum(terms, 0.0)
        loss -= terms * y
        softplus = np.abs(terms)  # in place, so one temporary of the buffer's size
        np.negative(softplus, out=softplus)
        np.exp(softplus, out=softplus)
        loss += np.log1p(softplus, out=softplus)
        return loss
    top = terms.max(axis=2)
    shifted = terms - top[..., None]
    loss = np.log(np.exp(shifted, out=shifted).sum(axis=2))
    loss += top
    loss -= terms[:, np.arange(terms.shape[1]), y]
    return loss


def _labels(head: Head, y: np.ndarray) -> np.ndarray:
    """Labels as the head's loss reads them: floats for sigmoid, codes for softmax."""
    return y.astype(np.float64) if head == "sigmoid" else y


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.01
    momentum: float = 0.9
    batch_size: int = 256
    epochs: int = 100
    seed: int = 0

    def __post_init__(self):
        # learning_rate 0 is allowed so a no-update run stays expressible.
        if not 0.0 <= self.learning_rate < math.inf:
            raise GvlabError("bad-config", f"learning rate must be finite and >= 0, "
                                           f"got {self.learning_rate}")
        if not 0.0 <= self.momentum < 1.0:
            raise GvlabError("bad-config", "momentum must lie in [0, 1)")
        if not all(_is_int(v) for v in (self.batch_size, self.epochs, self.seed)):
            raise GvlabError("bad-config", "batch size, epochs and seed must be integers, got "
                                           f"{self.batch_size!r}, {self.epochs!r}, {self.seed!r}")
        if self.batch_size < 1 or self.epochs < 1:
            raise GvlabError("bad-config", "batch size and epochs must be >= 1")
        if self.seed < 0:
            raise GvlabError("bad-config", f"seed must be >= 0, got {self.seed}")


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
    model's row.  At the start of each epoch its permutation of the rows,
    and of the substitute columns, is gathered once into buffers reused by
    every epoch, so each step's batch is a contiguous slice.  With
    substitutions, each step writes its per-model batches into one stacked
    buffer allocated once per call: the shared rows, then the step's
    substitute columns.  Each step stores its forward terms in one epoch
    buffer; the epoch's losses are computed from that buffer once, after
    its last step, and summed batch by batch in step order.
    A model that diverges raises at the epoch where that ``train`` call
    would; with several, the first model in order decides.
    """
    if data.n == 0:
        raise GvlabError("empty-dataset", "cannot train on an empty dataset")
    if config.batch_size > data.n:
        raise GvlabError("bad-config", f"batch size {config.batch_size} exceeds n={data.n}")
    loss_bytes = config.epochs * (len(substitutions) + 1) * 8
    if loss_bytes > np.iinfo(np.intp).max:  # numpy cannot even shape the loss array
        raise GvlabError("bad-config", f"epochs={config.epochs} makes the loss array "
                                       f"{loss_bytes} bytes, beyond numpy's array limit")
    dims = np.empty(len(substitutions), dtype=np.int64)
    noise = np.empty((len(dims), data.n))
    for i, (j, column) in enumerate(substitutions):
        if not (_is_int(j) and 0 <= j < data.d):
            raise GvlabError("bad-variable", f"dimension {j!r} is not an integer in "
                                             f"0..{data.d - 1}")
        column = np.asarray(column, dtype=np.float64)
        if column.shape != (data.n,):
            raise GvlabError("bad-input-dim", f"substitute for dimension {j} must have "
                                              f"shape ({data.n},), got {column.shape}")
        dims[i] = j
        noise[i] = column
    models = len(dims) + 1
    substituted = np.arange(1, models)
    head: Head = "sigmoid" if data.k == 2 else "softmax"
    rows = 1 if head == "sigmoid" else data.k
    # Weights and bias share one array, so momentum updates both at once.
    params = np.zeros((models, rows, data.d + 1))
    velocity = np.zeros_like(params)
    grads = np.empty_like(params)
    step = np.empty_like(params)
    w, b = params[..., :data.d], params[..., data.d]
    gw, gb = grads[..., :data.d], grads[..., data.d]
    # The forward terms of a whole epoch, in epoch order: the losses are
    # computed from them once after the epoch's last step.
    terms = np.empty((models, data.n) if head == "sigmoid" else (models, data.n, rows))
    epoch_x, epoch_noise = np.empty_like(data.x), np.empty_like(noise)
    # A ragged last batch uses the leading rows, so BLAS sees the row count
    # of a sequential run.
    stacked = np.empty((models, config.batch_size, data.d)) if len(dims) else None

    losses = np.empty((config.epochs, models))
    diverged_at = np.full(models, -1)
    with np.errstate(over="ignore", invalid="ignore"):  # divergence detected per epoch
        for epoch in range(config.epochs):
            order = _epoch_rng(config.seed, epoch).permutation(data.n)
            # "clip" never clips a permutation; unlike "raise" it writes
            # straight into ``out`` without a temporary.
            np.take(data.x, order, axis=0, out=epoch_x, mode="clip")
            np.take(noise, order, axis=1, out=epoch_noise, mode="clip")
            labels = _labels(head, data.y[order])
            for start in range(0, data.n, config.batch_size):
                stop = start + config.batch_size
                x = epoch_x[None, start:stop]
                if stacked is not None:
                    x = stacked[:, :x.shape[1]]
                    x[...] = epoch_x[start:stop]
                    x[substituted, :, dims] = epoch_noise[:, start:stop]
                batch_terms = _forward_terms(w, b, head, x, out=terms[:, start:stop])
                _gradients(batch_terms, head, x, labels[start:stop], gw, gb)
                velocity *= config.momentum
                velocity += grads
                params -= np.multiply(velocity, config.learning_rate, out=step)
            loss_sum = _epoch_loss_sums(_sample_losses(terms, head, labels), config.batch_size)
            finite = np.isfinite(params).all(axis=(1, 2)) & np.isfinite(loss_sum)
            diverged_at[(diverged_at < 0) & ~finite] = epoch
            if (diverged_at >= 0).all():
                break
            losses[epoch] = loss_sum / data.n
    if (diverged_at >= 0).any():
        epoch = diverged_at[diverged_at >= 0][0]
        raise GvlabError("diverged", f"non-finite parameters or loss at epoch {epoch}")
    return tuple(TrainResult(LinearModel(w[i], b[i], head), tuple(losses[:, i].tolist()))
                 for i in range(models))


def _epoch_loss_sums(sample_losses: np.ndarray, batch_size: int) -> np.ndarray:
    """Each model's summed epoch loss from its per-sample losses (models, n):
    one sum per batch, then the batch sums added in step order, exactly as
    per-step accumulation would."""
    models, n = sample_losses.shape
    full = n - n % batch_size
    sums = sample_losses[:, :full].reshape(models, -1, batch_size).sum(axis=2)
    if full < n:
        sums = np.concatenate([sums, sample_losses[:, full:].sum(axis=1, keepdims=True)], axis=1)
    return np.add.accumulate(sums, axis=1)[:, -1]


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
    """Mean cross-entropy on a batch with analytic parameter gradients.

    Runs the training step's forward terms, gradient and per-sample losses
    on one model.  ``x`` is a non-empty real (n, d) batch, ``y`` holds n
    integral labels in 0..k-1.
    """
    x, y = np.asarray(x), np.asarray(y)
    if x.dtype.kind not in "biuf" or y.dtype.kind not in "biuf":
        raise GvlabError("bad-variable", "inputs and labels must be real numbers")
    if x.ndim != 2 or x.shape[1] != model.d:
        raise GvlabError("bad-input-dim", f"expected inputs of dimension {model.d}")
    if y.shape != (x.shape[0],):
        raise GvlabError("bad-input-dim", f"expected {x.shape[0]} labels, got shape {y.shape}")
    if x.shape[0] == 0:
        raise GvlabError("empty-dataset", "loss needs a non-empty batch")
    if y.dtype.kind == "f" and not np.array_equal(y, np.floor(y)):
        raise GvlabError("bad-variable", "labels must be integers")
    if y.min() < 0 or y.max() >= model.k:
        raise GvlabError("bad-variable", f"labels must lie in 0..{model.k - 1}")
    labels = _labels(model.head, y.astype(np.int64))
    gw, gb = np.empty((1,) + model.weights.shape), np.empty((1,) + model.bias.shape)
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite results raise below
        x = x.astype(np.float64)
        terms = _forward_terms(model.weights[None], model.bias[None], model.head, x[None])
        _gradients(terms, model.head, x[None], labels, gw, gb)
        loss = float(_sample_losses(terms, model.head, labels)[0].sum()) / len(y)
    if not (np.isfinite(loss) and np.isfinite(gw).all() and np.isfinite(gb).all()):
        raise GvlabError("bad-variable", "loss or gradient is not finite: inputs must be "
                                         "finite and small enough for this model")
    return loss, gw[0], gb[0]


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
