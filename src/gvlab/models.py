"""Generalized linear classifiers trained from scratch.

A :class:`LinearModel` is an affine map with a sigmoid head (binary, one
weight row) or a softmax head (K rows), producing a score vector in
``[0,1]^K`` that sums to one; its prediction is read from the logits, with
no softmax.  Training is mini-batch SGD with momentum
under cross-entropy loss, deterministic given the config seed:

- weights and bias start at zero, so repeated runs share the optimum of
  the convex objective and 100-run averages are reproducible;
- each epoch shuffles with a generator seeded by (base seed, epoch);
- the loss uses log-sum-exp / log1p-of-exp stabilized forms, and the
  sigmoid one ``exp(-|z|)`` with the numerator ``max(exp(-|z|), sign(z))``,
  bit-identical to the textbook masked form;
- one model's forward and gradient are plain 2-D products of its batch
  (n, d) with its weights (rows, d), one BLAS call each; stacked weights
  (models, rows, width) are several models reading one shared batch;
- softmax logits are class-major, (k, n) for one model and (models, k, n)
  for several, so the max, the one-hot label subtraction and the
  normalizer (:func:`_class_sum`, in numpy's row-sum order) run along
  contiguous class rows, bit for bit as over row-major logits; the
  gradient products and bias sums read the error row-major, through one
  reused transposing copy for one model, and the loss reads the logits
  through one transposing copy (:func:`_row_major`);
- each step stores its forward terms as one block of a batch-major epoch
  buffer, and its output error and sigmoid in buffers reused by every
  step; training returns the last epoch's mean loss,
  computed once from that buffer; the other epochs only check that their
  loss sums stay finite; the mean-max-output error estimate is taken
  once, from :func:`risk` on the trained model;
- models whose data differ only in substituted columns train in one
  lockstep loop (:func:`train_lockstep`): the first bit-identical to
  :func:`train`, the substitute models from one shared product on rows
  extended by their substitute columns, within the rounding of those
  longer dot products of separate runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

from .core import _is_int, stream
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

    def _batch(self, x: np.ndarray) -> tuple[np.ndarray, bool]:
        """One input (d,) or a batch (n, d) as a float64 batch, and whether it was one."""
        x = np.asarray(x, dtype=np.float64)
        single = x.ndim == 1
        batch = x[None, :] if single else x
        if batch.ndim != 2 or batch.shape[1] != self.d:
            raise GvlabError("bad-input-dim", f"expected inputs of dimension {self.d}")
        return batch, single

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Score vector(s) for one input (d,) or a batch (n, d)."""
        batch, single = self._batch(x)
        probs = _probs(self.weights, self.bias, self.head, batch)
        return probs[0] if single else probs

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Predicted label(s) for one input (d,) or a batch (n, d), read from
        the forward terms: the argmax of the logits, ties to the lowest label,
        or ``z > 0`` for a sigmoid head."""
        batch, single = self._batch(x)
        terms = _forward_terms(self.weights, self.bias, self.head, batch)
        labels = (terms > 0).astype(np.int64) if self.head == "sigmoid" else terms.argmax(axis=0)
        return labels[0] if single else labels


def _sigmoid(z: np.ndarray, out: np.ndarray | None = None,
             scratch: np.ndarray | None = None) -> np.ndarray:
    """Sigmoid of ``z`` from one ``exp(-|z|)``, computed in place in two
    float arrays of ``z``'s shape: ``out``, which is returned, and
    ``scratch``, new ones when not given; ``z`` is left intact and may be
    any strided view.

    ``e = exp(-|z|)`` takes ``-|z|`` as ``np.abs`` negated in place.  The
    numerator is ``max(e, sign(z))``: 1 where ``z > 0`` (``e <= 1``), ``e``
    where ``z < 0`` (``e >= 0 > -1``) and ``e = 1`` at ``z = ±0``, a NaN
    ``z`` giving a NaN ``e`` that ``maximum`` keeps, so the values equal the
    textbook masked evaluation bit for bit.
    """
    e = np.abs(z, out=scratch)
    np.negative(e, out=e)
    np.exp(e, out=e)
    s = np.sign(z, out=out)
    np.maximum(e, s, out=s)
    e += 1.0
    s /= e
    return s


def _forward_terms(w: np.ndarray, b: np.ndarray, head: Head, x: np.ndarray,
                   out: np.ndarray | None = None) -> np.ndarray:
    """Pre-activation terms, sigmoid ``z`` or class-major softmax logits,
    written into ``out`` when given.

    2-D weights ``w`` (rows_w, d) and bias ``b`` (rows_w,) are one model on
    its own batch ``x`` (rows, d): one plain product, the ``gemv`` ``x @
    w[0]`` for a sigmoid and ``w @ x.T`` for softmax, gives terms (rows,) or
    (k, rows).  Stacked weights ``w`` (models, rows_w, width) and ``b``
    (models, rows_w) are several models sharing one batch ``x`` (rows,
    width): one product serves them all, into ``out`` (models, rows) or
    (models, k, rows), which must be given, as a view whose leading axes
    merge into one (the steps' contiguous blocks are).
    """
    if w.ndim == 2:
        out = np.matmul(x, w[0], out=out) if head == "sigmoid" else np.matmul(w, x.T, out=out)
    else:
        np.matmul(w.reshape(-1, x.shape[1]), x.T, out=out.reshape(-1, len(x)))
    out += b if head == "sigmoid" else b[..., None]
    return out


def _class_sum(a: np.ndarray) -> np.ndarray:
    """Sums (..., 1, rows) over the class axis of class-major ``a`` (..., k,
    rows), bit for bit numpy's ``sum(axis=-1)`` of the row-major layout (NaN
    signs aside): for k below 8 in sequence, up to 128 in 8 accumulators
    folded pairwise, above that as the sum of two halves cut at a multiple
    of 8."""
    k = a.shape[-2]
    if k < 8:
        total = a[..., :1, :] + 0.0  # numpy starts from 0.0, so -0.0 rows sum to 0.0
        for i in range(1, k):
            total += a[..., i:i + 1, :]
        return total
    if k > 128:
        half = k // 2 - k // 2 % 8
        return _class_sum(a[..., :half, :]) + _class_sum(a[..., half:, :])
    full = k - k % 8
    total = a[..., :8, :]
    for i in range(8, full, 8):
        total = np.add(total, a[..., i:i + 8, :], out=None if i == 8 else total)
    while total.shape[-2] > 1:
        total = total[..., 0::2, :] + total[..., 1::2, :]
    for i in range(full, k):
        total += a[..., i:i + 1, :]
    total += 0.0
    return total


def _row_major(terms: np.ndarray) -> np.ndarray:
    """Class-major softmax terms (..., k, rows) as a contiguous (..., rows, k)
    copy, laid out as the per-sample reductions of the loss and the scores
    read them."""
    return np.ascontiguousarray(np.swapaxes(terms, -1, -2))


def _probs(w: np.ndarray, b: np.ndarray, head: Head, x: np.ndarray) -> np.ndarray:
    """Score vectors (rows, k) of one model (2-D ``w``) on its batch."""
    terms = _forward_terms(w, b, head, x)
    if head == "sigmoid":
        s = _sigmoid(terms)
        return np.stack([1.0 - s, s], axis=-1)
    terms = _row_major(terms)
    terms -= terms.max(axis=-1, keepdims=True)
    e = np.exp(terms)
    return e / e.sum(axis=-1, keepdims=True)


def _output_error(terms: np.ndarray, head: Head, y: np.ndarray, out: np.ndarray | None = None,
                  scratch: np.ndarray | None = None) -> np.ndarray:
    """The gradient of a mean batch loss with respect to its forward terms,
    one model's ((k,) rows) or stacked models' (models, (k,) rows): the
    sigmoid or softmax minus the labels, over the batch size, written into
    ``out`` when given (and the sigmoid's ``exp(-|z|)`` into ``scratch``).

    ``terms`` come from :func:`_forward_terms` and are left intact; the
    targets ``y`` from :func:`_targets`, floats (rows,) for the sigmoid head
    and a class-major one-hot block (k, rows) for softmax, whose zeros leave
    every other entry's bits.  The softmax normalizer is
    :func:`_class_sum`.  This is the one gradient: ``train_lockstep`` steps
    with it and ``loss_and_gradients`` exposes it for checking; only its
    product with the inputs, :func:`_parameter_gradients`, depends on how a
    model reads them.
    """
    n = float(y.shape[-1])  # a float divides faster than an int, to the same value
    if head == "sigmoid":
        g = _sigmoid(terms, out, scratch)
    else:
        g = np.subtract(terms, terms.max(axis=-2, keepdims=True), out=out)
        np.exp(g, out=g)
        g /= _class_sum(g)
    g -= y
    g /= n
    return g


def _parameter_gradients(g: np.ndarray, head: Head, x: np.ndarray,
                         gw: np.ndarray, gb: np.ndarray,
                         by_row: np.ndarray | None = None) -> None:
    """Write the gradients for output error ``g`` into ``gw`` and ``gb``:
    the error's product with the inputs and its sum over the batch.

    2-D ``gw`` (rows_w, d), with ``gb`` (rows_w,), is one model's gradient
    on its own batch ``x`` (rows, d): one plain product ``g.T @ x`` of its
    error (rows,), or of its softmax error (k, rows) copied row-major into
    ``by_row`` (rows, k) (a new array when not given).  Stacked ``gw``
    (models, rows_w, width), with ``gb`` (models, rows_w), holds several
    models' gradients on one shared batch ``x`` (rows, width): one product
    of their errors (models, (k,) rows) serves them all.  A softmax bias sum
    runs down the batch in sequence, over row-major errors: numpy would pair
    a sum along a class-major row.
    """
    if gw.ndim == 2:
        if head == "softmax":
            by_row = np.empty(g.shape[::-1]) if by_row is None else by_row
            np.copyto(by_row, g.T)
            g = by_row
        np.matmul(g.T, x, out=gw[0] if head == "sigmoid" else gw)
        np.add.reduce(g, axis=0, out=gb[..., 0] if head == "sigmoid" else gb)
        return
    # Row-major for any model count: BLAS may round a column-major one differently.
    by_model = np.ascontiguousarray(g[:, None, :] if head == "sigmoid" else g)
    np.matmul(by_model.reshape(-1, len(x)), x, out=gw.reshape(-1, x.shape[1]))
    np.add.reduce(g if head == "sigmoid" else _row_major(g), axis=1,
                  out=gb[:, 0] if head == "sigmoid" else gb)


def _sample_losses(terms: np.ndarray, head: Head, y: np.ndarray) -> np.ndarray:
    """Cross-entropy of each sample, (rows,) or (models, rows), from its
    forward terms, sigmoid ``z`` or row-major softmax logits ((models,)
    rows, k) (see :func:`_row_major`), in the log1p-of-exp / log-sum-exp
    stabilized forms, for labels from :func:`_labels`."""
    if head == "sigmoid":
        loss = np.maximum(terms, 0.0)
        loss -= terms * y
        softplus = np.abs(terms)  # in place, so one temporary of the buffer's size
        np.negative(softplus, out=softplus)
        np.exp(softplus, out=softplus)
        loss += np.log1p(softplus, out=softplus)
        return loss
    top = terms.max(axis=-1)
    shifted = terms - top[..., None]
    loss = np.log(np.exp(shifted, out=shifted).sum(axis=-1))
    loss += top
    loss -= terms[..., np.arange(len(y)), y]
    return loss


def _labels(head: Head, y: np.ndarray) -> np.ndarray:
    """Labels as the head's loss reads them: floats for sigmoid, codes for softmax."""
    return y.astype(np.float64) if head == "sigmoid" else y


def _targets(head: Head, y: np.ndarray, k: int) -> np.ndarray:
    """Labels as the output error reads them: floats (n,) for sigmoid, a
    class-major one-hot block (k, n) for softmax."""
    if head == "sigmoid":
        return _labels(head, y)
    return (np.arange(k)[:, None] == y).astype(np.float64)


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
    loss: float  # the last epoch's mean sample loss


def train(data: VectorDataset, config: TrainConfig) -> TrainResult:
    """Mini-batch SGD with momentum from zero initialization.

    The result's loss is the last epoch's mean sample loss.
    """
    return train_lockstep(data, config)[0]


def train_lockstep(data: VectorDataset, config: TrainConfig,
                   substitutions: Sequence[tuple[int, np.ndarray]] = ()
                   ) -> tuple[TrainResult, ...]:
    """Train ``1 + len(substitutions)`` models in one SGD loop.

    Model 0 trains on ``data``; model ``i`` trains on ``data`` with column
    ``substitutions[i-1][0]`` replaced by the length-n column
    ``substitutions[i-1][1]``.  All models start from zero under one seed,
    so they share every epoch's permutation.  Model 0 is bit-identical to
    ``train`` on ``data``.

    The substitute columns extend the rows of ``data`` once per call, and
    each epoch gathers its permutation of the extended rows and of the
    targets (for softmax, the class-major one-hot block) into buffers
    reused by every epoch, so each step's batch is a contiguous slice.
    Model 0 is one model on its own batch: plain 2-D products of its first
    ``d`` columns with its (rows, d) weights, the same BLAS calls as
    ``train``; with substitutions it reads those columns through a reused
    contiguous copy, since BLAS may sum a strided view in another order.  The substitute models read the extended batch with one
    shared product: model ``i``'s weight on the original column and on the
    other models' substitute columns is a structural zero that its masked
    gradient keeps at exactly 0, and its weight on its own substitute
    column is read back as the weight of the substituted dimension.  So a
    substitute model differs from ``train`` on its substituted dataset only
    by the rounding of dot products over ``d + len(substitutions)`` columns
    instead of ``d``.

    Every step's views of those buffers (its rows, model 0's copy, its
    block of forward terms, its targets, its output error and sigmoid
    buffers, and model 0's row-major softmax error) are resolved once per
    call.  Each step stores its forward terms, softmax logits class-major,
    as one block of a batch-major epoch buffer.  After each epoch's last
    step, one finiteness pass over the parameters and that buffer show
    whether every model's parameters and loss sum are finite; the losses
    themselves are computed once, from the last epoch's buffer, and summed
    batch by batch in step order.  A model that diverges
    raises at the epoch where it diverged; with several, the first model in
    order decides, so training stops at the end of the epoch where model 0
    diverges.
    """
    if data.n == 0:
        raise GvlabError("empty-dataset", "cannot train on an empty dataset")
    if config.batch_size > data.n:
        raise GvlabError("bad-config", f"batch size {config.batch_size} exceeds n={data.n}")
    batches = -(-data.n // config.batch_size)
    updates = config.epochs * (len(substitutions) + 1) * batches
    if updates >= 2**60:  # over 36 years even at a nanosecond per update
        raise GvlabError("bad-config", f"epochs={config.epochs} makes {updates} model "
                                       f"updates, a run that could never finish")
    # The extended rows [x | substitute columns], (n, d + substitutions).
    ext = data.x
    if substitutions:
        ext = np.empty((data.n, data.d + len(substitutions)))
        ext[:, :data.d] = data.x
    dims = np.empty(len(substitutions), dtype=np.int64)
    for i, (j, column) in enumerate(substitutions):
        if not (_is_int(j) and 0 <= j < data.d):
            raise GvlabError("bad-variable", f"dimension {j!r} is not an integer in "
                                             f"0..{data.d - 1}")
        column = np.asarray(column, dtype=np.float64)
        if column.shape != (data.n,):
            raise GvlabError("bad-input-dim", f"substitute for dimension {j} must have "
                                              f"shape ({data.n},), got {column.shape}")
        dims[i] = j
        ext[:, data.d + i] = column
    width = ext.shape[1]
    models = len(dims) + 1
    head: Head = "sigmoid" if data.k == 2 else "softmax"
    rows = 1 if head == "sigmoid" else data.k
    # Weights and bias share one flat array, so momentum updates every model
    # at once: model 0's (rows, d + 1) block, laid out as in ``train``, then
    # the substitute models' weight rows and their biases.
    own_size, shared_rows = rows * (data.d + 1), len(dims) * rows
    params = np.zeros(own_size + shared_rows * (width + 1))
    velocity = np.zeros_like(params)
    grads = np.zeros_like(params)
    step = np.empty_like(params)

    def views(a):
        """Model 0's weights (rows, d) and bias (rows,), and the substitute
        models' (as (substitutions, rows, width) and (substitutions, rows))
        in ``a``."""
        a0, rest = a[:own_size].reshape(rows, data.d + 1), a[own_size:]
        return (a0[:, :data.d], a0[:, data.d],
                rest[:shared_rows * width].reshape(len(dims), rows, width),
                rest[shared_rows * width:].reshape(len(dims), rows))

    w0, b0, ws, bs = views(params)
    gw0, gb0, gws, gbs = views(grads)
    masked = gws.reshape(shared_rows, width)
    mask = _substitute_mask(data.d, dims, rows)
    # The forward terms of a whole epoch, batch-major: each step writes its
    # (models, batch) or class-major (models, k, batch) block, contiguous, a
    # ragged last one too, and the loss check reads them after the epoch's
    # last step.  The output error and the sigmoid's scratch are the leading
    # part of buffers that every step reuses.
    classes = () if head == "sigmoid" else (rows,)
    terms = np.empty(models * rows * data.n)
    errors, scratch = np.empty((2, models * rows * config.batch_size))
    # Model 0's softmax error, copied row-major for its gradient products.
    by_row = np.empty((config.batch_size, rows)) if classes else None
    targets = _targets(head, data.y, data.k)
    epoch_ext, epoch_targets = np.empty_like(ext), np.empty_like(targets)
    # With substitutions, model 0 reads a contiguous copy of its columns, as
    # ``train`` does: OpenBLAS rounds a strided (batch, d) operand
    # differently for d of 1 to 3.
    own_rows = np.empty((config.batch_size, data.d)) if len(dims) else None
    # Each step's views, resolved once: its extended rows, model 0's rows and
    # their source, its terms block with model 0's row and the substitutes',
    # its targets, its output error with the same split, the sigmoid's
    # scratch and model 0's row-major error.
    steps, blocks = [], []
    for start in range(0, data.n, config.batch_size):
        x = epoch_ext[start:start + config.batch_size]
        size = len(x)
        x0 = own_rows[:size] if len(dims) else x
        shape, at = (models,) + classes + (size,), models * rows * start
        t, g, e = (a[:models * rows * size].reshape(shape)
                   for a in (terms[at:], errors, scratch))
        blocks.append(t)
        steps.append((x, x0, x[:, :data.d], t, t[0], t[1:], epoch_targets[..., start:start + size],
                      g, g[0], g[1:], e, by_row[:size] if classes else None))

    diverged_at = np.full(models, -1)
    with np.errstate(over="ignore", invalid="ignore"):  # divergence detected per epoch
        for epoch in range(config.epochs):
            order = stream(config.seed, epoch).permutation(data.n)
            # "clip" never clips a permutation; unlike "raise" it writes
            # straight into ``out`` without a temporary.
            np.take(ext, order, axis=0, out=epoch_ext, mode="clip")
            np.take(targets, order, axis=-1, out=epoch_targets, mode="clip")
            for x, x0, own, block, t0, ts, y, g, g0, gs, e, g0_rows in steps:
                if len(dims):
                    np.copyto(x0, own)
                    _forward_terms(ws, bs, head, x, out=ts)
                _forward_terms(w0, b0, head, x0, out=t0)
                _output_error(block, head, y, out=g, scratch=e)
                _parameter_gradients(g0, head, x0, gw0, gb0, g0_rows)
                if len(dims):
                    _parameter_gradients(gs, head, x, gws, gbs)
                    masked *= mask
                velocity *= config.momentum
                velocity += grads
                params -= np.multiply(velocity, config.learning_rate, out=step)
            epoch_labels = epoch_targets if head == "sigmoid" else data.y[order]
            finite = _finite_loss_sums(terms, blocks, head, epoch_labels, config.batch_size)
            if not np.isfinite(params).all():
                fw0, fb0, fws, fbs = views(np.isfinite(params))
                finite &= [fw0.all() & fb0.all(), *(fws.all(axis=(1, 2)) & fbs.all(axis=1))]
            diverged_at[(diverged_at < 0) & ~finite] = epoch
            if diverged_at[0] >= 0:  # model 0 decides the raised epoch
                break
        if (diverged_at >= 0).any():
            epoch = diverged_at[diverged_at >= 0][0]
            raise GvlabError("diverged", f"non-finite parameters or loss at epoch {epoch}")
        # Still under errstate: a finite loss can pass through an overflowing
        # softmax shift.  Model by model, so no transient outgrows one model's
        # terms.
        sums = [_epoch_loss_sums(_sample_losses(_model_major([t[i:i + 1] for t in blocks]), head,
                                                epoch_labels), config.batch_size)[0]
                for i in range(models)]
    # Each substitute model's weight on its own column is that of its dimension.
    weights = np.concatenate([w0[None], ws[..., :data.d]])
    sub = np.arange(len(dims))
    weights[1 + sub, :, dims] = ws[sub, :, data.d + sub]
    biases = np.concatenate([b0[None], bs])
    return tuple(TrainResult(LinearModel(weights[i], biases[i], head), float(total / data.n))
                 for i, total in enumerate(sums))


def _substitute_mask(d: int, dims: np.ndarray, rows: int) -> np.ndarray:
    """The 0/1 mask ((substitutions * rows, d + substitutions)) of the weights
    that each substitute model trains: substitute model ``i`` (rows ``i *
    rows`` on) trains every original column but ``dims[i]``, and of the
    substitute columns only its own, ``d + i``."""
    count = len(dims)
    mask = np.zeros((count, d + count))
    mask[:, :d] = 1.0
    mask[np.arange(count), dims] = 0.0
    mask[np.arange(count), d + np.arange(count)] = 1.0
    return np.repeat(mask, rows, axis=0)


def _model_major(blocks: Sequence[np.ndarray]) -> np.ndarray:
    """An epoch's forward terms from their per-step blocks (models, batch) or
    class-major (models, k, batch), in step order, as one model-major array,
    (models, n) or row-major (models, n, k): each model's terms in epoch
    order."""
    terms = np.concatenate(blocks, axis=-1)
    return terms if terms.ndim == 2 else _row_major(terms)


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


#: Below this bound on ``max|term| * n`` no epoch loss sum can overflow: a
#: sample's loss is at most ``2 * max|term| + ln k`` (``|z| + ln 2`` for a
#: sigmoid), so the sum stays under 2**1023.
_SAFE_PEAK_TIMES_N = 2.0 ** 1021


def _finite_loss_sums(terms: np.ndarray, blocks: Sequence[np.ndarray], head: Head,
                      y: np.ndarray, batch_size: int) -> np.ndarray:
    """Whether each model's epoch loss sum is finite, from the epoch's terms
    (any array holding exactly the values of its per-step ``blocks``) for
    the n labels ``y``: equal to ``np.isfinite(_epoch_loss_sums(
    _sample_losses(_model_major(blocks), head, y), batch_size))``.

    When the largest ``|term|`` of all models times n stays below the bound,
    every sum is finite; an infinite or NaN term fails that test.  Only
    then are the losses themselves computed.
    """
    peak = np.maximum(terms.max(), -terms.min())  # NaN stays NaN
    if peak * len(y) < _SAFE_PEAK_TIMES_N:
        return np.ones(len(blocks[0]), dtype=bool)
    return np.isfinite(_epoch_loss_sums(_sample_losses(_model_major(blocks), head, y),
                                        batch_size))


@dataclass(frozen=True)
class RiskReport:
    zero_one_error: float
    mean_max_output: float


def zero_one_error(model: LinearModel, data: VectorDataset) -> float:
    """0/1 error of :meth:`LinearModel.predict` on ``data``."""
    if data.n == 0:
        raise GvlabError("empty-dataset", "risk needs a non-empty dataset")
    return float((model.predict(data.x) != data.y).mean())


def risk(model: LinearModel, data: VectorDataset) -> RiskReport:
    """:func:`zero_one_error` and mean max score."""
    return RiskReport(zero_one_error(model, data),
                      float(model.forward(data.x).max(axis=1).mean()))


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
    y = y.astype(np.int64)
    gw, gb = np.empty(model.weights.shape), np.empty(model.bias.shape)
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite results raise below
        x = x.astype(np.float64)
        terms = _forward_terms(model.weights, model.bias, model.head, x)
        g = _output_error(terms, model.head, _targets(model.head, y, model.k))
        _parameter_gradients(g, model.head, x, gw, gb)
        if model.head == "softmax":
            terms = _row_major(terms)
        loss = float(_sample_losses(terms, model.head, _labels(model.head, y)).sum()) / len(y)
    if not (np.isfinite(loss) and np.isfinite(gw).all() and np.isfinite(gb).all()):
        raise GvlabError("bad-variable", "loss or gradient is not finite: inputs must be "
                                         "finite and small enough for this model")
    return loss, gw, gb
