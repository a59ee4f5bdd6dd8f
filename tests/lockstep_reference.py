"""Plain-numpy references for lockstep training, and the three checks that
tie ``models.train_lockstep`` to them.

Model 0 of a lockstep run equals ``train`` and :func:`reference_train` bit
for bit.  A substitute model equals :func:`reference_substitutes`, the
extended-row step written with 2-D arrays, bit for bit, and ``train`` on its
substituted dataset within :func:`substitute_bound`.  One model's 2-D
products equal the stacked form, a stack of one model on a stack of one
batch in 3-D ``matmul``s (:func:`stacked_forward_terms`,
:func:`stacked_parameter_gradients` and :func:`stacked_train`), bit for bit.
"""

import numpy as np

from gvlab.models import VectorDataset, train

#: Unit roundoff of float64.
U = 2.0 ** -53


def reference_error(terms, y):
    """One model's summed batch loss and output error, the gradient of its
    mean batch loss with respect to its terms: sigmoid ``z`` (rows,) or
    softmax logits (rows, k), with a masked sigmoid and one-hot labels."""
    if terms.ndim == 1:
        z, yf = terms, y.astype(np.float64)
        pos = z >= 0
        s = np.empty_like(z)
        s[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
        ez = np.exp(z[~pos])
        s[~pos] = ez / (1.0 + ez)
        loss_sum = float(np.sum(np.maximum(z, 0.0) - z * yf + np.log1p(np.exp(-np.abs(z)))))
        return loss_sum, (s - yf) / len(y)
    # Row-major: numpy sums a row pairwise only along a contiguous row, and in
    # sequence along a strided one (they differ from 8 classes on).
    terms = np.ascontiguousarray(terms)
    top = terms.max(axis=1, keepdims=True)
    e = np.exp(terms - top)
    total = e.sum(axis=1, keepdims=True)
    lse = np.log(total[:, 0]) + top[:, 0]
    loss_sum = float(np.sum(lse - terms[np.arange(len(y)), y]))
    return loss_sum, (e / total - np.eye(terms.shape[1])[y]) / len(y)


def reference_batch(w, b, x, y):
    """One model's summed batch loss and the gradients of its mean."""
    if len(w) == 1:
        loss_sum, g = reference_error(x @ w[0] + b[0], y)
        return loss_sum, (g @ x)[None, :], np.array([g.sum()])
    loss_sum, g = reference_error(x @ w.T + b, y)
    return loss_sum, g.T @ x, g.sum(axis=0)


def reference_train(data, config):
    """One model's SGD written with plain 2-D numpy, accumulating each
    step's loss: the reference that model 0 must match bit for bit."""
    rows = 1 if data.k == 2 else data.k
    w, b = np.zeros((rows, data.d)), np.zeros(rows)
    vw, vb = np.zeros_like(w), np.zeros_like(b)
    losses = []
    for epoch in range(config.epochs):
        rng = np.random.default_rng(np.random.SeedSequence((config.seed, epoch)))
        order = rng.permutation(data.n)
        loss_sum = 0.0
        for start in range(0, data.n, config.batch_size):
            idx = order[start:start + config.batch_size]
            batch_loss, gw, gb = reference_batch(w, b, data.x[idx], data.y[idx])
            loss_sum += batch_loss
            vw = config.momentum * vw + gw
            vb = config.momentum * vb + gb
            w = w - config.learning_rate * vw
            b = b - config.learning_rate * vb
        losses.append(loss_sum / data.n)
    return w, b, tuple(losses)


def stacked_forward_terms(w, b, head, x):
    """The stacked form of the forward terms: models ``w`` (models, rows_w,
    d) and ``b`` (models, rows_w), each on its own inputs ``x`` (models,
    rows, d), in one 3-D ``matmul``; terms (models, rows) or (models, rows,
    k)."""
    if head == "sigmoid":
        out = np.matmul(x, w[:, 0, :, None])[..., 0]
    else:
        out = np.matmul(x, w.transpose(0, 2, 1))
    out += b if head == "sigmoid" else b[:, None, :]
    return out


def stacked_parameter_gradients(g, head, x):
    """The stacked form of the parameter gradients: output errors ``g``
    (models, rows[, k]) on inputs ``x`` (models, rows, d), in one 3-D
    ``matmul``; weights (models, rows_w, d) and bias (models, rows_w)."""
    gw = np.matmul(g[:, None, :] if head == "sigmoid" else g.transpose(0, 2, 1), x)
    gb = np.add.reduce(g, axis=1)
    return gw, gb[:, None] if head == "sigmoid" else gb


def stacked_probs(w, b, head, x):
    """Score vectors (models, rows, k) from :func:`stacked_forward_terms`,
    with the masked textbook sigmoid."""
    terms = stacked_forward_terms(w, b, head, x)
    if head == "sigmoid":
        with np.errstate(over="ignore"):
            s = np.where(terms >= 0, 1.0 / (1.0 + np.exp(-terms)),
                         np.exp(terms) / (1.0 + np.exp(terms)))
        return np.stack([1.0 - s, s], axis=-1)
    terms -= terms.max(axis=2, keepdims=True)
    e = np.exp(terms)
    return e / e.sum(axis=2, keepdims=True)


def stacked_train(data, config):
    """One model's SGD in the stacked form: its weights and bias as strided
    views of one flat (rows, d + 1) block, as ``train_lockstep`` lays them
    out, stepped by :func:`stacked_forward_terms`, :func:`reference_error`
    and :func:`stacked_parameter_gradients` on a stack of one batch.
    Returns weights (rows, d), bias and per-epoch losses."""
    head = "sigmoid" if data.k == 2 else "softmax"
    rows = 1 if head == "sigmoid" else data.k
    params = np.zeros(rows * (data.d + 1))
    velocity = np.zeros_like(params)
    block = params.reshape(1, rows, data.d + 1)
    w, b = block[..., :data.d], block[..., data.d]
    losses = []
    for epoch in range(config.epochs):
        rng = np.random.default_rng(np.random.SeedSequence((config.seed, epoch)))
        order = rng.permutation(data.n)
        loss_sum = 0.0
        for start in range(0, data.n, config.batch_size):
            idx = order[start:start + config.batch_size]
            x = data.x[idx][None]
            batch_loss, g = reference_error(stacked_forward_terms(w, b, head, x)[0], data.y[idx])
            loss_sum += batch_loss
            gw, gb = stacked_parameter_gradients(g[None], head, x)
            velocity *= config.momentum
            velocity += np.concatenate([gw[0], gb[0][:, None]], axis=1).ravel()
            params -= config.learning_rate * velocity
        losses.append(loss_sum / data.n)
    return w[0].copy(), b[0].copy(), tuple(losses)


def substitute_mask(d, dims, rows):
    """The weights substitute model ``i`` trains, as rows ``i * rows`` on of
    a 0/1 mask over the extended columns: every original column but
    ``dims[i]``, and its own substitute column ``d + i``."""
    mask = np.zeros((len(dims), d + len(dims)))
    for i, j in enumerate(dims):
        mask[i, :d] = 1.0
        mask[i, j] = 0.0
        mask[i, d + i] = 1.0
    return np.repeat(mask, rows, axis=0)


def reference_substitutes(data, config, substitutions):
    """The substitute models of a lockstep run written with plain 2-D numpy:
    one weight block W (substitutions * rows, d + substitutions) on the
    extended rows ``[x | substitute columns]``, one product forward and one
    masked product backward per step.  Returns each model's weights (rows,
    d), read back with its substitute column's weight at its dimension,
    bias and per-epoch losses."""
    count, d = len(substitutions), data.d
    rows = 1 if data.k == 2 else data.k
    ext = np.ascontiguousarray(np.column_stack([data.x] + [column for _, column in substitutions]))
    mask = substitute_mask(d, [j for j, _ in substitutions], rows)
    w, b = np.zeros((count * rows, d + count)), np.zeros(count * rows)
    vw, vb = np.zeros_like(w), np.zeros_like(b)
    losses = []
    for epoch in range(config.epochs):
        rng = np.random.default_rng(np.random.SeedSequence((config.seed, epoch)))
        order = rng.permutation(data.n)
        loss_sums = np.zeros(count)
        for start in range(0, data.n, config.batch_size):
            idx = order[start:start + config.batch_size]
            x, y = ext[idx], data.y[idx]
            z = w @ x.T  # (count * rows, batch)
            errors, gb = [], []
            for i in range(count):
                block = slice(i * rows, (i + 1) * rows)
                terms = z[block][0] + b[block][0] if rows == 1 else z[block].T + b[block]
                loss_sum, g = reference_error(terms, y)
                loss_sums[i] += loss_sum
                errors.append(g[None, :] if rows == 1 else g.T)
                gb.append(np.array([g.sum()]) if rows == 1 else g.sum(axis=0))
            # (count * rows, batch), row-major as in the library: BLAS may
            # round a product with a column-major operand differently.
            g = np.ascontiguousarray(np.vstack(errors))
            vw = config.momentum * vw + (g @ x) * mask
            vb = config.momentum * vb + np.concatenate(gb)
            w = w - config.learning_rate * vw
            b = b - config.learning_rate * vb
        losses.append(loss_sums / data.n)
    results = []
    for i, (j, _) in enumerate(substitutions):
        block = slice(i * rows, (i + 1) * rows)
        weights = w[block, :d].copy()
        weights[:, j] = w[block, d + i]
        results.append((weights, b[block], tuple(loss[i] for loss in losses)))
    return results


def substituted(data, substitutions):
    """``data`` followed by one copy per substitution with its column replaced."""
    datasets = [data]
    for j, column in substitutions:
        x = data.x.copy()
        x[:, j] = column
        datasets.append(VectorDataset(x, data.y, data.k))
    return datasets


def gamma(m):
    """Higham's bound ``m u / (1 - m u)`` on the relative rounding error of a
    sum of m terms, against the sum of their absolute values."""
    return m * U / (1.0 - m * U)


def substitute_bound(data, config, substitutions):
    """How far a substitute model's weights and bias may lie from ``train``
    on its substituted dataset, and how far its forward terms may lie.

    The two runs make the same operations except for two sums: each
    forward term is a dot product over ``d + substitutions`` columns (the
    other columns' structural zeros among them) in one and over ``d`` in the
    other, and BLAS may order each weight product over the batch
    differently.  Each such sum of m terms lies within ``gamma(m)`` times
    the sum of their absolute values of the exact one.  With X the largest
    input (at least 1) and T steps, every gradient entry is at most X (a
    model's output errors sum to at most 1 over the batch), so every weight
    and bias stays within ``W = T lr X / (1 - momentum)``, and a step's
    forward terms differ by at most ``dz = 2 gamma(D) D W X`` over D = d +
    substitutions + 1 terms with the bias.  Its output errors then differ
    by at most ``(dz / 2 + 8 u) / batch``: 1/2 bounds the sigmoid's
    derivative and each row sum of the softmax Jacobian, 8 u the rounding
    of the error's few operations.  Each gradient entry differs by at most
    X times that batch sum plus ``2 gamma(batch) X``, momentum carries a
    gradient difference at most ``lr / (1 - momentum)`` into the
    parameters, and the momentum update's own roundings add ``2 u`` of the
    velocity and ``u`` of a parameter.  Summed over the T steps, to first
    order: a difference made at one step also shifts the later ones, which
    a stable run on the convex loss damps rather than amplifies.
    """
    columns = [column for _, column in substitutions]
    x_peak = max(1.0, float(np.abs(data.x).max()), *(float(np.abs(c).max()) for c in columns))
    steps = config.epochs * -(-data.n // config.batch_size)
    carry = config.learning_rate / (1.0 - config.momentum)
    w_peak = steps * carry * x_peak
    width = data.d + len(substitutions) + 1
    dz = 2.0 * gamma(width) * width * w_peak * x_peak
    dgrad = x_peak * (dz / 2.0 + 8.0 * U + 2.0 * gamma(config.batch_size))
    dvelocity = 2.0 * U * x_peak / (1.0 - config.momentum)
    bound = steps * (carry * (dgrad + dvelocity) + U * w_peak)
    return bound, width * x_peak * bound + dz


def assert_bit_equal(result, w, b, losses):
    """``result`` holds weights ``w``, bias ``b`` and the last of ``losses``."""
    assert result.model.weights.tobytes() == w.tobytes()
    assert result.model.bias.tobytes() == b.tobytes()
    assert np.float64(result.loss).tobytes() == np.float64(losses[-1]).tobytes()


def check_model_0(result, data, config):
    """Model 0 equals ``train`` and the plain reference loop bit for bit."""
    expected = reference_train(data, config)
    assert_bit_equal(result, *expected)
    assert_bit_equal(train(data, config), *expected)


def check_substitutes_match_reference(results, data, config, substitutions):
    """Each substitute model equals the extended-row reference bit for bit."""
    expected = reference_substitutes(data, config, substitutions) if substitutions else []
    assert len(results) == len(expected)
    for result, reference in zip(results, expected):
        assert_bit_equal(result, *reference)


def check_substitutes_near_train(results, data, config, substitutions):
    """Each substitute model lies within :func:`substitute_bound` of ``train``
    on its substituted dataset: weights and bias, and the final loss, whose
    samples move by at most twice their terms' bound (the loss's slope
    against the terms sums to at most 2) plus the rounding of their sum."""
    bound, dz = substitute_bound(data, config, substitutions)
    datasets = substituted(data, substitutions)[1:]
    assert len(results) == len(datasets)
    for result, dataset in zip(results, datasets):
        expected = train(dataset, config)
        assert np.abs(result.model.weights - expected.model.weights).max() <= bound
        assert np.abs(result.model.bias - expected.model.bias).max() <= bound
        slack = 2.0 * dz + gamma(dataset.n + 8) * (abs(result.loss) + abs(expected.loss))
        assert abs(result.loss - expected.loss) <= slack
