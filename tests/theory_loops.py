"""Per-table theory checks, kept as the reference for the stacked ones.

``check_optimal_outputs``, ``check_training_error`` and
``check_strict_invariance`` draw all their random tables as one array and
evaluate them as one stacked table.  These helpers keep the per-table draws
they replaced (one generator call per table and parameter, the law the
array draws keep), the blocks cut from an array draw, the loops over
those blocks, one table and one closed-form call at a time, the
single-table closed forms as they were
before the grouped forms, the mirror-descent oracle as it was before its
row maxima became column folds, and the addition rule as it was before its
kernel took label-count matrices (one sparse entropy per marginal, in the
caller's id order), so tests can pin the stacked code against them.  The
numeric optimal outputs and the exact argmax error are the independent
references of ``optimal_outputs`` and ``estimated_training_error``.

The sweeps reduce short rows as column folds; the row reductions they
replaced are kept here too: run heads from ``any(axis=1)``, label counts
from a one-hot matrix summed by ``add.reduceat``, invariance sets keyed by
``np.unique(axis=0)``, addition-rule blocks from one multi-axis sum each,
and the max-prob gap from masked entropy terms summed by ``sum(axis=1)``.
"""

from fractions import Fraction
from itertools import combinations

import numpy as np

from gvlab.core import _freeze, _run_heads
from gvlab import theory
from gvlab.errors import GvlabError
from gvlab.experiments import (_TABLE_RESTS, _TABLE_SHAPES, CheckResult, _argmax_errors,
                               _cell_table, _invariance_tables, _random_tables)
from gvlab.theory import (GAP_TOL, INVARIANCE_TOL, AdditionRule, InvarianceReport,
                          OptimalOutputs, _label_counts, optimal_outputs)

from dict_tables import marginal, reference_entropy


def nonempty(dense):
    """``dense`` with one count at its first cell if it has none, in place."""
    dense.flat[0] += not dense.any()
    return dense


def random_counts(rng, max_count=16):
    """Dense ``config + (label,)`` counts of one random table: a shape of
    ``_TABLE_SHAPES``, ``k`` in 2..4 and cell counts in 0..max_count."""
    shape = _TABLE_SHAPES[rng.integers(len(_TABLE_SHAPES))]
    k = int(rng.integers(2, 5))
    return nonempty(rng.integers(0, max_count + 1, size=shape + (k,)))


def product_counts(rng):
    """Dense counts where variable 0 is independent of (variable 1, label) by construction."""
    card_t = int(rng.integers(2, 5))
    card_c = int(rng.integers(2, 5))
    k = int(rng.integers(2, 5))
    u = rng.integers(1, 6, card_t)
    v = rng.integers(0, 7, (card_c, k))
    return nonempty(u[:, None, None] * v)


def label_copy_counts(rng):
    """Dense counts where the label deterministically copies variable 0."""
    card_t = int(rng.integers(2, 5))
    card_c = int(rng.integers(2, 5))
    cells = np.zeros((card_t, card_c, card_t), dtype=np.int64)
    diagonal = np.arange(card_t)  # the label axis copies variable 0
    cells[diagonal, :, diagonal] = rng.integers(1, 9, size=(card_t, card_c))
    return cells


def table_blocks(counts, shapes, ks):
    """Each table of a ``_random_tables`` draw as its own dense
    ``shape + (k,)`` block, cut from the ``(tables, 8, 4)`` array."""
    return [counts[t, :_TABLE_RESTS[s, 0], :k].reshape(_TABLE_SHAPES[s] + (k,))
            for t, (s, k) in enumerate(zip(shapes.tolist(), ks.tolist()))]


def invariance_blocks(products, copies, sizes):
    """The product and the label-copy tables of an ``_invariance_tables``
    draw, each as its own dense ``(card_t, card_c, k)`` block."""
    t_p, c_p, k_p, t_d, c_d = sizes.tolist()
    return ([block[:a, :b, :c] for block, a, b, c in zip(products, t_p, c_p, k_p)],
            [block[:a, :b, :a] for block, a, b in zip(copies, t_d, c_d)])


def single_training_error(opt, table):
    """``1 - E_g max_y q(y|g)`` with the configurations' ``n * max q`` added
    by the builtin sum, in order."""
    _, counts = _label_counts(table, opt.variable_ids)
    hit = sum(n * q for n, q in zip(counts.sum(axis=1).tolist(), opt.probs.max(axis=1).tolist()))
    return 1.0 - hit / sum(table.counts.tolist())


def single_argmax_error(table, determining_ids):
    """Exact 0/1 training error of the argmax predictor on one table."""
    marg = marginal(table, determining_ids)
    starts = _run_heads(marg.cells[:, :-1]).nonzero()[0]
    hits, total = int(np.maximum.reduceat(marg.counts, starts).sum()), sum(marg.counts.tolist())
    return Fraction(total - hits, total)


def argmax_zero_one_error(table, determining_ids):
    """Exact 0/1 training error of the argmax-of-conditional predictor, one
    per value of the leading determining variable, the index of tables
    stacked as in ``theory.estimated_training_error`` (one error when there
    is no determining variable)."""
    wrong, totals = _argmax_errors(table, determining_ids)
    return tuple(Fraction(w, t) for w, t in zip(wrong.tolist(), totals.tolist()))


def numeric_optimal_outputs(table, determining_ids, iterations=10_000):
    """Minimize the empirical cross-entropy numerically, per configuration.

    Independent reference for ``theory.optimal_outputs``: the training
    cross-entropy decouples into one conditional problem per observed
    configuration, each solved by ``theory.pgd_conditionals``.
    """
    configs, counts = _label_counts(table, determining_ids)
    psi = theory.pgd_conditionals(counts / counts.sum(axis=1, keepdims=True), iterations)
    return OptimalOutputs(tuple(determining_ids), configs, psi, table.k)


def single_strict_invariance(table, determining_ids, invariant_ids):
    """Worst total variation over every pair of configurations, masked to
    pairs that agree on the kept variables: one ``c x c`` mask per table."""
    det, inv = tuple(determining_ids), set(invariant_ids)
    opt = optimal_outputs(table, det)
    kept = [i for i, var_id in enumerate(det) if var_id not in inv]
    configs, q = opt.configs, opt.probs
    same = (configs[:, None, kept] == configs[None, :, kept]).all(axis=2)
    worst = float(0.5 * np.abs(q[:, None] - q[None]).sum(axis=2)[same].max())
    return InvarianceReport(worst <= INVARIANCE_TOL, worst)


def single_addition_rule(table, task_ids, nuisance_ids):
    """Both sides of the addition rule on one table from the entropies of its
    sparse marginals, input checks left out."""
    task, nuisance = tuple(task_ids), tuple(nuisance_ids)
    # I(pred; u | task) = H(pred,task) - H(task) - H(pred,task,u) + H(task,u);
    # the task-only terms are shared across the sum.
    h_pred_task = reference_entropy(table, task, True)
    h_task = reference_entropy(table, task, False)
    influence_sum = 0.0
    for var_id in nuisance:
        joint = task + (var_id,)
        term = (h_pred_task - h_task
                - reference_entropy(table, joint, True) + reference_entropy(table, joint, False))
        influence_sum += max(term, 0.0)
    return AdditionRule(influence_sum, max(h_pred_task - h_task, 0.0))


def row_reduce_pgd_conditionals(q, iterations=10_000):
    """``theory.pgd_conditionals`` with both row maxima as ``max(axis=1)`` and a
    fresh gradient array per step, input checks left out."""
    q = np.asarray(q, dtype=np.float64)
    support = q > 0.0
    psi = support / support.sum(axis=1, keepdims=True)
    log_psi = np.log(psi, out=np.full_like(psi, -np.inf), where=support)
    for _ in range(iterations):
        grad = np.divide(q, psi, out=np.zeros_like(q), where=support)
        top = grad.max(axis=1, keepdims=True)
        if top.max() - 1.0 <= GAP_TOL:
            return psi
        log_psi += grad / top
        log_psi -= log_psi.max(axis=1, keepdims=True)
        log_psi -= np.log(np.exp(log_psi).sum(axis=1, keepdims=True))
        psi = np.exp(log_psi)
    raise GvlabError("not-converged", f"duality gap above {GAP_TOL} after {iterations} "
                                      "mirror-descent iterations")


def looped_check_optimal_outputs(blocks, corrupt=False):
    probs = [theory.optimal_outputs(table, table.variable_ids).probs
             for table in map(_cell_table, blocks)]
    ends = np.cumsum([len(p) for p in probs])
    stacked = np.zeros((ends[-1], max(p.shape[1] for p in probs)))
    for p, end in zip(probs, ends):
        stacked[end - len(p):end, :p.shape[1]] = p
    numeric = theory.pgd_conditionals(stacked)
    if corrupt:
        numeric = numeric + 0.002
    worst = float((0.5 * np.abs(numeric - stacked).sum(axis=1)).max())
    return CheckResult("optimal-outputs-closed-form", worst <= 1e-4, worst,
                       f"{len(blocks)} random tables vs mirror-descent minimizer")


def looped_check_training_error(blocks, prefixes):
    worst = 0.0
    for table, prefix in zip(map(_cell_table, blocks), prefixes):
        ids = table.variable_ids[:prefix]
        estimate = single_training_error(optimal_outputs(table, ids), table)
        worst = max(worst, abs(estimate - float(single_argmax_error(table, ids))))
    return CheckResult("training-error-equality", worst <= 1e-12, worst,
                       f"{len(blocks)} random tables, argmax predictor vs estimate")


def looped_check_strict_invariance(products, copies):
    worst = 0.0
    missed = 0
    for table in map(_cell_table, products):
        report = single_strict_invariance(table, table.variable_ids, (0,))
        worst = max(worst, report.max_deviation)
        missed += not report.is_invariant
    for table in map(_cell_table, copies):
        missed += single_strict_invariance(table, table.variable_ids, (0,)).is_invariant
    return CheckResult("strict-invariance", worst <= 1e-12 and missed == 0, worst,
                       f"{len(products)} product tables and {len(copies)} dependent tables; "
                       f"misclassified: {missed}")


def looped_sweep(sweep, rng, tables):
    """The per-table loop of one stacked check (``sweep``, or
    ``optimal-outputs-corrupt`` for its hooked form) on the blocks cut from
    the array draw that check makes on ``rng``."""
    if sweep == "strict-invariance":
        return looped_check_strict_invariance(*invariance_blocks(*_invariance_tables(rng, tables)))
    counts, shapes, ks, prefixes = _random_tables(rng, tables)
    blocks = table_blocks(counts, shapes, ks)
    if sweep == "training-error":
        return looped_check_training_error(blocks, prefixes.tolist())
    return looped_check_optimal_outputs(blocks, sweep == "optimal-outputs-corrupt")


def row_any_run_heads(rows):
    """``core._run_heads`` as a reduction of each row of differences."""
    return np.concatenate(([True], (rows[1:] != rows[:-1]).any(axis=1)))[:len(rows)]


def reduceat_label_counts(table, ids):
    """``theory._label_counts`` with the label counts as one-hot rows summed per run."""
    ids = tuple(ids)
    marg = table if ids == table.variable_ids[:len(ids)] else marginal(table, ids)
    cells = marg.cells
    starts = row_any_run_heads(cells[:, :len(ids)]).nonzero()[0]
    by_label = np.zeros((len(cells), marg.k))
    by_label[np.arange(len(cells)), cells[:, -1]] = marg.counts
    return _freeze(cells[starts, :len(ids)]), np.add.reduceat(by_label, starts)


def unique_rows_strict_invariance(table, determining_ids, invariant_ids, grouped=False):
    """``theory.check_strict_invariance`` with its sets keyed by the kept
    columns' rows through ``np.unique(axis=0)``, input checks left out."""
    det, inv = tuple(determining_ids), set(invariant_ids)
    opt = optimal_outputs(table, det)
    kept = [i for i, var_id in enumerate(det) if var_id not in inv]
    keys, members = np.unique(opt.configs[:, kept], axis=0, return_inverse=True)
    order = np.argsort(members, kind="stable")
    sizes = np.bincount(members)
    starts = np.cumsum(sizes) - sizes
    spread = np.zeros(len(keys))
    for size in set(sizes.tolist()) - {1}:
        sets = (sizes == size).nonzero()[0]
        q = opt.probs[order[starts[sets, None] + np.arange(size)]]
        spread[sets] = (0.5 * np.abs(q[:, :, None] - q[:, None]).sum(axis=3)).max(axis=(1, 2))
    worst = np.maximum.reduceat(spread,
                                row_any_run_heads(keys[:, :int(grouped)]).nonzero()[0]).tolist()
    reports = tuple(InvarianceReport(w <= INVARIANCE_TOL, w) for w in worst)
    return reports if grouped else reports[0]


def multi_axis_block_counts(counts):
    """``experiments.block_counts`` with each block one sum over its missing axes."""
    return {block: counts.sum(axis=tuple(2 + i for i in range(3) if i not in block))
            .reshape(counts.shape[:2] + (2 ** len(block), 2))
            for size in range(4) for block in combinations(range(3), size)}


def masked_max_prob_gap(p, corrupt):
    """``experiments._max_prob_gap`` with the terms of zero ``p`` set to 0.0
    and each row summed by ``sum(axis=1)``; ``p`` is left as it is."""
    terms = np.maximum(p, 1e-300)
    np.log(terms, out=terms)
    terms *= p
    terms[~(p > 0)] = 0.0
    h = -terms.sum(axis=1)
    bound = np.maximum(0.0, 1.0 - h / (2.0 * np.log(2.0)))
    if corrupt:
        bound = bound + 0.01
    return float((bound - p.max(axis=1)).max())
