"""Per-table theory checks, kept as the reference for the stacked ones.

``check_optimal_outputs``, ``check_training_error`` and
``check_strict_invariance`` evaluate all their random tables as one stacked
table.  These helpers keep the loops they replaced, one table and one
closed-form call at a time, the single-table closed forms as they were
before the grouped forms, the mirror-descent oracle as it was before its
row maxima became column folds, and the addition rule as it was before its
kernel took label-count matrices (one sparse entropy per marginal, in the
caller's id order), so tests can pin the stacked code against them.
"""

from fractions import Fraction

import numpy as np

from gvlab.core import _run_heads, marginalize
from gvlab import theory
from gvlab.errors import GvlabError
from gvlab.experiments import (CheckResult, _cell_table, _label_copy_counts, _product_counts,
                               _random_counts)
from gvlab.info import _group_entropy
from gvlab.theory import (GAP_TOL, INVARIANCE_TOL, AdditionRule, InvarianceReport, _label_counts,
                          optimal_outputs)


def single_training_error(opt, table):
    """``1 - E_g max_y q(y|g)`` with the configurations' ``n * max q`` added
    by the builtin sum, in order."""
    _, counts = _label_counts(table, opt.variable_ids)
    hit = sum(n * q for n, q in zip(counts.sum(axis=1).tolist(), opt.probs.max(axis=1).tolist()))
    return 1.0 - hit / table.total


def single_argmax_error(table, determining_ids):
    """Exact 0/1 training error of the argmax predictor on one table."""
    marg = marginalize(table, determining_ids)
    starts = _run_heads(marg.cells[:, :-1]).nonzero()[0]
    hits = int(np.maximum.reduceat(marg.counts, starts).sum())
    return Fraction(marg.total - hits, marg.total)


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
    h_pred_task = _group_entropy(table, task, True)
    h_task = _group_entropy(table, task, False)
    influence_sum = 0.0
    for var_id in nuisance:
        joint = task + (var_id,)
        term = (h_pred_task - h_task
                - _group_entropy(table, joint, True) + _group_entropy(table, joint, False))
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


def looped_check_optimal_outputs(rng, tables, corrupt=False):
    probs = [theory.optimal_outputs(table, table.variable_ids).probs
             for table in (_cell_table(_random_counts(rng)) for _ in range(tables))]
    ends = np.cumsum([len(p) for p in probs])
    stacked = np.zeros((ends[-1], max(p.shape[1] for p in probs)))
    for p, end in zip(probs, ends):
        stacked[end - len(p):end, :p.shape[1]] = p
    numeric = theory.pgd_conditionals(stacked)
    if corrupt:
        numeric = numeric + 0.002
    worst = float((0.5 * np.abs(numeric - stacked).sum(axis=1)).max())
    return CheckResult("optimal-outputs-closed-form", worst <= 1e-4, worst,
                       f"{tables} random tables vs mirror-descent minimizer")


def looped_check_training_error(rng, tables):
    worst = 0.0
    for _ in range(tables):
        table = _cell_table(_random_counts(rng))
        ids = table.variable_ids[:int(rng.integers(0, len(table.variable_ids))) + 1]
        estimate = single_training_error(optimal_outputs(table, ids), table)
        worst = max(worst, abs(estimate - float(single_argmax_error(table, ids))))
    return CheckResult("training-error-equality", worst <= 1e-12, worst,
                       f"{tables} random tables, argmax predictor vs estimate")


def looped_check_strict_invariance(rng, tables):
    worst = 0.0
    missed = 0
    for _ in range(tables):
        table = _cell_table(_product_counts(rng))
        report = single_strict_invariance(table, table.variable_ids, (0,))
        worst = max(worst, report.max_deviation)
        missed += not report.is_invariant
    for _ in range(tables):
        table = _cell_table(_label_copy_counts(rng))
        missed += single_strict_invariance(table, table.variable_ids, (0,)).is_invariant
    return CheckResult("strict-invariance", worst <= 1e-12 and missed == 0, worst,
                       f"{tables} product tables and {tables} dependent tables; "
                       f"misclassified: {missed}")

