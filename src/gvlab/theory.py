"""Closed-form results on count tables, with a numeric cross-check oracle.

Contents:

- ``gap_bound``: uniform-convergence gap for hypotheses whose prediction
  is a function of a variable block with ``t`` configurations over ``k``
  labels: ``sqrt(2 (t k ln2 + ln(1/delta)) / n)``.
- ``excess_risk_bound``: excess-risk bound for hypotheses whose
  prediction entropy given the task-correlated block is at most ``gamma``
  nats: twice the gap bound plus ``gamma / ln2``.
- ``max_prob_lower_bound``: for any distribution on ``k`` labels,
  ``max_y p(y) >= 1 - H / (2 ln2)``; tight at the binary uniform point.
- ``optimal_outputs``: the cross-entropy-optimal score table for
  hypotheses determined by a variable block: the empirical conditional
  label distribution per configuration.
- ``estimated_training_error``: the 0/1 training error of the optimal
  hypothesis, ``1 - sum_g p(g) max_y q(y|g)``.
- ``check_strict_invariance``: whether optimal outputs ignore a variable
  subset (zero total-variation spread across its values).
- ``addition_rule``: per-variable conditional-information sum and the
  prediction entropy given the task block, for deterministic predictors.
  Its one kernel, block entropies from ``(..., configurations, k)`` label
  counts and one formula over them, also runs the criterion-05 sweep on
  all 256 truth tables at once.
- ``pgd_conditionals``: independent entropic mirror-descent minimizer of
  a cross-entropy per row, used only to validate the closed form; it stops
  on a duality-gap certificate.

Many small tables are evaluated as one: stacked into one table whose
leading variable is the table index, and with ``k`` padded to the widest.
``optimal_outputs`` of the stack holds every table's vectors (padded labels
at zero mass), and ``estimated_training_error`` and
``check_strict_invariance`` with ``grouped=True`` return one result per
table, each equal to the result of the call on that table alone.  The
single-table calls are the case of one group.

Entropies are in nats throughout; ``ln2`` converts the binary-log
constants of the source bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import Sequence

import numpy as np

from .core import (ExemplarTable, _check_row_order, _equal_fields, _freeze, _run_heads,
                   _unchecked, marginalize)
from .errors import GvlabError
from .info import Nats, count_entropy

LN2 = math.log(2.0)

#: Output vectors differing by at most this total variation count as equal.
INVARIANCE_TOL = 1e-9

#: Frank-Wolfe duality gap at which the mirror descent of
#: :func:`pgd_conditionals` stops.  The gap bounds ``KL(q || psi)``, so by
#: Pinsker the total variation to the optimum is at most ``sqrt(GAP_TOL / 2)``.
GAP_TOL = 1e-14


def gap_bound(t: int, k: int, n: int, delta: float) -> float:
    """Uniform-convergence bound on |empirical - expected risk|.

    ``t`` is the number of distinct task-correlated configurations, ``k``
    the label count, ``n`` the sample count, ``delta`` the failure
    probability.
    """
    if not (0.0 < delta < 1.0 and 1.0 / delta < math.inf):
        raise GvlabError("bad-delta", f"delta must lie in (0,1) with a finite 1/delta, "
                                      f"got {delta}")
    if n < 1:
        raise GvlabError("bad-n", f"sample count must be >= 1, got {n}")
    if t < 1 or k < 1:
        raise GvlabError("bad-variable", f"t and k must be >= 1, got t={t} k={k}")
    try:
        gap = math.sqrt(2.0 * (t * k * LN2 + math.log(1.0 / delta)) / n)
    except OverflowError:  # an integer past the float range
        gap = math.inf
    if gap == math.inf:
        raise GvlabError("bad-variable", f"t={t}, k={k}, n={n} put the bound past the float range")
    return gap


def excess_risk_bound(t: int, k: int, n: int, delta: float, gamma: Nats) -> float:
    """Excess risk over the best in-class hypothesis: 2*gap + gamma/ln2."""
    if not 0.0 <= gamma / LN2 < math.inf:
        raise GvlabError("bad-gamma", f"dependence level must be >= 0 with a finite gamma/ln2, "
                                      f"got {gamma}")
    return 2.0 * gap_bound(t, k, n, delta) + gamma / LN2


def max_prob_lower_bound(label_entropy: Nats) -> float:
    """Lower bound on the largest probability of a label distribution."""
    if label_entropy < 0.0:
        raise GvlabError("bad-variable", f"entropy must be >= 0, got {label_entropy}")
    return max(0.0, 1.0 - label_entropy / (2.0 * LN2))


@dataclass(frozen=True)
class BoundReport:
    """Evaluated bounds for one (t, k, n, delta, gamma) input row.

    ``thm2_excess`` composes the gap bound recorded in ``thm1_gap`` (at
    epsilon/2, hence the factor two) with the dependence term; the report
    thereby records exactly which uniform-convergence bound was composed.
    """

    t: int
    k: int
    n: int
    delta: float
    gamma: Nats | None
    thm1_gap: float
    thm2_excess: float | None

    @staticmethod
    def evaluate(t: int, k: int, n: int, delta: float, gamma: Nats | None = None) -> "BoundReport":
        gap = gap_bound(t, k, n, delta)
        gamma = None if gamma is None else float(gamma)  # so rows_csv writes an int gamma 0 as 0.0
        excess = None if gamma is None else excess_risk_bound(t, k, n, delta, gamma)
        return BoundReport(t, k, n, delta, gamma, gap, excess)


@dataclass(frozen=True)
class OptimalOutputs:
    """Cross-entropy-optimal score vectors in coordinate form: ``configs`` is a
    read-only ``(c, len(variable_ids))`` int64 array of the configurations in
    strictly increasing lexicographic order, ``probs`` the read-only ``(c, k)``
    float64 array of their output vectors."""

    variable_ids: tuple[int, ...]
    configs: np.ndarray
    probs: np.ndarray
    k: int

    __eq__ = _equal_fields

    def __post_init__(self):
        try:  # np.array and astype copy: the caller's arrays stay writable
            configs, probs = np.asarray(self.configs), _freeze(np.array(self.probs, dtype=float))
        except (TypeError, ValueError) as err:  # ragged rows or non-numbers
            raise GvlabError("bad-variable", f"configs and probs must be arrays: {err}") from None
        if configs.dtype.kind not in "iu" or not np.can_cast(configs.dtype, np.int64):
            raise GvlabError("bad-variable", "configurations must be integers")
        configs = _freeze(configs.astype(np.int64))
        if probs.shape[1:] != (self.k,) or configs.shape != (len(probs), len(self.variable_ids)):
            raise GvlabError("bad-variable", f"configs {configs.shape} and probs {probs.shape} "
                                             f"must be (c, {len(self.variable_ids)}), (c, {self.k})")
        if not ((probs >= 0.0).all() and (np.abs(probs.sum(axis=1) - 1.0) <= 1e-12).all()):
            raise GvlabError("bad-variable", "every output must be a probability vector")
        _check_row_order(configs, "configurations")
        object.__setattr__(self, "configs", configs)
        object.__setattr__(self, "probs", probs)


def _label_counts(table: ExemplarTable, ids: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Observed configurations over ``ids``, sorted and read-only, and their (c, k) label counts."""
    if not len(table.counts):
        raise GvlabError("empty-table", "the table has no counts")
    ids = tuple(ids)
    # On a prefix of its variables the table's own cells already run by configuration.
    marg = table if ids == table.variable_ids[:len(ids)] else marginalize(table, ids)
    cells = marg.cells
    starts = _run_heads(cells[:, :len(ids)]).nonzero()[0]
    by_label = np.zeros((len(cells), marg.k))
    by_label[np.arange(len(cells)), cells[:, -1]] = marg.counts
    return _freeze(cells[starts, :len(ids)]), np.add.reduceat(by_label, starts)


def optimal_outputs(table: ExemplarTable, determining_ids: Sequence[int]) -> OptimalOutputs:
    """Empirical conditional label distribution per determining configuration.

    Configurations without observations are absent: training cross-entropy
    never queries them, so the optimum does not constrain them.
    """
    configs, counts = _label_counts(table, determining_ids)
    return _unchecked(OptimalOutputs, tuple(determining_ids), configs,
                      _freeze(counts / counts.sum(axis=1, keepdims=True)), table.k)


def estimated_training_error(opt: OptimalOutputs, table: ExemplarTable,
                             grouped: bool = False) -> float | np.ndarray:
    """Training error of the optimal hypothesis: 1 - E_g max_y q(y|g).

    With ``grouped``, the leading determining variable indexes tables
    stacked in ``table``; the result holds one error per observed value, each
    the float that the call on that table alone returns.
    """
    if not set(opt.variable_ids) <= set(table.variable_ids):
        raise GvlabError("table-mismatch", "outputs were built over different variables")
    if grouped and not opt.variable_ids:
        raise GvlabError("bad-variable", "grouped outputs need a leading variable to group by")
    configs, counts = _label_counts(table, opt.variable_ids)
    if not np.array_equal(configs, opt.configs):
        raise GvlabError("table-mismatch", "configuration sets differ between outputs and table")
    n = counts.sum(axis=1)
    starts = _run_heads(configs[:, :int(grouped)]).nonzero()[0]  # one run when not grouped
    # The builtin sum adds each group's n * max q strictly in configuration
    # order; numpy's sum would pair the additions from 8 terms on.
    terms, bounds = (n * opt.probs.max(axis=1)).tolist(), starts.tolist() + [len(n)]
    hits = np.array([sum(terms[a:b]) for a, b in zip(bounds, bounds[1:])])
    errors = 1.0 - hits / np.add.reduceat(n, starts)
    return errors if grouped else float(errors[0])


@dataclass(frozen=True)
class InvarianceReport:
    is_invariant: bool
    max_deviation: float


def check_strict_invariance(table: ExemplarTable, determining_ids: Sequence[int],
                            invariant_ids: Sequence[int], grouped: bool = False
                            ) -> InvarianceReport | tuple[InvarianceReport, ...]:
    """Do the optimal outputs ignore ``invariant_ids``?

    Groups the determining configurations by the values of the remaining
    variables and reports the maximum total-variation distance between
    output vectors within any group.  With ``grouped``, the leading
    determining variable indexes tables stacked in ``table`` and must not be
    invariant; the result holds one report per observed value, each the
    report of the call on that table alone.
    """
    det = tuple(determining_ids)
    inv = set(invariant_ids)
    if not inv <= set(det):
        raise GvlabError("bad-variable", "invariant ids must be a subset of determining ids")
    if grouped and (not det or det[0] in inv):
        raise GvlabError("bad-variable", "grouping needs a leading determining variable "
                                         "that is not invariant")
    opt = optimal_outputs(table, det)
    kept = [i for i, var_id in enumerate(det) if var_id not in inv]
    # Pairwise total variation within each set of configurations that agree
    # on the kept variables, one array per set size: never a pair across sets.
    keys, members = np.unique(opt.configs[:, kept], axis=0, return_inverse=True)
    order = np.argsort(members, kind="stable")
    sizes = np.bincount(members)
    starts = np.cumsum(sizes) - sizes
    spread = np.zeros(len(keys))  # a set of one has no spread
    # A Python set: numpy's 1-D integer unique keeps heap in use after its first call.
    for size in set(sizes.tolist()) - {1}:
        sets = (sizes == size).nonzero()[0]
        q = opt.probs[order[starts[sets, None] + np.arange(size)]]
        spread[sets] = (0.5 * np.abs(q[:, :, None] - q[:, None]).sum(axis=3)).max(axis=(1, 2))
    # Keys sort by the leading kept variable, the table index when grouped.
    worst = np.maximum.reduceat(spread, _run_heads(keys[:, :int(grouped)]).nonzero()[0]).tolist()
    reports = tuple(InvarianceReport(w <= INVARIANCE_TOL, w) for w in worst)
    return reports if grouped else reports[0]


@dataclass(frozen=True)
class AdditionRule:
    """Per-variable influence sum and prediction entropy given the task block.

    ``influence_sum`` is the sum over task-uncorrelated variables of the
    conditional mutual information between the prediction column and that
    variable given the task-correlated block; ``entropy_given_task`` is
    H(prediction | task-correlated block).  Both in nats.
    """

    influence_sum: Nats
    entropy_given_task: Nats


def addition_rule(table: ExemplarTable, task_ids: Sequence[int],
                  nuisance_ids: Sequence[int]) -> AdditionRule:
    """Evaluate both sides of the influence addition rule.

    The table's label column must hold deterministic model predictions:
    each full variable configuration carries exactly one prediction.
    """
    task, nuisance = tuple(task_ids), tuple(nuisance_ids)
    if set(task) & set(nuisance):
        raise GvlabError("overlapping-variables", "task and nuisance ids overlap")
    if set(task) | set(nuisance) != set(table.variable_ids):
        raise GvlabError("bad-variable", "task + nuisance ids must cover the table variables")
    same_config = ~_run_heads(table.cells[:, :-1])
    if same_config.any():
        config = tuple(table.cells[same_config.argmax(), :-1].tolist())
        raise GvlabError("not-a-hypothesis", f"configuration {config} maps to several predictions")
    blocks = {tuple(sorted(task))} | {tuple(sorted(task + (v,))) for v in nuisance}
    entropies = {block: _block_entropies(_label_counts(table, block)[1]) for block in blocks}
    return AdditionRule(*map(float, _addition_sides(entropies, task, nuisance)))


def _block_entropies(joint: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``H(label, block)`` and ``H(block)`` in nats from a block's ``(..., configurations, k)``
    label counts; leading axes index independent tables.  The label axis is summed
    first, so complement predictions tie bit for bit; unobserved configurations add 0.0."""
    total = joint.sum(axis=(-2, -1))[..., None]
    return (count_entropy(joint, total[..., None], group_axes=2),
            count_entropy(joint.sum(axis=-1), total))


def _addition_sides(entropies: dict, task: tuple[int, ...], nuisance: tuple[int, ...]):
    """Both sides of the rule from the :func:`_block_entropies` of blocks keyed by
    ascending ids: I(pred; u | task) = H(pred,task) - H(task) - H(pred,task,u) + H(task,u),
    summed over ``nuisance`` in order, and H(pred | task)."""
    h_pred_task, h_task = entropies[tuple(sorted(task))]
    influence_sum = 0.0
    for var_id in nuisance:
        h_pred_joint, h_joint = entropies[tuple(sorted(task + (var_id,)))]
        influence_sum += np.maximum(h_pred_task - h_task - h_pred_joint + h_joint, 0.0)
    return influence_sum, np.maximum(h_pred_task - h_task, 0.0)


# ---------------------------------------------------------------------------
# Numeric reference minimizer (validation only)
# ---------------------------------------------------------------------------

def pgd_conditionals(q: np.ndarray, iterations: int = 10_000) -> np.ndarray:
    """Entropic mirror-descent minimizer of ``-sum_y q_y log psi_y`` per row.

    Each row of ``q`` is an independent target distribution.  Iterates start
    uniform on the row's support and stay exactly 0 off it (mass there only
    adds cross-entropy).  Each step is exponentiated gradient (Kivinen &
    Warmuth 1997; Beck & Teboulle 2003): add ``g / max_y g``, with
    ``g = q / psi``, to ``log psi`` and renormalize by log-sum-exp.

    The minimizer stops on a certificate that does not use the closed-form
    optimum: the Frank-Wolfe duality gap ``max_y q_y / psi_y - 1``, which
    bounds ``KL(q || psi)`` (Jaggi, ICML 2013).  It returns the first iterate
    whose gap, taken over all rows, is at most :data:`GAP_TOL`.
    ``iterations`` is a hard cap; reaching it raises ``GvlabError("not-converged")``.
    Input other than a stack of probability rows raises ``GvlabError("bad-variable")``.
    Row maxima are column folds (exact: a maximum ignores order); the log-sum-exp
    keeps the row sum, whose pairwise order from 8 labels on a fold would change.
    """
    q = np.asarray(q, dtype=np.float64)
    if (q.ndim != 2 or q.size == 0 or not np.isfinite(q).all() or (q < 0.0).any()
            or (np.abs(q.sum(axis=1) - 1.0) > 1e-12).any()):
        raise GvlabError("bad-variable", "oracle input must be a non-empty 2-D stack of "
                                         f"probability vectors, got shape {q.shape}")
    support = q > 0.0
    psi = support / support.sum(axis=1, keepdims=True)
    log_psi = np.log(psi, out=np.full_like(psi, -np.inf), where=support)
    grad = np.zeros_like(q)  # off the fixed support it stays 0
    for _ in range(iterations):
        np.divide(q, psi, out=grad, where=support)
        top = reduce(np.maximum, grad.T)[:, None]
        if top.max() - 1.0 <= GAP_TOL:
            return psi
        log_psi += grad / top
        log_psi -= reduce(np.maximum, log_psi.T)[:, None]
        log_psi -= np.log(np.exp(log_psi).sum(axis=1, keepdims=True))
        psi = np.exp(log_psi)
    raise GvlabError("not-converged", f"duality gap above {GAP_TOL} after {iterations} "
                                      "mirror-descent iterations")
