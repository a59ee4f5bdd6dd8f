"""Plug-in information measures over exemplar count tables.

All quantities are empirical (maximum-likelihood) estimates computed
directly from counts, in natural-log units (nats), by the one plug-in
entropy :func:`count_entropy`.  Zero counts contribute nothing
(0 log 0 = 0) and no smoothing is applied.
"""

from __future__ import annotations

from typing import Literal, Sequence

import numpy as np

from .core import ExemplarTable, _run_heads, marginalize
from .errors import GvlabError

#: Non-negative real in natural-log units.
Nats = float


def count_entropy(counts: np.ndarray, total, group_axes: int = 1) -> np.ndarray:
    """Plug-in entropy ``-sum_g p_g log p_g`` of grouped counts, ``p = counts / total``.

    The trailing ``group_axes`` axes of ``counts`` index the groups, and any
    leading axes independent distributions.  Each group axis is summed in
    turn, innermost first, strictly from its first group to its last.
    """
    p = counts / total
    terms = np.log(np.where(p > 0.0, p, 1.0))
    terms *= p
    for _ in range(group_axes):
        terms = sum(np.moveaxis(terms, -1, 0))  # 0 with no groups
    return -terms


def _group_entropy(table: ExemplarTable, ids: tuple[int, ...], with_labels: bool) -> float:
    """Entropy of the marginal over the variables ``ids`` (and the label)."""
    if not len(table.counts):
        raise GvlabError("empty-table", "information measures need a positive total count")
    marg = marginalize(table, ids)
    counts = marg.counts
    if not with_labels:  # one run of cells per configuration
        counts = np.add.reduceat(counts, _run_heads(marg.cells[:, :len(ids)]).nonzero()[0])
    return float(count_entropy(counts, table.total))


def entropy(table: ExemplarTable, over: Literal["labels", "variables", "joint"] = "labels") -> Nats:
    """Empirical entropy of the selected marginal of the table."""
    if over not in ("labels", "variables", "joint"):
        raise GvlabError("bad-variable", f"unknown marginal {over!r}")
    ids = () if over == "labels" else table.variable_ids
    return max(_group_entropy(table, ids, over != "variables"), 0.0)


def conditional_entropy(table: ExemplarTable, target: Literal["labels"] = "labels",
                        given_ids: Sequence[int] = ()) -> Nats:
    """Empirical H(label | given variables) = sum_g p(g) H(label | g)."""
    if target != "labels":
        raise GvlabError("bad-variable", "only the label column can be the target")
    given = tuple(given_ids)
    return max(_group_entropy(table, given, True) - _group_entropy(table, given, False), 0.0)
