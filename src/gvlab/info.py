"""The one plug-in entropy over grouped counts.

The influence ranking's conditional entropies in ``synth`` and the
addition rule's block entropies in ``theory`` are empirical
(maximum-likelihood) estimates computed directly from counts by
:func:`count_entropy`, in natural-log units (nats).  Zero counts contribute nothing (0 log 0 = 0) and no
smoothing is applied.
"""

from __future__ import annotations

import numpy as np

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
