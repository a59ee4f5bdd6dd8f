"""Count tables by dict loops and row sorts: the reference that the array
code is pinned against.

``ExemplarTable`` stores its cells and counts as arrays.  These helpers turn
a table into the ``{(configuration, label): count}`` dict it once was and
back, recompute marginals and entropies with dict loops, bin vector columns
and count their rows with one row sort, so tests can pin the array code
against them.  Nothing here validates its input.
"""

import numpy as np

from gvlab.core import ExemplarTable
from gvlab.info import count_entropy


def table_dict(table):
    """``{(configuration tuple, label): count}`` of a table, in cell order."""
    return {(tuple(cell[:-1]), cell[-1]): count
            for cell, count in zip(table.cells.tolist(), table.counts.tolist())}


def table_from_dict(counts, axis_sizes, k, variable_ids=None):
    """Checked table from a ``{(configuration, label): count}`` dict; zero
    counts are dropped and the keys sorted into cell order."""
    ids = tuple(range(len(axis_sizes))) if variable_ids is None else tuple(variable_ids)
    items = sorted((tuple(config) + (label,), count)
                   for (config, label), count in counts.items() if count)
    cells = np.array([cell for cell, _ in items], dtype=np.int64).reshape(len(items), len(ids) + 1)
    return ExemplarTable(ids, tuple(axis_sizes), cells,
                         np.array([count for _, count in items], dtype=np.int64), k)


def reference_marginal(table, ids):
    """Per-cell accumulation of the counts over ``ids``, in first-appearance order."""
    positions = [table.variable_ids.index(var_id) for var_id in ids]
    merged = {}
    for (config, label), count in table_dict(table).items():
        key = (tuple(config[p] for p in positions), label)
        merged[key] = merged.get(key, 0) + count
    return merged


def marginal(table, ids):
    """Checked table of the counts over ``ids``, summed exactly by a dict loop."""
    sizes = tuple(table.axis_sizes[table.variable_ids.index(var_id)] for var_id in ids)
    return table_from_dict(reference_marginal(table, ids), sizes, table.k, ids)


def reference_entropy(table, ids, with_labels):
    """Entropy of the marginal over ``ids`` (and the label): ``count_entropy``
    of its exact group counts, the groups in lexicographic order."""
    groups = {}
    for (config, label), count in sorted(reference_marginal(table, ids).items()):
        key = (config, label) if with_labels else config
        groups[key] = groups.get(key, 0) + count
    return float(count_entropy(np.array(list(groups.values()), dtype=np.int64),
                               sum(groups.values())))


def conditional_entropy(table, ids):
    """H(label | ids), clipped at 0."""
    return max(reference_entropy(table, ids, True) - reference_entropy(table, ids, False), 0.0)


def reference_information(table, a, b, c, with_labels=False):
    """I(A; B | C) from dict-loop entropies, with the label joining side A if asked."""
    h = reference_entropy
    return max((h(table, a + c, with_labels) - h(table, c, False))
               - (h(table, a + b + c, with_labels) - h(table, b + c, False)), 0.0)


def vector_codes(data, columns, bins):
    """``(len(columns), n)`` codes of vector data's columns: each binned by the
    plain equal-width floor over its own min/max, a constant column in bin 0."""
    codes = np.zeros((len(columns), data.n), dtype=np.int64)
    for row, j in zip(codes, columns):
        col = data.x[:, j]
        lo, hi = col.min(), col.max()
        if lo < hi:
            row[:] = np.minimum(np.floor((col - lo) / ((hi - lo) / bins)), bins - 1)
    return codes


def count_table(codes, labels, k, axis_sizes=None):
    """Checked table of the rows ``(codes[0][i], ..., labels[i])``, counted by one
    row sort; variables are numbered from 0, and each axis is by default one
    past its largest code."""
    cells, counts = np.unique(np.column_stack([*codes, labels]).astype(np.int64), axis=0,
                              return_counts=True)
    if axis_sizes is None:
        axis_sizes = tuple(int(c.max()) + 1 for c in codes)
    return ExemplarTable(tuple(range(len(codes))), tuple(axis_sizes), cells, counts, k)
