"""Dict view of count tables, kept as the reference for the coordinate arrays.

``ExemplarTable`` stores its cells and counts as arrays.  These helpers turn
a table into the ``{(configuration, label): count}`` dict it once was and
back, and recompute marginals and entropies with the dict loops the arrays
replaced, so tests can pin the array code against them.
"""

import math

import numpy as np

from gvlab.core import ExemplarTable


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


def reference_entropy(table, ids, with_labels):
    """Entropy of the marginal over ``ids`` (and the label) by a dict loop."""
    positions = [table.variable_ids.index(var_id) for var_id in ids]
    groups = {}
    for (config, label), count in table_dict(table).items():
        key = tuple(config[p] for p in positions) + ((label,) if with_labels else ())
        groups[key] = groups.get(key, 0) + count
    total = table.total
    return -sum(count / total * math.log(count / total) for count in groups.values())


def reference_information(table, a, b, c, with_labels=False):
    """I(A; B | C) from dict-loop entropies, with the label joining side A if asked."""
    h = reference_entropy
    return max((h(table, a + c, with_labels) - h(table, c, False))
               - (h(table, a + b + c, with_labels) - h(table, b + c, False)), 0.0)
