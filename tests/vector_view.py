"""Vector data viewed as a generative-variable ``Dataset``, kept as the
reference for ``synth._vector_codes``.

The toy protocols and InvarTG once binned vector columns through this view:
each column a continuous variable ranged by its own min/max.  They now bin
the columns directly, and tests pin those codes, and every entropy read
from them, against ``core._column_codes`` and the tables of this view.
"""

import numpy as np

from gvlab.core import Dataset, VariableSpec


def as_variable_dataset(data, columns=None):
    """View vector data as a generative-variable dataset.

    Each of ``columns`` (every column by default), in that order, becomes a
    continuous variable numbered from 0 and named ``g<column>``, ranged by
    its own min/max (widened by a hair when constant, since declared ranges
    must be non-degenerate).
    """
    if columns is None:
        columns, values = range(data.d), data.x
    else:
        values = np.take(data.x, columns, axis=1)
    specs = []
    for var_id, j in enumerate(columns):
        col = values[:, var_id]
        lo, hi = float(col.min()), float(col.max())
        if lo == hi:
            hi = lo + 1e-9
        specs.append(VariableSpec.continuous(var_id, f"g{j}", lo, hi))
    return Dataset(tuple(specs), values, data.y, data.k)
