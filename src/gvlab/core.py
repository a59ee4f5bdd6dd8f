"""Domain types for generative-variable data and empirical count tables.

A classification task is described by a set of *generative variables*
(discrete or continuous latent factors), and every observation is an
*exemplar*: one value per variable plus an integer label, one row of a
:class:`Dataset`.  The table-level information machinery operates on
:class:`ExemplarTable`, the empirical joint count table over a chosen
subset of variables and the label.

Continuous variables are discretized by equal-width binning over their
declared range before counting (:func:`_range_codes`, the one binning rule;
the toy protocols bin vector columns over their own min/max with it).
Values outside the declared range are clamped into the boundary bins so
that estimators stay total-preserving even when evaluation data exceeds
the range observed at fit time.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, fields
from functools import cached_property
from typing import Iterable, Literal, Sequence

import numpy as np

from .errors import GvlabError

Correlation = Literal["task_correlated", "task_uncorrelated", "unknown"]

_INT64_MAX = int(np.iinfo(np.int64).max)


def _is_int(value) -> bool:
    """True for a Python or numpy integer; a bool is not taken as one."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _seed_sequence(keys: tuple) -> np.random.SeedSequence:
    """``SeedSequence(keys)``, or ``bad-variable`` unless each key is an integer >= 0."""
    if not all(_is_int(key) and key >= 0 for key in keys):
        raise GvlabError("bad-variable", f"seed keys must be integers >= 0, got {keys}")
    return np.random.SeedSequence(keys)


def stream(seed: int, *path: int) -> np.random.Generator:
    """The random stream keyed by (seed, purpose path); ``stream(s)`` draws what
    ``np.random.default_rng(s)`` draws."""
    return np.random.default_rng(_seed_sequence((seed,) + path))


def derive_seed(base: int, *path: int) -> int:
    """Stable 32-bit seed for a (base seed, purpose path) pair of non-negative integers."""
    return int(_seed_sequence((base,) + path).generate_state(1)[0])


@dataclass(frozen=True)
class VariableSpec:
    """Description of one generative variable.

    Discrete variables take integer codes ``0..cardinality-1``; continuous
    variables take reals and must declare a non-degenerate closed range
    ``[lo, hi]`` used for equal-width binning.
    """

    var_id: int
    name: str
    kind: Literal["discrete", "continuous"]
    cardinality: int | None = None
    lo: float | None = None
    hi: float | None = None
    correlation: Correlation = "unknown"

    def __post_init__(self):
        if self.var_id < 0:
            raise GvlabError("bad-variable", f"variable id must be >= 0, got {self.var_id}")
        if self.kind == "discrete":
            if self.cardinality is None or self.cardinality < 1:
                raise GvlabError("bad-variable", f"discrete variable {self.var_id} needs cardinality >= 1")
        elif self.kind == "continuous":
            if (self.lo is None or self.hi is None or not self.lo < self.hi
                    or not math.isfinite(self.hi - self.lo)):
                raise GvlabError("bad-variable",
                                 f"continuous variable {self.var_id} needs lo < hi "
                                 f"with a finite width")
        else:
            raise GvlabError("bad-variable", f"unknown variable kind {self.kind!r}")

    @staticmethod
    def discrete(var_id: int, name: str, cardinality: int,
                 correlation: Correlation = "unknown") -> "VariableSpec":
        return VariableSpec(var_id, name, "discrete", cardinality=cardinality, correlation=correlation)

    @staticmethod
    def continuous(var_id: int, name: str, lo: float, hi: float,
                   correlation: Correlation = "unknown") -> "VariableSpec":
        return VariableSpec(var_id, name, "continuous", lo=lo, hi=hi, correlation=correlation)


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


def _equal_fields(self, other) -> bool:
    """``==`` of array records, field by field: ``==`` on arrays is elementwise."""
    return type(other) is type(self) and all(
        np.array_equal(getattr(self, name), getattr(other, name))
        for name in self.__dataclass_fields__)


def _check_row_order(rows: np.ndarray, what: str) -> None:
    """Raise ``bad-variable`` unless the rows of a 2-D array are distinct and in
    increasing lexicographic order (so at most one row of width 0)."""
    if not np.array_equal(np.unique(rows, axis=0), rows):
        raise GvlabError("bad-variable", f"{what} must be distinct and in lexicographic order")


@dataclass(frozen=True)
class Dataset:
    """Exemplars (value rows) with their variable specs and label count.

    Values are stored column-aligned with ``specs``; labels are dense
    integer codes ``0..k-1``.  Instances are immutable and safe to share
    across threads.
    """

    specs: tuple[VariableSpec, ...]
    values: np.ndarray  # (n, m) float64
    labels: np.ndarray  # (n,)   int64
    k: int

    def __post_init__(self):
        object.__setattr__(self, "values", _freeze(np.asarray(self.values, dtype=np.float64)))
        object.__setattr__(self, "labels", _freeze(np.asarray(self.labels, dtype=np.int64)))
        if self.values.ndim != 2 or self.values.shape[1] != len(self.specs):
            raise GvlabError("bad-variable", "value matrix width must equal the number of specs")
        if self.labels.shape != (self.values.shape[0],):
            raise GvlabError("bad-variable", "labels must align with value rows")
        ids = [s.var_id for s in self.specs]
        if ids != list(range(len(self.specs))):
            raise GvlabError("bad-variable", "variable ids must be unique and dense from 0")
        if self.k < 1:
            raise GvlabError("bad-variable", "label count must be >= 1")
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= self.k):
            raise GvlabError("bad-variable", "label codes must lie in 0..k-1")
        if self.values.size and not np.isfinite(self.values).all():
            raise GvlabError("bad-variable", "variable values must be finite")
        for j, spec in enumerate(self.specs):
            if spec.kind == "discrete" and self.values.size:
                col = self.values[:, j]
                if np.any(col != np.floor(col)) or col.min() < 0 or col.max() >= spec.cardinality:
                    raise GvlabError("bad-variable",
                                     f"discrete variable {spec.var_id} has out-of-range codes")

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def m(self) -> int:
        return len(self.specs)


@dataclass(frozen=True)
class BinningPolicy:
    """Equal-width binning for continuous variables (bin count in 2..2**53, so
    that every bin code is an exact float)."""

    bins: int = 10

    def __post_init__(self):
        if not 2 <= self.bins <= 2**53:
            raise GvlabError("bad-binning", f"bin count must lie in 2..2**53, got {self.bins}")


@dataclass(frozen=True)
class ExemplarTable:
    """Empirical joint counts over a variable subset and the label, in coordinate form.

    ``cells`` is an ``(m, v + 1)`` int64 array of the observed
    ``(configuration..., label)`` cells in strictly increasing lexicographic
    order and ``counts`` the ``(m,)`` int64 array of their positive counts;
    both are read-only.  ``axis_sizes`` gives the number of codes per
    variable axis (cardinality for discrete variables, bin count for binned
    continuous ones).
    """

    variable_ids: tuple[int, ...]
    axis_sizes: tuple[int, ...]
    cells: np.ndarray
    counts: np.ndarray
    k: int

    def __post_init__(self):
        if len(self.axis_sizes) != len(self.variable_ids):
            raise GvlabError("bad-variable", "axis sizes must align with variable ids")
        if len(set(self.variable_ids)) != len(self.variable_ids):
            raise GvlabError("bad-variable", "table variable ids must be unique")
        sizes = (*self.axis_sizes, self.k)
        try:
            arrays = np.asarray(self.cells), np.asarray(self.counts)
        except ValueError as err:  # ragged rows
            raise GvlabError("bad-variable", f"cells and counts must be arrays: {err}") from None
        if not all(isinstance(size, numbers.Integral) for size in sizes) or any(
                a.dtype.kind not in "iu" or not np.can_cast(a.dtype, np.int64) for a in arrays):
            raise GvlabError("bad-variable", "axis sizes, k, cells and counts must be integers")
        cells, counts = (_freeze(a.astype(np.int64)) for a in arrays)
        if cells.ndim != 2 or cells.shape[1] != len(sizes) or counts.shape != cells.shape[:1]:
            raise GvlabError("bad-variable", f"need (m, {len(sizes)}) cells and (m,) counts, "
                                             f"got {cells.shape} and {counts.shape}")
        if len(cells):
            names = [f"variable {var_id}" for var_id in self.variable_ids] + ["labels"]
            for name, lo, hi, size in zip(names, cells.min(axis=0).tolist(),
                                          cells.max(axis=0).tolist(), sizes):
                if lo < 0 or hi >= size:
                    raise GvlabError("bad-variable", f"{name} outside 0..{size - 1}")
            if counts.min() < 1:
                raise GvlabError("bad-variable", "counts must be positive")
            # a float sum far from the limit rules out wraparound without a Python-int sum
            if counts.sum(dtype=np.float64) > 2.0**62 and sum(counts.tolist()) > _INT64_MAX:
                raise GvlabError("bad-variable", "counts must total at most 2**63 - 1")
            _check_row_order(cells, "cells")
        object.__setattr__(self, "cells", cells)
        object.__setattr__(self, "counts", counts)

    __eq__ = _equal_fields

    @cached_property
    def total(self) -> int:
        return int(self.counts.sum())


def _unchecked(cls, *values):
    """``cls(*values)`` without ``__post_init__``: for values derived from checked input."""
    obj = object.__new__(cls)
    obj.__dict__.update(zip(cls.__dataclass_fields__, values))
    return obj


def _range_codes(col: np.ndarray, lo: float, hi: float, bins: int, name: str) -> np.ndarray:
    """Equal-width bin codes ``0..bins - 1`` of ``col`` over ``[lo, hi]``, lo < hi.

    Out-of-range values land in the boundary bins; clamping before the
    division keeps far-out values from overflowing to inf.
    """
    width = (hi - lo) / bins
    if width < sys.float_info.min:
        raise GvlabError("bad-variable", f"variable {name!r}: range [{lo}, {hi}] "
                                         f"is too narrow for {bins} bins")
    codes = np.floor((np.clip(col, lo, hi) - lo) / width)
    return np.minimum(codes, bins - 1).astype(np.int64)


def _column_codes(dataset: Dataset, spec: VariableSpec, binning: BinningPolicy) -> np.ndarray:
    col = dataset.values[:, spec.var_id]
    if spec.kind == "discrete":
        return col.astype(np.int64)
    return _range_codes(col, spec.lo, spec.hi, binning.bins, spec.name)


def _cell_codes(columns: Sequence[np.ndarray], sizes: Sequence[int]) -> np.ndarray:
    """One int64 code per row: C-order mixed radix over ``sizes``.

    Codes sort in the lexicographic order of the rows.  Where the running
    radix would pass int64, the partial code and the next column are first
    re-ranked to dense codes; ranking keeps the order, so it never overflows.
    """
    code = np.zeros(len(columns[0]), dtype=np.int64)
    radix = 1
    for col, size in zip(columns, sizes):
        if radix * size > _INT64_MAX:
            code = np.unique(code, return_inverse=True)[1]
            col = np.unique(col, return_inverse=True)[1]
            radix, size = int(code.max(initial=-1)) + 1, int(col.max(initial=-1)) + 1
        code = code * size + col
        radix *= size
    return code


def build_table(dataset: Dataset, variable_ids: Sequence[int],
                binning: BinningPolicy = BinningPolicy()) -> ExemplarTable:
    """Aggregate a dataset into the joint count table over ``variable_ids``.

    An empty id list yields the label-marginal table with the single
    configuration ``()``.
    """
    if dataset.n == 0:
        raise GvlabError("empty-dataset", "cannot build a table from an empty dataset")
    known = {s.var_id: s for s in dataset.specs}
    specs = []
    for var_id in variable_ids:
        if var_id not in known:
            raise GvlabError("bad-variable", f"unknown variable id {var_id}")
        specs.append(known[var_id])
    if len(set(variable_ids)) != len(tuple(variable_ids)):
        raise GvlabError("bad-variable", "duplicate variable ids")

    columns = [_column_codes(dataset, s, binning) for s in specs] + [dataset.labels]
    sizes = tuple(s.cardinality if s.kind == "discrete" else binning.bins for s in specs)
    # One sort of flat cell codes; each cell is read back from the first row
    # of its code, so cells come out in the lexicographic order of the rows.
    _, first, counts = np.unique(_cell_codes(columns, sizes + (dataset.k,)),
                                 return_index=True, return_counts=True)
    cells = np.column_stack([col[first] for col in columns])
    return _unchecked(ExemplarTable, tuple(variable_ids), sizes, _freeze(cells), _freeze(counts),
                      dataset.k)


def marginalize(table: ExemplarTable, keep_ids: Sequence[int]) -> ExemplarTable:
    """Sum counts over every variable not in ``keep_ids``; total preserved."""
    keep = tuple(keep_ids)
    if keep == table.variable_ids:  # tables are immutable, so a copy buys nothing
        return table
    if len(set(keep)) != len(keep) or not set(keep) <= set(table.variable_ids):
        raise GvlabError("bad-variable", f"keep ids {keep} not a subset of {table.variable_ids}")
    positions = [table.variable_ids.index(var_id) for var_id in keep] + [-1]
    sizes = tuple(table.axis_sizes[p] for p in positions[:-1])
    codes = _cell_codes([table.cells[:, p] for p in positions], sizes + (table.k,))  # no copy
    _, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
    counts = np.zeros(len(first), dtype=np.int64)
    np.add.at(counts, inverse, table.counts)
    return _unchecked(ExemplarTable, keep, sizes, _freeze(table.cells[np.ix_(first, positions)]),
                      _freeze(counts), table.k)


def _run_heads(rows: np.ndarray) -> np.ndarray:
    """Whether each row differs from the one before it.  Cells sort by
    configuration first, so on ``cells[:, :r]`` each head starts the run of
    cells that share a configuration of the first ``r`` variables."""
    return np.concatenate(([True], (rows[1:] != rows[:-1]).any(axis=1)))[:len(rows)]


# ---------------------------------------------------------------------------
# CSV serialization: reports from row dataclasses.
# ---------------------------------------------------------------------------

def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def rows_csv(header: str, rows: Iterable) -> str:
    """CSV text of ``header`` and one line per dataclass row.

    A line holds the row's first ``len(header.split(","))`` fields: floats
    (numpy floats too) as ``repr(float(v))``, bools in lower case, ``None``
    as an empty cell and anything else with ``str``.  Cells are not quoted.
    """
    width = header.count(",") + 1
    lines = [",".join(_csv_cell(getattr(row, f.name)) for f in fields(row)[:width])
             for row in rows]
    return "\n".join([header, *lines]) + "\n"
