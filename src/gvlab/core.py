"""Domain types for generative-variable data and empirical count tables.

A classification task is described by a set of *generative variables*
(discrete or continuous latent factors), and every observation is an
*exemplar*: one value per variable plus an integer label.  All
information-theoretic machinery in this package operates on
:class:`ExemplarTable`, the empirical joint count table over a chosen
subset of variables and the label.

Continuous variables are discretized by equal-width binning over their
declared range before counting.  Values outside the declared range are
clamped into the boundary bins so that estimators stay total-preserving
even when evaluation data exceeds the range observed at fit time.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Literal, Mapping, Sequence

import numpy as np

from .errors import GvlabError

Correlation = Literal["task_correlated", "task_uncorrelated", "unknown"]

#: Table key: (variable-configuration tuple, label code).
TableKey = tuple[tuple[int, ...], int]

_INT64_MAX = int(np.iinfo(np.int64).max)


def derive_seed(base: int, *path: int) -> int:
    """Stable 64-bit seed for a (base seed, purpose path) pair."""
    return int(np.random.SeedSequence((base,) + path).generate_state(1)[0])


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


@dataclass(frozen=True)
class Exemplar:
    """One observation: generative-variable values plus a label code."""

    g: tuple[float, ...]
    y: int


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Dataset:
    """Exemplar collection with its variable specs and label count.

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

    def exemplar(self, i: int) -> Exemplar:
        return Exemplar(tuple(self.values[i]), int(self.labels[i]))

    @staticmethod
    def from_exemplars(specs: Sequence[VariableSpec], exemplars: Iterable[Exemplar],
                       k: int) -> "Dataset":
        rows = list(exemplars)
        values = np.array([e.g for e in rows], dtype=np.float64).reshape(len(rows), len(specs))
        labels = np.array([e.y for e in rows], dtype=np.int64)
        return Dataset(tuple(specs), values, labels, k)


@dataclass(frozen=True)
class BinningPolicy:
    """Equal-width binning for continuous variables (bin count >= 2)."""

    bins: int = 10

    def __post_init__(self):
        if self.bins < 2:
            raise GvlabError("bad-binning", f"bin count must be >= 2, got {self.bins}")


@dataclass(frozen=True)
class ExemplarTable:
    """Empirical joint counts over a variable subset and the label.

    ``counts`` maps ``(configuration tuple, label)`` to a positive count;
    configurations never observed are simply absent.  ``axis_sizes`` gives
    the number of distinct cells per variable axis (cardinality for
    discrete variables, bin count for binned continuous ones).
    """

    variable_ids: tuple[int, ...]
    axis_sizes: tuple[int, ...]
    counts: Mapping[TableKey, int]
    total: int
    k: int

    def __post_init__(self):
        object.__setattr__(self, "counts", MappingProxyType(dict(self.counts)))
        if len(self.axis_sizes) != len(self.variable_ids):
            raise GvlabError("bad-variable", "axis sizes must align with variable ids")
        if len(set(self.variable_ids)) != len(self.variable_ids):
            raise GvlabError("bad-variable", "table variable ids must be unique")
        running = 0
        for (config, label), count in self.counts.items():
            if count < 0:
                raise GvlabError("bad-variable", "counts must be non-negative")
            if len(config) != len(self.variable_ids):
                raise GvlabError("bad-variable", "configuration arity mismatch")
            if any(not 0 <= v < size for v, size in zip(config, self.axis_sizes)):
                raise GvlabError("bad-variable", f"configuration {config} outside axis sizes")
            if not 0 <= label < self.k:
                raise GvlabError("bad-variable", f"label {label} outside 0..{self.k - 1}")
            running += count
        if running != self.total:
            raise GvlabError("bad-variable",
                             f"total {self.total} does not match summed counts {running}")


def _column_codes(dataset: Dataset, spec: VariableSpec, binning: BinningPolicy) -> np.ndarray:
    col = dataset.values[:, spec.var_id]
    if spec.kind == "discrete":
        return col.astype(np.int64)
    # Out-of-range values land in the boundary bins; clamping before the
    # division keeps far-out values from overflowing to inf.
    width = (spec.hi - spec.lo) / binning.bins
    codes = np.floor((np.clip(col, spec.lo, spec.hi) - spec.lo) / width)
    return np.minimum(codes, binning.bins - 1).astype(np.int64)


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
            radix, size = int(code.max()) + 1, int(col.max()) + 1
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
    # One sort of flat cell codes; each key is read back from the first row
    # of its code.  Keys come out in the lexicographic order of the rows.
    _, first, counts = np.unique(_cell_codes(columns, sizes + (dataset.k,)),
                                 return_index=True, return_counts=True)
    cells = zip(*(col[first].tolist() for col in columns))
    table_counts = {(cell[:-1], cell[-1]): count for cell, count in zip(cells, counts.tolist())}
    return ExemplarTable(tuple(variable_ids), sizes, table_counts, dataset.n, dataset.k)


def marginalize(table: ExemplarTable, keep_ids: Sequence[int]) -> ExemplarTable:
    """Sum counts over every variable not in ``keep_ids``; total preserved."""
    keep = tuple(keep_ids)
    if len(set(keep)) != len(keep) or not set(keep) <= set(table.variable_ids):
        raise GvlabError("bad-variable", f"keep ids {keep} not a subset of {table.variable_ids}")
    positions = [table.variable_ids.index(var_id) for var_id in keep]
    merged: dict[TableKey, int] = {}
    for (config, label), count in table.counts.items():
        key = (tuple(config[p] for p in positions), label)
        merged[key] = merged.get(key, 0) + count
    sizes = tuple(table.axis_sizes[p] for p in positions)
    return ExemplarTable(keep, sizes, merged, table.total, table.k)


# ---------------------------------------------------------------------------
# CSV serialization: header g0,...,g{m-1},y; continuous values as decimal text.
# ---------------------------------------------------------------------------

def write_dataset_csv(dataset: Dataset, path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([f"g{j}" for j in range(dataset.m)] + ["y"])
        for i in range(dataset.n):
            row = []
            for spec, value in zip(dataset.specs, dataset.values[i]):
                row.append(str(int(value)) if spec.kind == "discrete" else repr(float(value)))
            row.append(str(int(dataset.labels[i])))
            writer.writerow(row)


def read_dataset_csv(path: str, specs: Sequence[VariableSpec], k: int) -> Dataset:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        expected = [f"g{j}" for j in range(len(specs))] + ["y"]
        if header != expected:
            raise GvlabError("bad-variable", f"unexpected CSV header {header}")
        values, labels = [], []
        for row in reader:
            if len(row) != len(expected):
                raise GvlabError("bad-csv", f"{path}:{reader.line_num}: expected "
                                            f"{len(expected)} fields, got {len(row)}")
            try:
                values.append([float(v) for v in row[:-1]])
                labels.append(int(row[-1]))
            except ValueError as err:
                raise GvlabError("bad-csv", f"{path}:{reader.line_num}: {err}") from None
            if not 0 <= labels[-1] < k:
                raise GvlabError("bad-csv", f"{path}:{reader.line_num}: label {labels[-1]} "
                                            f"outside 0..{k - 1}")
    data = np.array(values, dtype=np.float64).reshape(len(labels), len(specs))
    return Dataset(tuple(specs), data, np.array(labels, dtype=np.int64), k)
