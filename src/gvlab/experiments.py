"""Experiment protocols behind the CLI and the verification sweeps.

Three experiment families:

- Toy influence / balance: generate synthetic Gaussian tasks, train the
  sigmoid classifier, compare conditional-entropy influence ranks against
  trained-weight ranks, and measure the effect of balancing single input
  dimensions.  One training per dataset serves both protocols: the
  original model trains beside its balanced retrainings in one lockstep
  loop (:func:`toy_run`).
- Grid augmentation sweep: an 8x8 synthetic-image task (the label is
  carried by a central pattern block, the periphery is noise) trained
  under random erasing whose parameter law varies by mixture weight and
  position law.
- Theory checks: self-contained verification sweeps of the closed forms
  against brute-force or independent numeric computation.

Every run is keyed by (base seed, dataset index, purpose tag) through
:func:`core.stream`, so results are identical whatever the worker count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import reduce
from itertools import combinations
from typing import Callable, Sequence

import numpy as np

from .augment import (POSITION_LAWS, AugmentDistribution, PositionLaw, erase_batch,
                      prediction_changing_ratio)
from .core import (BinningPolicy, ExemplarTable, _freeze, _run_heads, _unchecked, derive_seed,
                   stream)
from .errors import GvlabError
from .models import (LinearModel, TrainConfig, VectorDataset, _class_sum, train, train_lockstep,
                     zero_one_error)
from .synth import (ToyData, _conditional_entropies, _ranked, _vector_codes, balance_column,
                    generate_toy, random_toy_spec)
from . import theory


#: Bytes a run may set aside for records that grow with its item count and
#: live until it ends; a count past it, or below 1, is ``bad-config`` before any work.
RECORD_BUDGET = 2**29

#: Upper bounds of those records per item (``tracemalloc`` measured about
#: 5.6 KB, 1 KB and 1.75 KB): a toy dataset's work tuple, its ten influence
#: rows, the ten balance rows beside them and their CSV text; an augmentation
#: cell's; a random table's block and its rows of the stack in
#: :func:`check_optimal_outputs`, at the oracle's peak.
_DATASET_BYTES, _CELL_BYTES, _TABLE_BYTES = 8192, 2048, 2048

#: Rows per Dirichlet draw of the max-prob sweep; consecutive draws read the stream as one does.
_MAX_PROB_BLOCK = 4096


def _check_records(what: str, count: int, item_bytes: int) -> None:
    if count < 1:
        raise GvlabError("bad-config", f"{what} must be >= 1, got {count}")
    if count * item_bytes > RECORD_BUDGET:
        raise GvlabError("bad-config", f"{what} = {count} would set aside about "
                                       f"{count * item_bytes} bytes of records, past the "
                                       f"{RECORD_BUDGET}-byte budget; at most "
                                       f"{RECORD_BUDGET // item_bytes}")


def parallel_map(fn: Callable, items: Sequence, jobs: int = 1) -> list:
    """Order-preserving map, fanned out over at most ``min(jobs, len(items))``
    processes when both exceed 1."""
    if jobs <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    from concurrent.futures import ProcessPoolExecutor  # imported only by runs that fan out

    with ProcessPoolExecutor(max_workers=min(jobs, len(items))) as pool:
        return list(pool.map(fn, items))


def spearman(a: Sequence[float], b: Sequence[float]) -> float:
    """Spearman rank correlation with average ranks for ties."""
    x, y = _average_ranks(np.asarray(a, float)), _average_ranks(np.asarray(b, float))
    xc, yc = x - x.mean(), y - y.mean()
    denom = np.sqrt((xc * xc).sum() * (yc * yc).sum())
    return float((xc * yc).sum() / denom) if denom > 0 else 0.0


def _average_ranks(v: np.ndarray) -> np.ndarray:
    sorter = np.argsort(v, kind="stable")
    inv = np.empty(v.size, dtype=np.int64)
    inv[sorter] = np.arange(v.size)
    sv = v[sorter]
    new_group = np.r_[True, sv[1:] != sv[:-1]]
    starts = np.r_[np.nonzero(new_group)[0], v.size]
    average = 0.5 * (starts[:-1] + starts[1:] + 1)
    return average[new_group.cumsum()[inv] - 1]


# ---------------------------------------------------------------------------
# Toy influence / balance protocol
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ToyProtocol:
    """Sizes, training settings, and test-distribution knobs of the
    synthetic Gaussian experiments."""

    dims: int = 20
    task_correlated_dims: int = 10
    per_class: int = 5000
    learning_rate: float = 0.01
    momentum: float = 0.9
    batch_size: int = 256
    epochs: int = 100
    bins: int = 10
    test_mean_lo: float = -1.0
    test_mean_hi: float = 1.0
    coupling_var: float = 0.1
    residual_var: float = 1.0

    def __post_init__(self):
        if not 0 < self.task_correlated_dims < self.dims:  # the runs rank nuisance dimensions
            raise GvlabError("bad-config", "need 0 < task_correlated_dims < dims; got "
                                           f"{self.task_correlated_dims} of {self.dims}")

    def trainer(self, seed: int) -> TrainConfig:
        return TrainConfig(self.learning_rate, self.momentum, self.batch_size,
                           self.epochs, seed)

    @property
    def binning(self) -> BinningPolicy:
        return BinningPolicy(self.bins)

    @property
    def nuisance_dims(self) -> tuple[int, ...]:
        return tuple(range(self.task_correlated_dims, self.dims))


@dataclass(frozen=True)
class InfluenceRow:
    dataset: int
    dim: int
    h_cond: float
    abs_weight: float
    rank_est: int
    rank_true: int


@dataclass(frozen=True)
class InfluenceResult:
    rows: tuple[InfluenceRow, ...]
    spearman_per_dataset: tuple[float, ...]
    mean_spearman: float
    mean_mi_gap: float


@dataclass(frozen=True)
class BalanceRow:
    dataset: int
    dim: int
    w_before: float
    w_after: float
    acc_before: float
    acc_after: float
    rank_est: int
    rank_true: int


def _toy_dataset(base_seed: int, index: int, protocol: ToyProtocol) -> ToyData:
    spec = random_toy_spec(derive_seed(base_seed, 11, index), protocol.dims,
                           protocol.task_correlated_dims, per_class=protocol.per_class)
    spec = replace(spec, test_mean_range=(protocol.test_mean_lo, protocol.test_mean_hi),
                   coupling_var=protocol.coupling_var, residual_var=protocol.residual_var)
    return generate_toy(spec)


def _rank_positions(values: Sequence[float], ids: Sequence[int]) -> dict[int, int]:
    """1-based rank per id, largest value first; ties break by ascending id for determinism."""
    keyed = sorted(zip(values, ids), key=lambda p: (-p[0], p[1]))
    return {var_id: position + 1 for position, (_, var_id) in enumerate(keyed)}


def _toy_worker(args: tuple[int, int, ToyProtocol, bool]) -> tuple:
    """One dataset's influence rows, their Spearman and its MI gap, and with
    ``balance`` its balance rows, from one lockstep SGD loop: the original
    model, beside one retrained model per balanced nuisance dimension when
    ``balance`` is set.  Without ``balance`` the test half is never drawn."""
    base_seed, index, protocol, balance = args
    data = _toy_dataset(base_seed, index, protocol)
    trainer = protocol.trainer(derive_seed(base_seed, 12, index))
    dims = protocol.nuisance_dims
    substitutions = [(j, balance_column(data.train.n, derive_seed(base_seed, 13, index, j)))
                     for j in dims if balance]
    model, *retrained = (r.model for r in train_lockstep(data.train, trainer, substitutions))
    # Per nuisance dimension: H(label | dim), |trained weight|, and the
    # estimated (``influence_rank`` order) and true (descending |weight|) ranks.
    # The labels and the predictions are counted on one binning of the dims,
    # each over its own range.
    (h_cond, h_label), (h_pred_cond, h_pred) = _conditional_entropies(
        _vector_codes(data.train, dims, protocol.binning), data.train.y,
        model.predict(data.train.x))
    ranked = _ranked(dims, h_cond)
    weights = {j: abs(float(model.weights[0, j])) for j in dims}
    rank_est = {var_id: position for position, (var_id, _) in enumerate(ranked, 1)}
    rank_true = _rank_positions([weights[j] for j in dims], dims)
    rows = tuple(InfluenceRow(index, j, h, weights[j], rank_est[j], rank_true[j])
                 for j, h in zip(dims, h_cond))
    corr = spearman([rank_est[j] for j in dims], [rank_true[j] for j in dims])
    # Gap between the label-based and prediction-based information on each
    # nuisance dimension (the ranking uses the label end; the prediction end
    # is what the influence argument is actually about).
    gaps = [abs(h_label - h - (h_pred - hp)) for h, hp in zip(h_cond, h_pred_cond)]

    balanced = ()
    if balance:
        acc_before = 1.0 - zero_one_error(model, data.test)
        balanced = tuple(BalanceRow(index, j, weights[j], abs(float(after.weights[0, j])),
                                    acc_before, 1.0 - zero_one_error(after, data.test),
                                    rank_est[j], rank_true[j])
                         for j, after in zip(dims, retrained))
    return rows, corr, float(np.mean(gaps)), balanced


def toy_run(base_seed: int, n_datasets: int, protocol: ToyProtocol = ToyProtocol(),
            jobs: int = 1, balance: bool = False
            ) -> tuple[InfluenceResult, tuple[BalanceRow, ...]]:
    """Both toy protocols from one training per dataset: the influence result
    and, with ``balance``, the balance rows (none without it)."""
    _check_records("datasets", n_datasets, _DATASET_BYTES)
    results = parallel_map(_toy_worker,
                           [(base_seed, i, protocol, balance) for i in range(n_datasets)], jobs)
    correlations = tuple(result[1] for result in results)
    influence = InfluenceResult(tuple(row for result in results for row in result[0]),
                                correlations, float(np.mean(correlations)),
                                float(np.mean([result[2] for result in results])))
    return influence, tuple(row for result in results for row in result[3])


def toy_influence_run(base_seed: int, n_datasets: int, protocol: ToyProtocol = ToyProtocol(),
                      jobs: int = 1) -> InfluenceResult:
    return toy_run(base_seed, n_datasets, protocol, jobs)[0]


def toy_balance_run(base_seed: int, n_datasets: int, protocol: ToyProtocol = ToyProtocol(),
                    jobs: int = 1) -> tuple[BalanceRow, ...]:
    return toy_run(base_seed, n_datasets, protocol, jobs, balance=True)[1]


# ---------------------------------------------------------------------------
# Synthetic grid task and augmentation sweep
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GridProtocol:
    """Desk-scale image task: central pattern block on a dark periphery.

    The periphery is dim (uniform noise below ``background``), so erased
    rectangles, filled with Uniform(0,1) noise, are visible wherever they
    land, the way erased patches differ from image content in real photos.
    Against a mean-matched periphery a linear model could not read the
    erasing variables at all and label-dependent parameter laws would leave
    no footprint.
    """

    classes: int = 10
    side: int = 8
    pattern_side: int = 4
    train_per_class: int = 60
    test_per_class: int = 50
    noise_sd: float = 0.3
    background: float = 0.1
    learning_rate: float = 0.05
    momentum: float = 0.9
    batch_size: int = 256
    epochs: int = 60
    repeats: int = 100

    def trainer(self, seed: int) -> TrainConfig:
        return TrainConfig(self.learning_rate, self.momentum, self.batch_size,
                           self.epochs, seed)


@dataclass(frozen=True)
class GridTask:
    """Both halves of the grid task: read-only ``(n, side, side, 1)`` float64
    grid stacks, and the same grids flattened to rows with their labels."""

    train_grids: np.ndarray
    train: VectorDataset
    test_grids: np.ndarray
    test: VectorDataset


def make_grid_task(seed: int, protocol: GridProtocol = GridProtocol()) -> GridTask:
    """Synthesize the grid task: per-class prototype patterns plus noise.

    The central ``pattern_side`` square is the prototype of the class with
    Gaussian perturbation (clipped to [0,1]); every other pixel is dim
    Uniform(0, background) noise, independent of the label.  Each sample
    draws its background and then its block perturbation, class by class.
    """
    rng = stream(seed, 31)
    side, ps = protocol.side, protocol.pattern_side
    lo = (side - ps) // 2
    prototypes = rng.random((protocol.classes, ps, ps))

    def batch(per_class: int) -> tuple[np.ndarray, VectorDataset]:
        labels = np.repeat(np.arange(protocol.classes), per_class)
        grids = np.empty((len(labels), side, side, 1))
        blocks = np.empty((len(labels), ps, ps))
        for grid, block in zip(grids, blocks):
            rng.random(out=grid)
            block[:] = rng.normal(0.0, protocol.noise_sd, (ps, ps))
        grids *= protocol.background
        grids[:, lo:lo + ps, lo:lo + ps, 0] = np.clip(prototypes[labels] + blocks, 0.0, 1.0)
        grids.setflags(write=False)
        return grids, VectorDataset(grids.reshape(len(labels), -1), labels, protocol.classes)

    train_grids, train_data = batch(protocol.train_per_class)
    test_grids, test_data = batch(protocol.test_per_class)
    return GridTask(train_grids, train_data, test_grids, test_data)


def train_with_erasing(task: GridTask, dist: AugmentDistribution, trainer: TrainConfig,
                       erase_seed: int) -> LinearModel:
    """Train on the grid task after erasing every training input once.

    One erased copy per run realizes the augmented training distribution;
    damage from a destroyed pattern block then persists for all epochs,
    the same way an unlucky augmented dataset persists for a full run.
    """
    erased = erase_batch(task.train_grids, task.train.y, dist, stream(erase_seed, 0))
    return train(VectorDataset(erased, task.train.y, task.train.k), trainer).model


@dataclass(frozen=True)
class AugmentRow:
    alpha: float
    law: PositionLaw
    changing_ratio: float
    test_error: float
    seed: int


def _augment_worker(args: tuple[int, int, float, PositionLaw, GridProtocol,
                                AugmentDistribution]) -> AugmentRow:
    base_seed, seed_index, alpha, law, protocol, base_dist = args
    task = make_grid_task(derive_seed(base_seed, 21, seed_index), protocol)
    dist = replace(base_dist, alpha=alpha, position_law=law)
    cell = (seed_index, int(round(alpha * 1000)), POSITION_LAWS.index(law))
    model = train_with_erasing(task, dist, protocol.trainer(derive_seed(base_seed, 22, *cell)),
                               derive_seed(base_seed, 23, *cell))
    # All cells are probed under the same label-independent, uniform-position
    # erasing law, so ratios compare model robustness rather than how gentle
    # each training law happens to be on its own labels.
    probe = AugmentDistribution(alpha=0.0, position_law="uniform",
                                area_range=dist.area_range, aspect_range=dist.aspect_range)
    ratio = prediction_changing_ratio(
        model, task.test_grids, probe, task.test.y, protocol.repeats,
        stream(derive_seed(base_seed, 24, *cell)))
    return AugmentRow(alpha, law, ratio, zero_one_error(model, task.test), seed_index)


def augment_sweep_run(base_seed: int, n_seeds: int, alphas: Sequence[float],
                      laws: Sequence[PositionLaw], protocol: GridProtocol = GridProtocol(),
                      jobs: int = 1,
                      base_dist: AugmentDistribution = AugmentDistribution()
                      ) -> tuple[AugmentRow, ...]:
    """Train and probe one model per (seed, alpha, law) cell.

    ``base_dist`` carries the non-swept law settings (area/aspect ranges,
    per-label intervals); each cell overrides its alpha and position law.
    """
    _check_records("datasets x alphas x laws", n_seeds * len(alphas) * len(laws), _CELL_BYTES)
    cells = [(base_seed, s, float(a), law, protocol, base_dist)
             for s in range(n_seeds) for a in alphas for law in laws]
    return tuple(parallel_map(_augment_worker, cells, jobs))


# ---------------------------------------------------------------------------
# Random tables for the verification sweeps
# ---------------------------------------------------------------------------

_TABLE_SHAPES: tuple[tuple[int, ...], ...] = (
    (2,), (3,), (4,), (5,), (6,), (7,), (8,), (2, 2), (2, 3), (2, 4), (2, 2, 2))
_TABLE_NDIMS = np.array([len(shape) for shape in _TABLE_SHAPES])
#: Per table shape, the configurations of its variables after the first p, p = 0..3.
_TABLE_RESTS = np.array([[math.prod(shape[p:]) for p in range(4)] for shape in _TABLE_SHAPES])


def _random_tables(rng: np.random.Generator, tables: int
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``tables`` random tables as one :func:`_boxed` ``(tables, 8, 4)`` count
    array over (table, flat configuration, label), and per table its index
    into :data:`_TABLE_SHAPES` (uniform), its ``k`` (uniform on 2..4) and a
    prefix length of its variables (uniform on 1..ndim); cells are uniform on 0..16."""
    shapes = rng.integers(len(_TABLE_SHAPES), size=tables)
    ks = rng.integers(2, 5, size=tables)
    prefixes = rng.integers(1, _TABLE_NDIMS[shapes] + 1)
    counts = _boxed(rng.integers(0, 17, size=(tables, 8, 4)), _TABLE_RESTS[shapes, 0], ks)
    return counts, shapes, ks, prefixes


def _invariance_tables(rng: np.random.Generator, tables: int
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``tables`` product and ``tables`` label-copy tables as two :func:`_boxed`
    ``(tables, 4, 4, 4)`` count arrays over (table, g_t, g_c, label), and their
    sizes, each on 2..4: card_t, card_c, k of the products, then card_t, card_c
    of the copies.  A product cell is u[g_t] * v[g_c, label], u on 1..5 and v on
    0..6; a label-copy cell is on 1..8 where the label equals g_t, else 0."""
    sizes = rng.integers(2, 5, size=(5, tables))
    u = rng.integers(1, 6, size=(tables, 4, 1, 1))
    v = rng.integers(0, 7, size=(tables, 1, 4, 4))
    copies = rng.integers(1, 9, size=(tables, 4, 4, 1)) * np.eye(4, dtype=np.int64)[:, None]
    return _boxed(u * v, *sizes[:3]), _boxed(copies, *sizes[3:]), sizes


def _boxed(stack: np.ndarray, *sizes: np.ndarray) -> np.ndarray:
    """C-contiguous ``stack`` of dense blocks along axis 0, in place: block ``t``
    keeps its cells below ``sizes[i][t]`` on axis ``i + 1`` and loses the rest,
    and a block left all zero gets one count at its first cell (a table needs one)."""
    for axis, size in enumerate(sizes, 1):
        codes = np.arange(stack.shape[axis]).reshape((-1,) + (1,) * (stack.ndim - axis - 1))
        stack *= codes < size.reshape((-1,) + (1,) * (stack.ndim - 1))
    flat = stack.reshape(len(stack), -1)
    flat[:, 0] += ~flat.any(axis=1)
    return stack


def _cell_table(dense: np.ndarray) -> ExemplarTable:
    """Table over variables ``0..m-1`` from a dense ``config + (label,)`` count
    array with a nonzero cell; its nonzero cells, in C order, become the table's."""
    index = dense.nonzero()
    return _unchecked(ExemplarTable, tuple(range(dense.ndim - 1)), dense.shape[:-1],
                      _freeze(np.column_stack(index)), _freeze(dense[index]), dense.shape[-1])


def _argmax_errors(table: ExemplarTable, determining_ids: Sequence[int]
                   ) -> tuple[np.ndarray, np.ndarray]:
    """The argmax-of-conditional predictor's wrong and total counts (int64),
    one per value of the leading determining variable (the index of tables
    stacked as in :func:`theory.estimated_training_error`; one pair when
    there is no determining variable), from :func:`theory._label_counts`,
    whose float counts are exact integers below 2**53."""
    ids = tuple(determining_ids)
    configs, counts = theory._label_counts(table, ids)
    groups = _run_heads(configs[:, :min(len(ids), 1)]).nonzero()[0]
    columns = counts.T.astype(np.int64)  # folds over the columns: exact on integers
    hits = np.add.reduceat(reduce(np.maximum, columns), groups)
    totals = np.add.reduceat(reduce(np.add, columns), groups)
    return totals - hits, totals


# ---------------------------------------------------------------------------
# Addition-rule brute force
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AdditionRuleSweep:
    cases: int
    violations: int
    worst_violation: float
    worst_case: str


#: Every split of (g0, g1, g2) into a task-correlated block and a non-empty
#: task-uncorrelated block, in the sweep's order.
ADDITION_SPLITS: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...] = tuple(
    (tuple(i for i in range(3) if not mask >> i & 1), tuple(i for i in range(3) if mask >> i & 1))
    for mask in range(1, 8))


def truth_table_counts(laws: np.ndarray) -> np.ndarray:
    """Count array of every deterministic binary predictor over 3 binary variables.

    ``laws`` holds one row of 8 configuration counts per joint law, in
    C order of (g0, g1, g2).  The result has shape ``(256, laws, 2, 2, 2, 2)``
    over (truth table, law, g0, g1, g2, prediction): truth table ``b``
    predicts bit ``i`` of ``b`` on configuration ``i``.
    """
    laws = np.asarray(laws, dtype=np.int64)
    predictions = (np.arange(256)[:, None] >> np.arange(8)) & 1
    hits = predictions[:, None, :, None] == np.arange(2)
    counts = np.where(hits, laws[None, :, :, None], 0)
    return counts.reshape(256, len(laws), 2, 2, 2, 2)


def block_counts(counts: np.ndarray) -> dict[tuple[int, ...], np.ndarray]:
    """Per ascending tuple of variable indices, the empty block included, the
    ``(256, laws, configurations, 2)`` label counts of that block in a
    :func:`truth_table_counts` array, configurations in C order.

    Each block is its parent block, with the block's lowest missing variable
    added, summed over that variable: the two halves of one size-2 axis
    added, exact on integers."""
    dense = {(0, 1, 2): counts}
    for size in (2, 1, 0):
        for block in combinations(range(3), size):
            var = min(set(range(3)) - set(block))
            parent = tuple(sorted(block + (var,)))
            halves = np.moveaxis(dense[parent], 2 + parent.index(var), 0)
            dense[block] = halves[0] + halves[1]
    return {block: dense[block].reshape(counts.shape[:2] + (2 ** len(block), 2))
            for size in range(4) for block in combinations(range(3), size)}


def addition_rule_margins(laws: np.ndarray) -> np.ndarray:
    """Influence sum minus prediction entropy given the task block, per case:
    ``(256, laws, 7)`` over (truth table, law, split in :data:`ADDITION_SPLITS`),
    each entry bit for bit what :func:`theory.addition_rule` gives on that
    case's table.  Each block's entropies are computed once for all splits."""
    entropies = {block: theory._block_entropies(joint)
                 for block, joint in block_counts(truth_table_counts(laws)).items()}
    return np.stack([np.subtract(*theory._addition_sides(entropies, task, nuisance))
                     for task, nuisance in ADDITION_SPLITS], axis=-1)


def addition_rule_sweep(seed: int, laws_per_case: int = 4) -> AdditionRuleSweep:
    """Exhaustive check of the influence addition rule on 3 binary variables.

    Every deterministic binary predictor over (g0, g1, g2), all 256 truth
    tables, is paired with every split of the three variables into a
    task-correlated and a non-empty task-uncorrelated block, under several
    seeded random joint laws with cell counts in 1..16.  A case is a
    violation when the per-variable information sum falls short of the
    prediction entropy given the task block by more than 1e-10.  The worst
    case reported is the first in (truth table, law, split) order.
    """
    rng = stream(seed, 41)
    laws = np.array([rng.integers(1, 17, size=8)
                     for _ in range(laws_per_case)]).reshape(-1, 8)  # (0, 8) when empty
    margins = addition_rule_margins(laws)
    violations = int((margins < -1e-10).sum())
    if not violations:
        return AdditionRuleSweep(margins.size, 0, 0.0, "")
    bits, law, split = np.unravel_index(np.argmin(margins), margins.shape)
    task, nuisance = ADDITION_SPLITS[split]
    worst_case = (f"truth_table={bits:08b} task={task} "
                  f"nuisance={nuisance} counts={laws[law].tolist()}")
    return AdditionRuleSweep(margins.size, violations, float(-margins.min()), worst_case)


# ---------------------------------------------------------------------------
# Theory verification sweeps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    max_deviation: float
    detail: str


def check_max_prob_bound(rng: np.random.Generator, corrupt: bool = False) -> CheckResult:
    draws = 100_000
    per_k = draws // 9
    worst = 0.0
    for k in range(2, 11):
        n = per_k if k < 10 else draws - 8 * per_k
        for start in range(0, n, _MAX_PROB_BLOCK):
            p = rng.dirichlet(np.ones(k), size=min(_MAX_PROB_BLOCK, n - start))
            worst = max(worst, _max_prob_gap(p, corrupt))
    worst = max(worst, abs(theory.max_prob_lower_bound(np.log(2.0)) - 0.5))
    return CheckResult("max-prob-bound", worst <= 1e-12, worst,
                       f"sweep of {draws} random label distributions, K in 2..10")


def _max_prob_gap(p: np.ndarray, corrupt: bool) -> float:
    """Largest excess of the entropy bound over max_y p(y) across the rows of ``p``.

    Both row reductions are column folds, without numpy's per-row overhead
    on short rows: the maxima are exact in any order, and the entropy sums
    run through :func:`models._class_sum` in numpy's row-sum order, so every
    bit is that of ``(p log p).sum(axis=1)``.  The entropy terms overwrite
    ``p`` once its maxima are taken, so the fold's temporaries sit beside
    one block, not two, and everything is freed before the next sweep step
    draws."""
    top = reduce(np.maximum, p.T)
    logs = np.maximum(p, 1e-300)
    np.log(logs, out=logs)
    # A zero p, where 0 log 0 = 0, gives 0 * log(1e-300) = -0.0, which adds
    # nothing to a row sum; Dirichlet rows hold no NaN, inf or negative p.
    p *= logs
    del logs
    h = -_class_sum(p.T)[0]
    bound = np.maximum(0.0, 1.0 - h / (2.0 * np.log(2.0)))
    if corrupt:
        bound = bound + 0.01
    return float((bound - top).max())


def check_optimal_outputs(rng: np.random.Generator, tables: int,
                          corrupt: bool = False) -> CheckResult:
    """One closed-form call on the stack of all tables over (table, flat configuration) against
    one oracle run on its rows, padded to the widest ``k`` by labels of zero mass and zero cost."""
    counts, _, ks, _ = _random_tables(rng, tables)
    closed = theory.optimal_outputs(_cell_table(counts), (0, 1)).probs[:, :ks.max()]
    numeric = theory.pgd_conditionals(closed)
    if corrupt:
        numeric = numeric + 0.002
    worst = float((0.5 * _class_sum(np.abs(numeric - closed).T)).max())
    return CheckResult("optimal-outputs-closed-form", worst <= 1e-4, worst,
                       f"{tables} random tables vs mirror-descent minimizer")


def _prefix_table(rng: np.random.Generator, tables: int) -> ExemplarTable:
    """Random tables, each with its determining ids a random prefix of its
    variables, as one table over (table, prefix code, rest code): in C order
    a prefix configuration is a run of ``rest`` flat ones, so flat
    configuration ``c`` has codes ``c // rest`` and ``c % rest``."""
    counts, shapes, _, prefixes = _random_tables(rng, tables)
    table, config, label = counts.nonzero()
    codes = np.divmod(config, _TABLE_RESTS[shapes, prefixes][table])
    return _unchecked(ExemplarTable, (0, 1, 2), (tables, 8, 8),
                      _freeze(np.column_stack([table, *codes, label])),
                      _freeze(counts[table, config, label]), 4)


def check_training_error(rng: np.random.Generator, tables: int) -> CheckResult:
    """The training-error equality on each table of a :func:`_prefix_table` stack,
    built in its own call so that its draw is freed before the closed forms run."""
    stack = _prefix_table(rng, tables)
    estimates = theory.estimated_training_error(theory.optimal_outputs(stack, (0, 1)), stack,
                                                grouped=True)
    wrong, totals = _argmax_errors(stack, (0, 1))
    # float64 division of the integer counts rounds as float(Fraction(wrong, total)) does
    worst = max(abs(e - x) for e, x in zip(estimates.tolist(), (wrong / totals).tolist()))
    return CheckResult("training-error-equality", worst <= 1e-12, worst,
                       f"{tables} random tables, argmax predictor vs estimate")


def check_strict_invariance(rng: np.random.Generator, tables: int) -> CheckResult:
    """One stack of product tables, then one of dependent tables, each table
    over (table index, g_t, g_c) with g_t the candidate invariant variable."""
    products, dependent = (
        theory.check_strict_invariance(_cell_table(stack), (0, 1, 2), (1,), grouped=True)
        for stack in _invariance_tables(rng, tables)[:2])
    worst = max(r.max_deviation for r in products)
    missed = sum(not r.is_invariant for r in products) + sum(r.is_invariant for r in dependent)
    passed = worst <= 1e-12 and missed == 0
    return CheckResult("strict-invariance", passed, worst,
                       f"{tables} product tables and {tables} dependent tables; "
                       f"misclassified: {missed}")


def check_addition_rule(seed: int) -> CheckResult:
    sweep = addition_rule_sweep(seed)
    detail = (f"{sweep.violations}/{sweep.cases} violations"
              + (f"; first worst case: {sweep.worst_case}" if sweep.violations else ""))
    return CheckResult("addition-rule-inequality", sweep.violations == 0,
                       sweep.worst_violation, detail)


def check_gap_bound() -> CheckResult:
    frozen = {
        (2, 2, 1000, 0.05): 0.10740876124221685,
        (1, 2, 100, 0.1): 0.2716203031481239,
        (4, 3, 5000, 0.01): 0.07189697171010037,
        (5, 4, 20000, 0.2): math.sqrt(2 * (20 * math.log(2.0) + math.log(5.0)) / 20000),
    }
    worst = max(abs(theory.gap_bound(*args) - value) for args, value in frozen.items())
    ts = ks = (1, 2, 3, 4, 5)
    ns = (100, 200, 400, 800, 1600)
    deltas = (0.01, 0.05, 0.1, 0.2, 0.4)
    grid = np.array([[[[theory.gap_bound(t, k, n, d) for d in deltas] for n in ns]
                      for k in ks] for t in ts])
    monotone = (np.all(np.diff(grid, axis=0) > 0) and np.all(np.diff(grid, axis=1) > 0)
                and np.all(np.diff(grid, axis=2) < 0) and np.all(np.diff(grid, axis=3) < 0))
    return CheckResult("gap-bound-grid", worst <= 1e-6 and bool(monotone), worst,
                       "closed-form spot value and monotonicity on a 5^4 grid")


def check_excess_risk() -> CheckResult:
    worst = 0.0
    for t, k, n, d in ((1, 2, 100, 0.1), (2, 2, 1000, 0.05), (4, 3, 5000, 0.01)):
        gap = theory.gap_bound(t, k, n, d)
        worst = max(worst, abs(theory.excess_risk_bound(t, k, n, d, 0.0) - 2.0 * gap))
        worst = max(worst, abs(theory.excess_risk_bound(t, k, n, d, np.log(2.0))
                               - (2.0 * gap + 1.0)))
    return CheckResult("excess-risk-composition", worst <= 1e-12, worst,
                       "zero-dependence and ln2-dependence composition identities")


#: The checks whose closed form ``theory_check_run(corrupt=...)`` can perturb.
CORRUPTIBLE_CHECKS = ("max-prob-bound", "optimal-outputs-closed-form")


def theory_check_run(seed: int = 0, corrupt: str | None = None,
                     tables: int = 200) -> tuple[CheckResult, ...]:
    """Run every closed-form verification sweep, each on its own stream, so
    ``tables`` moves only the optimal-outputs row; ``corrupt`` is a test hook
    that perturbs one named check's closed form to prove the harness fails
    loudly."""
    if corrupt is not None and corrupt not in CORRUPTIBLE_CHECKS:
        raise GvlabError("bad-variable", f"check {corrupt!r} has no corrupt hook; "
                                         f"hooked: {list(CORRUPTIBLE_CHECKS)}")
    _check_records("tables", tables, _TABLE_BYTES)
    return (
        check_max_prob_bound(stream(seed, 51), corrupt == "max-prob-bound"),
        check_optimal_outputs(stream(seed, 51, 1), tables,
                              corrupt == "optimal-outputs-closed-form"),
        check_training_error(stream(seed, 51, 2), 500),
        check_strict_invariance(stream(seed, 51, 3), 100),
        check_addition_rule(seed),
        check_gap_bound(),
        check_excess_risk(),
    )
