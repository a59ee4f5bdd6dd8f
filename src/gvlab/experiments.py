"""Experiment protocols behind the CLI and the verification sweeps.

Three experiment families:

- Toy influence / balance: generate synthetic Gaussian tasks, train the
  sigmoid classifier, compare conditional-entropy influence ranks against
  trained-weight ranks, and measure the effect of balancing single input
  dimensions.
- Grid augmentation sweep: an 8x8 synthetic-image task (the label is
  carried by a central pattern block, the periphery is noise) trained
  under random erasing whose parameter law varies by mixture weight and
  position law.
- Theory checks: self-contained verification sweeps of the closed forms
  against brute-force or independent numeric computation.

Every run is keyed by (base seed, dataset index, purpose tag) through
``SeedSequence``, so results are identical whatever the worker count.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import combinations
from typing import Callable, Sequence

import numpy as np

from .augment import AugmentDistribution, GridTensor, PositionLaw, erase_batch, \
    prediction_changing_ratio
from .core import BinningPolicy, Dataset, ExemplarTable, build_table, derive_seed, marginalize
from .errors import GvlabError
from .info import conditional_entropy, entropy
from .models import LinearModel, TrainConfig, VectorDataset, risk, train, train_lockstep
from .synth import ToyData, as_variable_dataset, balance_column, generate_toy, random_toy_spec
from . import theory


def parallel_map(fn: Callable, items: Sequence, jobs: int = 1) -> list:
    """Order-preserving map, fanned out over processes when jobs > 1."""
    if jobs <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
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


def _rank_positions(values: Sequence[float], ids: Sequence[int], ascending: bool) -> dict[int, int]:
    """1-based rank per id; ties break by ascending id for determinism."""
    keyed = sorted(zip(values, ids), key=lambda p: (p[0] if ascending else -p[0], p[1]))
    return {var_id: position + 1 for position, (_, var_id) in enumerate(keyed)}


def _nuisance_ranks(view: Dataset, model: LinearModel, protocol: ToyProtocol
                    ) -> tuple[dict[int, ExemplarTable], dict[int, float], dict[int, float],
                               dict[int, int], dict[int, int]]:
    """Per nuisance dimension: its (dim, label) table, H(label | dim),
    |trained weight|, and the estimated (ascending entropy) and true
    (descending |weight|) ranks."""
    dims = protocol.nuisance_dims
    tables = {j: build_table(view, [j], protocol.binning) for j in dims}
    h_by_id = {j: conditional_entropy(tables[j], "labels", [j]) for j in dims}
    weights = {j: abs(float(model.weights[0, j])) for j in dims}
    rank_est = _rank_positions([h_by_id[j] for j in dims], dims, ascending=True)
    rank_true = _rank_positions([weights[j] for j in dims], dims, ascending=False)
    return tables, h_by_id, weights, rank_est, rank_true


def _influence_worker(args: tuple[int, int, ToyProtocol]) -> tuple:
    base_seed, index, protocol = args
    data = _toy_dataset(base_seed, index, protocol)
    trainer = protocol.trainer(derive_seed(base_seed, 12, index))
    model = train(data.train, trainer).model
    dims = protocol.nuisance_dims
    view = as_variable_dataset(data.train, protocol.task_correlated_dims)
    label_tables, h_by_id, weights, rank_est, rank_true = _nuisance_ranks(view, model, protocol)
    rows = tuple(InfluenceRow(index, j, h_by_id[j], weights[j], rank_est[j], rank_true[j])
                 for j in dims)
    corr = spearman([rank_est[j] for j in dims], [rank_true[j] for j in dims])

    # Gap between the label-based and prediction-based information on each
    # nuisance dimension (the ranking uses the label end; the prediction end
    # is what the influence argument is actually about).
    predictions = model.forward(data.train.x).argmax(axis=1).astype(np.int64)
    pred_view = as_variable_dataset(VectorDataset(data.train.x, predictions, data.train.k),
                                    protocol.task_correlated_dims)
    gaps = []
    for j in dims:
        pred_table = build_table(pred_view, [j], protocol.binning)
        mi_label = entropy(label_tables[j]) - h_by_id[j]
        mi_pred = entropy(pred_table) - conditional_entropy(pred_table, "labels", [j])
        gaps.append(abs(mi_label - mi_pred))
    return rows, corr, float(np.mean(gaps))


def toy_influence_run(base_seed: int, n_datasets: int, protocol: ToyProtocol = ToyProtocol(),
                      jobs: int = 1) -> InfluenceResult:
    results = parallel_map(_influence_worker,
                           [(base_seed, i, protocol) for i in range(n_datasets)], jobs)
    rows = tuple(row for result in results for row in result[0])
    correlations = tuple(result[1] for result in results)
    return InfluenceResult(rows, correlations, float(np.mean(correlations)),
                           float(np.mean([result[2] for result in results])))


def _balance_worker(args: tuple[int, int, ToyProtocol]) -> tuple[BalanceRow, ...]:
    """Train the original model and one retrained model per balanced
    nuisance dimension, all in one lockstep SGD loop."""
    base_seed, index, protocol = args
    data = _toy_dataset(base_seed, index, protocol)
    trainer = protocol.trainer(derive_seed(base_seed, 12, index))
    dims = protocol.nuisance_dims
    substitutions = [(j, balance_column(data.train.n, derive_seed(base_seed, 13, index, j)))
                     for j in dims]
    original, *retrained = (r.model for r in train_lockstep(data.train, trainer, substitutions))
    acc_before = 1.0 - risk(original, data.test).zero_one_error
    view = as_variable_dataset(data.train, protocol.task_correlated_dims)
    _, _, weights, rank_est, rank_true = _nuisance_ranks(view, original, protocol)
    return tuple(
        BalanceRow(
            index, j,
            weights[j],
            abs(float(model.weights[0, j])),
            acc_before,
            1.0 - risk(model, data.test).zero_one_error,
            rank_est[j], rank_true[j],
        )
        for j, model in zip(dims, retrained))


def toy_balance_run(base_seed: int, n_datasets: int, protocol: ToyProtocol = ToyProtocol(),
                    jobs: int = 1) -> tuple[BalanceRow, ...]:
    results = parallel_map(_balance_worker,
                           [(base_seed, i, protocol) for i in range(n_datasets)], jobs)
    return tuple(row for rows in results for row in rows)


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
    train_grids: tuple[GridTensor, ...]
    train: VectorDataset
    test_grids: tuple[GridTensor, ...]
    test: VectorDataset


def make_grid_task(seed: int, protocol: GridProtocol = GridProtocol()) -> GridTask:
    """Synthesize the grid task: per-class prototype patterns plus noise.

    The central ``pattern_side`` square is the prototype of the class with
    Gaussian perturbation (clipped to [0,1]); every other pixel is dim
    Uniform(0, background) noise, independent of the label.
    """
    rng = np.random.default_rng(np.random.SeedSequence((seed, 31)))
    side, ps = protocol.side, protocol.pattern_side
    lo = (side - ps) // 2
    prototypes = rng.random((protocol.classes, ps, ps))

    def batch(per_class: int) -> tuple[tuple[GridTensor, ...], VectorDataset]:
        grids, labels = [], []
        for c in range(protocol.classes):
            for _ in range(per_class):
                values = protocol.background * rng.random((side, side, 1))
                block = prototypes[c] + rng.normal(0.0, protocol.noise_sd, (ps, ps))
                values[lo:lo + ps, lo:lo + ps, 0] = np.clip(block, 0.0, 1.0)
                grids.append(GridTensor(values))
                labels.append(c)
        x = np.stack([g.flat for g in grids])
        return tuple(grids), VectorDataset(x, np.array(labels), protocol.classes)

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
    rng = np.random.default_rng(np.random.SeedSequence((erase_seed, 0)))
    erased = erase_batch(task.train_grids, task.train.y, dist, rng)
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
    cell = (seed_index, int(round(alpha * 1000)), ("uniform", "periphery_m0",
                                                   "center_m1").index(law))
    model = train_with_erasing(task, dist, protocol.trainer(derive_seed(base_seed, 22, *cell)),
                               derive_seed(base_seed, 23, *cell))
    # All cells are probed under the same label-independent, uniform-position
    # erasing law, so ratios compare model robustness rather than how gentle
    # each training law happens to be on its own labels.
    probe = AugmentDistribution(alpha=0.0, position_law="uniform",
                                area_range=dist.area_range, aspect_range=dist.aspect_range)
    ratio = prediction_changing_ratio(
        model, task.test_grids, probe, task.test.y, protocol.repeats,
        np.random.default_rng(np.random.SeedSequence((derive_seed(base_seed, 24, *cell),))))
    return AugmentRow(alpha, law, ratio, risk(model, task.test).zero_one_error, seed_index)


def augment_sweep_run(base_seed: int, n_seeds: int, alphas: Sequence[float],
                      laws: Sequence[PositionLaw], protocol: GridProtocol = GridProtocol(),
                      jobs: int = 1,
                      base_dist: AugmentDistribution = AugmentDistribution()
                      ) -> tuple[AugmentRow, ...]:
    """Train and probe one model per (seed, alpha, law) cell.

    ``base_dist`` carries the non-swept law settings (area/aspect ranges,
    per-label intervals); each cell overrides its alpha and position law.
    """
    cells = [(base_seed, s, float(a), law, protocol, base_dist)
             for s in range(n_seeds) for a in alphas for law in laws]
    return tuple(parallel_map(_augment_worker, cells, jobs))


# ---------------------------------------------------------------------------
# Random tables for the verification sweeps
# ---------------------------------------------------------------------------

_TABLE_SHAPES: tuple[tuple[int, ...], ...] = (
    (2,), (3,), (4,), (5,), (6,), (7,), (8,), (2, 2), (2, 3), (2, 4), (2, 2, 2))


def random_count_table(rng: np.random.Generator, max_count: int = 16) -> ExemplarTable:
    """Random table with at most 8 configurations, K <= 4, cell counts <= max_count."""
    shape = _TABLE_SHAPES[rng.integers(len(_TABLE_SHAPES))]
    k = int(rng.integers(2, 5))
    counts: dict = {}
    for config in np.ndindex(*shape):
        for label in range(k):
            c = int(rng.integers(0, max_count + 1))
            if c:
                counts[(tuple(int(v) for v in config), label)] = c
    if not counts:
        counts[(tuple(0 for _ in shape), 0)] = 1
    total = sum(counts.values())
    return ExemplarTable(tuple(range(len(shape))), shape, counts, total, k)


def product_table(rng: np.random.Generator) -> tuple[ExemplarTable, int]:
    """Table where variable 0 is independent of (variable 1, label) by construction."""
    card_t = int(rng.integers(2, 5))
    card_c = int(rng.integers(2, 5))
    k = int(rng.integers(2, 5))
    u = rng.integers(1, 6, card_t)
    v = rng.integers(0, 7, (card_c, k))
    counts = {}
    for gt in range(card_t):
        for gc in range(card_c):
            for label in range(k):
                c = int(u[gt] * v[gc, label])
                if c:
                    counts[((gt, gc), label)] = c
    if not counts:
        counts[((0, 0), 0)] = 1
    return ExemplarTable((0, 1), (card_t, card_c), counts, sum(counts.values()), k), 0


def label_equals_variable_table(rng: np.random.Generator) -> tuple[ExemplarTable, int]:
    """Table where the label deterministically copies variable 0."""
    card_t = int(rng.integers(2, 5))
    card_c = int(rng.integers(2, 5))
    counts = {}
    for gt in range(card_t):
        for gc in range(card_c):
            counts[((gt, gc), gt)] = int(rng.integers(1, 9))
    return ExemplarTable((0, 1), (card_t, card_c), counts, sum(counts.values()), card_t), 0


def argmax_zero_one_error(table: ExemplarTable, determining_ids: Sequence[int]) -> Fraction:
    """Exact 0/1 training error of the argmax-of-conditional predictor."""
    marg = marginalize(table, determining_ids)
    per_config: dict[tuple[int, ...], dict[int, int]] = {}
    for (config, label), count in marg.counts.items():
        if count:
            bucket = per_config.setdefault(config, {})
            bucket[label] = bucket.get(label, 0) + count
    hits = sum(max(by_label.values()) for by_label in per_config.values())
    return 1 - Fraction(hits, marg.total)


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


def block_entropies(counts: np.ndarray) -> dict[tuple[int, ...], tuple[np.ndarray, np.ndarray]]:
    """``H(prediction, block)`` and ``H(block)`` in nats for every variable block.

    ``counts`` is a :func:`truth_table_counts` array.  The result maps each
    ascending tuple of variable indices, the empty block included, to two
    ``(256, laws)`` arrays.  The prediction axis is summed first, so a truth
    table and its complement get bit-equal entropies.
    """
    result = {}
    for size in range(4):
        for block in combinations(range(3), size):
            dropped = tuple(2 + i for i in range(3) if i not in block)
            joint = counts.sum(axis=dropped).reshape(counts.shape[:2] + (2 ** len(block), 2))
            total = joint.sum(axis=(2, 3))[..., None]
            result[block] = (_neg_plogp(joint / total[..., None]).sum(axis=3).sum(axis=2),
                             _neg_plogp(joint.sum(axis=3) / total).sum(axis=2))
    return result


def _neg_plogp(p: np.ndarray) -> np.ndarray:
    return -p * np.log(np.where(p > 0.0, p, 1.0))


def addition_rule_margins(laws: np.ndarray) -> np.ndarray:
    """Influence sum minus prediction entropy given the task block, per case.

    The result has shape ``(256, laws, 7)`` over (truth table, law, split in
    :data:`ADDITION_SPLITS`); each entry is what :func:`theory.addition_rule`
    gives on that case's table, with the same terms and clamps.
    """
    entropies = block_entropies(truth_table_counts(laws))
    margins = np.empty((256, len(laws), len(ADDITION_SPLITS)))
    for s, (task, nuisance) in enumerate(ADDITION_SPLITS):
        h_pred_task, h_task = entropies[task]
        influence_sum = np.zeros(margins.shape[:2])
        for var_id in nuisance:
            h_pred_joint, h_joint = entropies[tuple(sorted(task + (var_id,)))]
            influence_sum += np.maximum(h_pred_task - h_task - h_pred_joint + h_joint, 0.0)
        margins[..., s] = influence_sum - np.maximum(h_pred_task - h_task, 0.0)
    return margins


def addition_rule_sweep(seed: int, laws_per_case: int = 4,
                        max_count: int = 16) -> AdditionRuleSweep:
    """Exhaustive check of the influence addition rule on 3 binary variables.

    Every deterministic binary predictor over (g0, g1, g2), all 256 truth
    tables, is paired with every split of the three variables into a
    task-correlated and a non-empty task-uncorrelated block, under several
    seeded random integer-count joint laws.  A case is a violation when
    the per-variable information sum falls short of the prediction entropy
    given the task block by more than 1e-10.  The worst case reported is
    the first in (truth table, law, split) order.
    """
    rng = np.random.default_rng(np.random.SeedSequence((seed, 41)))
    laws = np.array([rng.integers(1, max_count + 1, size=8)
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
        p = rng.dirichlet(np.ones(k), size=n)
        h = -(np.where(p > 0, p * np.log(np.maximum(p, 1e-300)), 0.0)).sum(axis=1)
        bound = np.maximum(0.0, 1.0 - h / (2.0 * np.log(2.0)))
        if corrupt:
            bound = bound + 0.01
        worst = max(worst, float((bound - p.max(axis=1)).max()))
    worst = max(worst, abs(theory.max_prob_lower_bound(np.log(2.0)) - 0.5))
    return CheckResult("max-prob-bound", worst <= 1e-12, worst,
                       f"sweep of {draws} random label distributions, K in 2..10")


def check_optimal_outputs(rng: np.random.Generator, tables: int,
                          corrupt: bool = False) -> CheckResult:
    groups: dict[int, list] = {2: [], 3: [], 4: []}
    for index in range(tables):
        table = random_count_table(rng)
        ids = table.variable_ids
        closed = theory.optimal_outputs(table, ids)
        order = sorted(closed.outputs)
        raw = np.array([closed.outputs[c] for c in order])
        groups[table.k].append((index, order, raw))
    worst = 0.0
    for k, entries in groups.items():
        if not entries:
            continue
        stacked = np.vstack([raw for _, _, raw in entries])
        numeric = theory.pgd_conditionals(stacked, step=0.1, iterations=10_000)
        if corrupt:
            numeric = numeric + 0.002
        tv = 0.5 * np.abs(numeric - stacked).sum(axis=1)
        worst = max(worst, float(tv.max()))
    return CheckResult("optimal-outputs-closed-form", worst <= 1e-4, worst,
                       f"{tables} random tables vs projected-gradient minimizer")


def check_training_error(rng: np.random.Generator, tables: int) -> CheckResult:
    worst = 0.0
    for _ in range(tables):
        table = random_count_table(rng)
        ids = table.variable_ids[:int(rng.integers(0, len(table.variable_ids))) + 1]
        opt = theory.optimal_outputs(table, ids)
        estimate = theory.estimated_training_error(opt, table)
        exact = argmax_zero_one_error(table, ids)
        worst = max(worst, abs(estimate - float(exact)))
    return CheckResult("training-error-equality", worst <= 1e-12, worst,
                       f"{tables} random tables, argmax predictor vs estimate")


def check_strict_invariance(rng: np.random.Generator, tables: int) -> CheckResult:
    worst = 0.0
    missed = 0
    for _ in range(tables):
        table, gt = product_table(rng)
        report = theory.check_strict_invariance(table, table.variable_ids, (gt,))
        worst = max(worst, report.max_deviation)
        if not report.is_invariant:
            missed += 1
    for _ in range(tables):
        table, gt = label_equals_variable_table(rng)
        report = theory.check_strict_invariance(table, table.variable_ids, (gt,))
        if report.is_invariant:
            missed += 1
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
    """Run every closed-form verification sweep; ``corrupt`` is a test hook
    that perturbs one named check's closed form to prove the harness fails
    loudly."""
    if corrupt is not None and corrupt not in CORRUPTIBLE_CHECKS:
        raise GvlabError("bad-variable", f"check {corrupt!r} has no corrupt hook; "
                                         f"hooked: {list(CORRUPTIBLE_CHECKS)}")
    rng = np.random.default_rng(np.random.SeedSequence((seed, 51)))
    return (
        check_max_prob_bound(rng, corrupt == "max-prob-bound"),
        check_optimal_outputs(rng, tables, corrupt == "optimal-outputs-closed-form"),
        check_training_error(rng, 500),
        check_strict_invariance(rng, 100),
        check_addition_rule(seed),
        check_gap_bound(),
        check_excess_risk(),
    )


def theory_report_csv(results: Sequence[CheckResult]) -> str:
    lines = ["check,passed,max_deviation"]
    for r in results:
        lines.append(f"{r.name},{str(r.passed).lower()},{r.max_deviation!r}")
    return "\n".join(lines) + "\n"
