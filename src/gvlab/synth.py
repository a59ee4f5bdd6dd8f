"""Synthetic Gaussian task, influence ranking, and the InvarTG loop.

The toy task is binary classification on 20-dimensional Gaussian class
clouds where the generating function is the identity, so input features
coincide with generative variables.  The first block of dimensions is
task-correlated: test instances are drawn from per-instance distributions
that keep the first-block mean and the top-left covariance block of the
training distribution but resample everything else.  The remaining
dimensions are therefore informative on the training set (their class
means differ) yet unreliable at test time, which is exactly the regime
the influence ranking and the Balance operation target.

Per-instance test covariances are built PSD by construction: with the
training block S11 fixed, a random coupling W and residual factor D give

    cross block      C   = S11 @ W
    bottom-right     S22 = W.T @ S11 @ W + D @ D.T + 1e-6 I

whose Schur complement is D @ D.T + 1e-6 I >= 0.  Sampling uses the
conditional decomposition x2 = mu2 + W.T (x1 - mu1) + D xi + sqrt(1e-6) z,
so the first-block marginal is exactly the training marginal; the
covariance itself is never assembled.

The two halves come from independent streams keyed by the spec's seed:
the training half from ``core.stream(seed, 1)``, drawn by
:func:`generate_toy`, and the test half from ``core.stream(seed, 2)``,
drawn on first access of ``ToyData.test``.  Reading the test half, or not,
never changes the training bytes.

The test half is drawn class by class into one preallocated array, so one
class's per-instance tensors are freed before the next class draws.  The
(n, q, p) coupling tensor is drawn and contracted in blocks of 256
instances; consecutive draws continue one stream, so the bytes equal one
whole draw.  The (n, p, p) residual tensor is drawn whole: its contraction
needs ``xi``, which the stream draws after it, so blocking it would mean
replaying the stream.

The influence ranking bins each candidate column once and counts every
candidate's (bin, label) cells with one ``bincount``, bit for bit as a table
per candidate would (:func:`_conditional_entropies`).  Vector data is binned
directly, each column over its own min/max (:func:`_vector_codes`); the toy
protocols and InvarTG count the labels, and the toy protocols the model's
predictions, on those codes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .core import (BinningPolicy, Dataset, _column_codes, _is_int, _range_codes, derive_seed,
                   stream)
from .errors import GvlabError
from .info import Nats, count_entropy
from .models import LinearModel, TrainConfig, TrainResult, VectorDataset, train

_JITTER = 1e-9
_SCHUR_FLOOR = 1e-6
_TEST_BLOCK = 256  # test instances per coupling block: 200 KB at q = p = 10


@dataclass(frozen=True)
class ToySpec:
    """Full parameterization of the synthetic Gaussian generating process."""

    dims: int
    task_correlated_dims: int
    classes: int
    per_class: int
    class_means: tuple[np.ndarray, ...]
    class_covariances: tuple[np.ndarray, ...]
    seed: int
    test_mean_range: tuple[float, float] = (-1.0, 1.0)
    coupling_var: float = 0.1
    residual_var: float = 1.0

    def __post_init__(self):
        if not 0 < self.task_correlated_dims < self.dims + 1:
            raise GvlabError("bad-variable", "need 0 < task_correlated_dims <= dims")
        if len(self.class_means) != self.classes or len(self.class_covariances) != self.classes:
            raise GvlabError("bad-variable", "need one mean and covariance per class")
        for mean, cov in zip(self.class_means, self.class_covariances):
            if mean.shape != (self.dims,) or cov.shape != (self.dims, self.dims):
                raise GvlabError("bad-variable", "mean/covariance shapes must match dims")
        lo, hi = self.test_mean_range
        if not (self.per_class >= 1 and -math.inf < lo <= hi < math.inf
                and 0.0 <= self.coupling_var < math.inf and 0.0 <= self.residual_var < math.inf):
            raise GvlabError("bad-config", "need per_class >= 1, finite test means lo <= hi and "
                                           f"finite variances >= 0; got per_class={self.per_class}, "
                                           f"test means ({lo}, {hi}), variances "
                                           f"({self.coupling_var}, {self.residual_var})")
        half_bytes = self.classes * (self.per_class // 2) * self.dims * 8
        if half_bytes > np.iinfo(np.intp).max:  # numpy cannot even shape such an array
            raise GvlabError("bad-config", f"per_class={self.per_class} makes each half "
                                           f"{half_bytes} bytes, beyond numpy's array limit")
        if not (_is_int(self.seed) and self.seed >= 0):
            raise GvlabError("bad-config", f"seed must be an integer >= 0, got {self.seed!r}")


def random_toy_spec(seed: int, dims: int = 20, task_correlated_dims: int = 10,
                    classes: int = 2, per_class: int = 5000,
                    coupling_weight: float = 0.5, variance: float = 0.25) -> ToySpec:
    """Draw class means from Uniform(-1,1), covariances as random PSD matrices.

    Each covariance is
    ``variance * (coupling_weight * A A^T / dims + (1 - coupling_weight) * I)``
    with standard-normal A: random cross-dimension coupling with per-dim
    variance around ``variance``.  Heavier coupling or larger variance makes
    the trained weights of the optimal linear model mix dimensions so
    strongly (and rattle under SGD noise so much) that their magnitudes stop
    tracking per-dimension influence; the defaults keep substantial coupling
    while the influence ranking stays recoverable and balanced dimensions
    retrain to near-zero weight.
    """
    rng = stream(seed, 0)
    means, covs = [], []
    for _ in range(classes):
        means.append(rng.uniform(-1.0, 1.0, dims))
        a = rng.standard_normal((dims, dims))
        covs.append(variance * (coupling_weight * (a @ a.T / dims)
                                + (1.0 - coupling_weight) * np.eye(dims)))
    return ToySpec(dims, task_correlated_dims, classes, per_class,
                   tuple(means), tuple(covs), seed)


@dataclass(frozen=True)
class ToyData:
    """Both halves of one toy dataset; the test half is drawn on first use."""

    spec: ToySpec
    train: VectorDataset

    @cached_property
    def test(self) -> VectorDataset:
        return _sample_test(self.spec)


def _cholesky_or_raise(cov: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.cholesky(cov + _JITTER * np.eye(cov.shape[0]))
    except np.linalg.LinAlgError:
        raise GvlabError("not-psd", "covariance failed the PSD factorization check") from None


def generate_toy(spec: ToySpec) -> ToyData:
    """Sample the training half of the synthetic task: ``per_class / 2``
    samples per class from N(mean, cov), deterministic given ``spec.seed``.

    Every class covariance is factorized here, so a non-PSD spec raises
    ``not-psd`` before any test instance is drawn.
    """
    n_half = spec.per_class // 2
    rng = stream(spec.seed, 1)
    train_x = [mean + rng.standard_normal((n_half, spec.dims)) @ _cholesky_or_raise(cov).T
               for mean, cov in zip(spec.class_means, spec.class_covariances)]
    return ToyData(spec, VectorDataset(np.vstack(train_x), _class_labels(spec), spec.classes))


def _class_labels(spec: ToySpec) -> np.ndarray:
    return np.repeat(np.arange(spec.classes, dtype=np.int64), spec.per_class // 2)


def _sample_test(spec: ToySpec) -> VectorDataset:
    """The test half: ``per_class / 2`` instances per class, each from its own
    distribution that keeps the task-correlated block of the training law;
    drawn class by class and block by block as the module docstring says."""
    n_half = spec.per_class // 2
    rng = stream(spec.seed, 2)
    x = np.empty((spec.classes * n_half, spec.dims))
    for c, (mean, cov) in enumerate(zip(spec.class_means, spec.class_covariances)):
        _fill_test_class(x[c * n_half:(c + 1) * n_half], spec, mean, cov, rng)
    return VectorDataset(x, _class_labels(spec), spec.classes)


def _fill_test_class(out: np.ndarray, spec: ToySpec, mean: np.ndarray, cov: np.ndarray,
                     rng: np.random.Generator) -> None:
    """Draw one class's test instances into ``out``, its rows of the test half.

    ``x2`` sums in place in a fixed order, which the output bytes depend on:
    mu2, coupling term, residual term, floor noise."""
    n_half, q = len(out), spec.task_correlated_dims
    p = spec.dims - q
    chol = _cholesky_or_raise(cov)
    if p == 0:
        out[:] = mean + rng.standard_normal((n_half, spec.dims)) @ chol.T
        return
    x1, x2 = out[:, :q], out[:, q:]
    x1[:] = mean[:q] + rng.standard_normal((n_half, q)) @ chol[:q, :q].T  # chol(S11 + jitter)
    x2[:] = rng.uniform(*spec.test_mean_range, (n_half, p))
    # abs: numpy rejects a scale of -0.0, which the spec accepts as a variance
    coupling_scale = np.sqrt(abs(spec.coupling_var))
    for lo in range(0, n_half, _TEST_BLOCK):
        hi = min(lo + _TEST_BLOCK, n_half)
        coupling = rng.normal(0.0, coupling_scale, (hi - lo, q, p))
        x2[lo:hi] += np.einsum("nqp,nq->np", coupling, x1[lo:hi] - mean[:q])
    # drawn whole: its contraction needs xi, which the stream draws after it
    residual = rng.normal(0.0, np.sqrt(abs(spec.residual_var)), (n_half, p, p))
    x2 += np.einsum("nij,nj->ni", residual, rng.standard_normal((n_half, p)))
    x2 += np.sqrt(_SCHUR_FLOOR) * rng.standard_normal((n_half, p))


def _vector_codes(data: VectorDataset, columns: Sequence[int],
                  binning: BinningPolicy) -> np.ndarray:
    """``(len(columns), n)`` bin codes of the given columns of ``data``.

    Column ``j`` is binned by :func:`core._range_codes` over its own min/max,
    as a continuous variable named ``g<j>``; a constant column is one bin,
    code 0.  A NaN or inf in a column, or a range that overflows to inf,
    raises ``bad-variable``.
    """
    if data.n == 0:
        raise GvlabError("empty-dataset", "cannot build a table from an empty dataset")
    if not all(_is_int(j) and 0 <= j < data.d for j in columns):
        raise GvlabError("bad-variable", f"columns must be integers in 0..{data.d - 1}, "
                                         f"got {columns!r}")
    codes = np.zeros((len(columns), data.n), dtype=np.int64)
    for row, j in zip(codes, columns):
        col = data.x[:, j]
        lo, hi = float(col.min()), float(col.max())
        if not math.isfinite(hi - lo):
            raise GvlabError("bad-variable", f"column {j} needs finite values with a finite "
                                             f"range, got [{lo}, {hi}]")
        if lo < hi:
            row[:] = _range_codes(col, lo, hi, binning.bins, f"g{j}")
    return codes


def influence_rank(dataset: Dataset, candidate_ids: Sequence[int],
                   binning: BinningPolicy = BinningPolicy()) -> tuple[tuple[int, Nats], ...]:
    """Candidates ordered by ascending conditional label entropy.

    The lowest H(Y | variable) comes first (most influential); ties break
    by ascending variable id.  Each entropy equals
    ``conditional_entropy(build_table(dataset, [id], binning), "labels", [id])``
    bit for bit, from one binned count of every candidate.
    """
    ids = tuple(candidate_ids)
    if not ids:
        raise GvlabError("bad-variable", "need at least one candidate id")
    if dataset.n == 0:
        raise GvlabError("empty-dataset", "cannot build a table from an empty dataset")
    known = {s.var_id: s for s in dataset.specs}
    codes = np.empty((len(ids), dataset.n), dtype=np.int64)
    for row, var_id in zip(codes, ids):
        if var_id not in known:
            raise GvlabError("bad-variable", f"unknown variable id {var_id}")
        row[:] = _column_codes(dataset, known[var_id], binning)
    return _ranked(ids, _conditional_entropies(codes, dataset.labels)[0][0])


def _ranked(ids: Sequence[int], entropies: Sequence[Nats]) -> tuple[tuple[int, Nats], ...]:
    return tuple(sorted(((int(var_id), h) for var_id, h in zip(ids, entropies)),
                        key=lambda pair: (pair[1], pair[0])))


def _conditional_entropies(codes: np.ndarray, *targets: np.ndarray
                           ) -> list[tuple[list[Nats], Nats]]:
    """Per target column (n codes >= 0): H(target | variable) for each row of
    ``codes``, a ``(variables, n)`` array of bin codes >= 0 with n >= 1, and
    H(target).  ``codes`` is overwritten.

    One ``bincount`` of (variable, bin, target) codes fills a dense
    ``(variables, bins * k)`` count array; row j lists the cells of a table
    over variable j alone in their order, with zeros for the cells it leaves
    out.  ``count_entropy`` adds a row in that order and a zero cell adds
    exactly 0.0, so every value equals ``conditional_entropy`` (or
    ``entropy``) over that table bit for bit.  A row or target whose codes
    reach n is first ranked to dense codes, which keeps their order, so the
    array has at most ``n * n`` cells per variable whatever the bin count,
    cardinalities and k.
    """
    n = codes.shape[1]
    for row in codes:
        row[:] = _dense(row)
    width = int(codes.max(initial=0)) + 1
    codes += np.arange(0, len(codes) * width, width)[:, None]
    results = []
    for target in targets:
        target = _dense(np.asarray(target, dtype=np.int64))
        k = int(target.max()) + 1
        joint = np.bincount((codes * k + target).ravel(), minlength=len(codes) * width * k)
        joint = joint.reshape(len(codes), width, k)
        h_joint = count_entropy(joint.reshape(len(codes), -1), n).tolist()
        h_given = count_entropy(joint.sum(axis=2), n).tolist()
        h_target = max(float(count_entropy(np.bincount(target), n)), 0.0)
        results.append(([max(a - b, 0.0) for a, b in zip(h_joint, h_given)], h_target))
    return results


def _dense(codes: np.ndarray) -> np.ndarray:
    """Non-negative codes, ranked to ``0..distinct - 1`` in their order when one reaches n."""
    if codes.max() < len(codes):
        return codes
    return np.unique(codes, return_inverse=True)[1]


def balance_column(n: int, seed: int) -> np.ndarray:
    """The Balance operation's substitute column: n i.i.d. Uniform(0,1) draws."""
    return stream(seed).uniform(0.0, 1.0, n)


def balance_substitute(data: VectorDataset, dim: int, seed: int) -> VectorDataset:
    """Copy of ``data`` with column ``dim`` replaced by ``balance_column(n, seed)``."""
    if not 0 <= dim < data.d:
        raise GvlabError("bad-variable", f"dimension {dim} outside 0..{data.d - 1}")
    x = data.x.copy()
    x[:, dim] = balance_column(data.n, seed)
    return VectorDataset(x, data.y, data.k)


@dataclass(frozen=True)
class InvarTGConfig:
    threshold: Nats
    max_rounds: int = 100
    binning: BinningPolicy = field(default_factory=BinningPolicy)

    def __post_init__(self):
        if self.threshold < 0.0:
            raise GvlabError("bad-config", "threshold must be >= 0")
        if self.max_rounds < 1:
            raise GvlabError("bad-config", "max_rounds must be >= 1")


@dataclass(frozen=True)
class RoundRecord:
    round: int
    chosen_id: int
    h_before: Nats
    h_after: Nats


@dataclass(frozen=True)
class InvarTGResult:
    model: LinearModel
    balanced_ids: tuple[int, ...]
    log: tuple[RoundRecord, ...]
    training: TrainResult


def invar_tg(data: VectorDataset, candidate_ids: Sequence[int], config: InvarTGConfig,
             trainer: TrainConfig) -> InvarTGResult:
    """Iteratively balance the most influential candidate, then train once.

    Each round takes the remaining candidate of lowest conditional label
    entropy, stops when that entropy exceeds the threshold, the candidates
    are exhausted, or ``max_rounds`` is hit, and otherwise substitutes the
    winning column with Uniform(0,1) noise; no id is balanced twice.  A
    substitution changes only the chosen column, which then leaves the
    candidates, so the entropies are ranked once and walked in that order:
    every round's ranking of the remaining candidates is that walk's rest.
    """
    candidates = list(dict.fromkeys(int(v) for v in candidate_ids))
    if not candidates:
        raise GvlabError("bad-variable", "need at least one candidate id")
    # Each column is binned by its own range; ties break by column id.
    h_cond = _conditional_entropies(_vector_codes(data, candidates, config.binning), data.y)[0][0]
    current = data
    log: list[RoundRecord] = []
    ranked = _ranked(candidates, h_cond)[:config.max_rounds]
    for round_index, (chosen, h_before) in enumerate(ranked):
        if h_before > config.threshold:
            break
        current = balance_substitute(current, chosen,
                                     derive_seed(trainer.seed, 101, round_index, chosen))
        h_after = _conditional_entropies(_vector_codes(current, [chosen], config.binning),
                                         current.y)[0][0][0]
        log.append(RoundRecord(round_index, chosen, h_before, h_after))
    result = train(current, trainer)
    return InvarTGResult(result.model, tuple(r.chosen_id for r in log), tuple(log), result)
