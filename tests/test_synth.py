import math
import sys
from dataclasses import replace

import numpy as np
import pytest
import scipy.stats
from hypothesis import example, given, settings, strategies as st

from gvlab import synth
from gvlab.core import BinningPolicy, derive_seed, rows_csv
from gvlab.errors import GvlabError
from gvlab.info import count_entropy
from gvlab.models import TrainConfig, VectorDataset, train
from gvlab.synth import (InvarTGConfig, RoundRecord, ToySpec, balance_substitute, generate_toy,
                         influence_rank, invar_tg, random_toy_spec, _cholesky_or_raise,
                         _vector_codes)

from dict_tables import conditional_entropy, count_table, reference_entropy, vector_codes
from memory import traced_peak

LN2 = math.log(2.0)


def instance_covariance(s11: np.ndarray, coupling: np.ndarray,
                        residual: np.ndarray) -> np.ndarray:
    """Reference: one per-instance test covariance assembled from the factors
    that the sampler's conditional decomposition uses."""
    q = s11.shape[0]
    p = coupling.shape[1]
    cov = np.empty((q + p, q + p))
    cov[:q, :q] = s11
    cross = s11 @ coupling
    cov[:q, q:] = cross
    cov[q:, :q] = cross.T
    cov[q:, q:] = coupling.T @ s11 @ coupling + residual @ residual.T + 1e-6 * np.eye(p)
    return cov


class TestToyGeneration:
    def test_train_means_concentrate(self):
        """Empirical first-block means sit within 3 sigma / sqrt(n) of the targets."""
        spec = random_toy_spec(seed=42)
        data = generate_toy(spec)
        n_half = spec.per_class // 2
        for c in range(2):
            block = data.train.x[data.train.y == c][:, :10]
            sigma = np.sqrt(np.diag(spec.class_covariances[c])[:10])
            bound = 3 * sigma / math.sqrt(n_half)
            assert np.all(np.abs(block.mean(axis=0) - spec.class_means[c][:10]) <= bound)

    def test_sizes_and_labels(self):
        spec = random_toy_spec(seed=1, per_class=200)
        data = generate_toy(spec)
        assert data.train.n == data.test.n == 200
        assert sorted(np.unique(data.train.y)) == [0, 1]

    def test_degenerate_case_keeps_training_distribution(self):
        """With every dimension task-correlated nothing is substituted, so the
        test half matches the training law (checked via moments)."""
        spec = random_toy_spec(seed=7, dims=6, task_correlated_dims=6, per_class=4000)
        data = generate_toy(spec)
        for c in range(2):
            test_block = data.test.x[data.test.y == c]
            np.testing.assert_allclose(test_block.mean(axis=0), spec.class_means[c], atol=0.06)
            np.testing.assert_allclose(np.cov(test_block.T), spec.class_covariances[c],
                                       atol=0.08)

    def test_test_set_last_block_departs_from_training_mean(self):
        spec = random_toy_spec(seed=3)
        data = generate_toy(spec)
        c0 = data.test.x[data.test.y == 0]
        # per-instance Uniform(-1,1) means average to ~0, not the class mean
        np.testing.assert_allclose(c0[:, 10:].mean(axis=0), 0.0, atol=0.15)

    def test_spec_with_negative_seed_rejected(self):
        spec = random_toy_spec(seed=0, dims=4, task_correlated_dims=2, per_class=10)
        with pytest.raises(GvlabError) as err:
            generate_toy(replace(spec, seed=-1))
        assert err.value.code == "bad-config"

    def test_random_spec_rejects_negative_seed(self):
        with pytest.raises(GvlabError) as err:
            random_toy_spec(-1)
        assert err.value.code == "bad-variable"

    def test_negative_zero_variances_draw_like_zero(self):
        spec = random_toy_spec(seed=2, dims=4, task_correlated_dims=2, per_class=10)
        zero = generate_toy(replace(spec, coupling_var=0.0, residual_var=0.0)).test
        negative_zero = generate_toy(replace(spec, coupling_var=-0.0, residual_var=-0.0)).test
        assert negative_zero.x.tobytes() == zero.x.tobytes()

    @pytest.mark.parametrize("seed", [2.5, 2.0, True])
    def test_non_integral_seed_rejected(self, seed):
        with pytest.raises(GvlabError) as err:
            random_toy_spec(seed)
        assert err.value.code == "bad-variable"
        spec = random_toy_spec(seed=0, dims=4, task_correlated_dims=2, per_class=10)
        with pytest.raises(GvlabError) as err:
            replace(spec, seed=seed)
        assert err.value.code == "bad-config"

    def test_non_psd_covariance_rejected(self):
        bad = -np.eye(4)
        spec = ToySpec(4, 2, 2, 10, (np.zeros(4), np.zeros(4)), (bad, bad), seed=0)
        with pytest.raises(GvlabError) as err:
            generate_toy(spec)
        assert err.value.code == "not-psd"

    def test_per_instance_covariance_blocks_are_psd(self):
        rng = np.random.default_rng(11)
        spec = random_toy_spec(seed=11)
        s11 = spec.class_covariances[0][:10, :10]
        for _ in range(50):
            coupling = rng.normal(0, math.sqrt(0.1), (10, 10))
            residual = rng.normal(0, 1.0, (10, 10))
            cov = instance_covariance(s11, coupling, residual)
            _cholesky_or_raise(cov)  # must not raise
            np.testing.assert_allclose(cov[:10, :10], s11, atol=0)

    def test_shared_marginal_block_identity(self):
        """Both halves draw the first block through the training factor, whose
        leading block reproduces the task-correlated covariance block."""
        spec = random_toy_spec(seed=5)
        cov = spec.class_covariances[0]
        chol = _cholesky_or_raise(cov)
        lead = chol[:10, :10]
        np.testing.assert_allclose(lead @ lead.T, cov[:10, :10] + 1e-9 * np.eye(10),
                                   atol=1e-12)
        data = generate_toy(spec)
        for c in range(2):
            tr = data.train.x[data.train.y == c][:, :10]
            te = data.test.x[data.test.y == c][:, :10]
            np.testing.assert_allclose(tr.mean(axis=0), te.mean(axis=0), atol=0.06)
            np.testing.assert_allclose(np.cov(tr.T), np.cov(te.T), atol=0.08)

    def test_determinism(self):
        """Both halves are fixed by the seed, and reading the test half, early,
        late or never, leaves the training bytes alone."""
        spec = random_toy_spec(seed=9, per_class=100)
        untouched = generate_toy(spec)
        early = generate_toy(spec)
        early_test = early.test.x.tobytes()
        late = generate_toy(spec)
        train_bytes = late.train.x.tobytes()
        late_test = late.test.x.tobytes()
        assert late.train.x.tobytes() == train_bytes
        assert early.train.x.tobytes() == untouched.train.x.tobytes() == train_bytes
        assert early.train.y.tobytes() == untouched.train.y.tobytes()
        assert early_test == late_test
        assert generate_toy(random_toy_spec(seed=10, per_class=100)).test.x.tobytes() != late_test

    def test_test_half_is_drawn_on_first_use(self, monkeypatch):
        calls = []
        real = synth._sample_test
        monkeypatch.setattr(synth, "_sample_test", lambda spec: calls.append(spec) or real(spec))
        spec = random_toy_spec(seed=4, per_class=40)
        data = generate_toy(spec)
        assert calls == []
        first = data.test
        assert data.test is first and first.n == 40
        assert calls == [spec]

    def test_halves_come_from_separate_streams(self):
        """Changing only the test law moves the test half, never the training half."""
        spec = random_toy_spec(seed=6, per_class=60)
        wide = replace(spec, test_mean_range=(-5.0, 5.0))
        a, b = generate_toy(spec), generate_toy(wide)
        assert a.train.x.tobytes() == b.train.x.tobytes()
        assert a.test.x.tobytes() != b.test.x.tobytes()
        np.testing.assert_array_equal(a.test.x[:, :10], b.test.x[:, :10])



def reference_sample_test(spec):
    """The literal sampler: per test instance a (q, p) coupling and a (p, p)
    residual matrix of i.i.d. normals, each class drawn whole and the classes
    stacked. The in-law draw of ``synth`` equals it in law, not in bytes."""
    q = spec.task_correlated_dims
    p = spec.dims - q
    n_half = spec.per_class // 2
    rng = np.random.default_rng(np.random.SeedSequence((spec.seed, 2)))
    test_x = []
    for mean, cov in zip(spec.class_means, spec.class_covariances):
        chol = _cholesky_or_raise(cov)
        if p == 0:
            test_x.append(mean + rng.standard_normal((n_half, spec.dims)) @ chol.T)
        else:
            x1 = mean[:q] + rng.standard_normal((n_half, q)) @ chol[:q, :q].T
            mu2 = rng.uniform(*spec.test_mean_range, (n_half, p))
            coupling = rng.normal(0.0, np.sqrt(abs(spec.coupling_var)), (n_half, q, p))
            residual = rng.normal(0.0, np.sqrt(abs(spec.residual_var)), (n_half, p, p))
            xi = rng.standard_normal((n_half, p))
            z = rng.standard_normal((n_half, p))
            x2 = (mu2
                  + np.einsum("nqp,nq->np", coupling, x1 - mean[:q])
                  + np.einsum("nij,nj->ni", residual, xi)
                  + np.sqrt(1e-6) * z)
            test_x.append(np.hstack([x1, x2]))
    return np.vstack(test_x)


class TestInLawTestHalf:
    """The test half draws its coupling and residual terms in law, so beyond
    the first block it matches ``reference_sample_test`` in law, not in bytes."""

    @settings(max_examples=40, deadline=None)
    @given(n_half=st.sampled_from([0, 1, 257]), odd=st.integers(0, 1),
           seed=st.integers(0, 2**32), dims=st.integers(1, 12), split=st.floats(0.0, 1.0),
           variances=st.sampled_from([(0.1, 1.0), (-0.0, -0.0), (0.0, 0.0), (2.0, -0.0)]))
    @example(n_half=257, odd=0, seed=3, dims=20, split=0.5, variances=(0.1, 1.0))
    @example(n_half=257, odd=1, seed=3, dims=20, split=1.0, variances=(0.1, 1.0))
    def test_first_block_and_the_p0_branch_equal_the_reference(self, n_half, odd, seed, dims,
                                                                split, variances):
        """Over 3 classes, the p == 0 branch equals the reference byte for byte.
        Otherwise the first class's x1 columns do. Each later class's x1 sits
        elsewhere in the stream than in the reference, which drew more values
        per class, so those columns are pinned by not moving with the x2 law."""
        q = 1 + round(split * (dims - 1))  # q == dims is the p == 0 branch
        base = random_toy_spec(seed, dims=dims, task_correlated_dims=q, classes=3,
                               per_class=max(1, 2 * n_half + odd))
        spec = replace(base, coupling_var=variances[0], residual_var=variances[1])
        got = synth._sample_test(spec).x
        expected = reference_sample_test(spec)
        assert got.shape == expected.shape == (3 * n_half, dims)
        if q == dims:
            assert got.tobytes() == expected.tobytes()
            return
        assert got[:n_half, :q].tobytes() == expected[:n_half, :q].tobytes()
        other = replace(spec, test_mean_range=(-3.0, 2.0), coupling_var=0.7, residual_var=0.2)
        assert got[:, :q].tobytes() == synth._sample_test(other).x[:, :q].tobytes()

    @pytest.mark.parametrize("sampler", [lambda spec: synth._sample_test(spec).x,
                                         reference_sample_test], ids=["in-law", "reference"])
    @pytest.mark.parametrize("coupling_var, residual_var, slope_tol, intercept_tol",
                             [(1.0, 0.1, 0.1, 0.2), (0.0, 0.0, 2e-8, 5e-8)])
    def test_coupling_slope_and_residual_intercept(self, sampler, coupling_var, residual_var,
                                                   slope_tol, intercept_tol):
        """With mu2 pinned at c, E[(x2_j - c)^2 | x1] = coupling_var |x1 - mu1|^2
        + p residual_var + 1e-6. Per class of 20 000 instances, the least-squares
        line of the row mean over j on |x1 - mu1|^2 shows both.  Over 40 seeds
        its slope and intercept had standard deviations 0.015 and 0.033 at
        (1.0, 0.1), 2.9e-9 and 7.5e-9 at (0, 0): the bounds are about 6 of them.
        At the default law (0.1, 1.0) the residual term hides the slope: its
        standard deviation there is 0.04, against a slope of 0.1."""
        c, n_half, p = 0.25, 20_000, 10
        spec = replace(random_toy_spec(seed=5, per_class=2 * n_half), test_mean_range=(c, c),
                       coupling_var=coupling_var, residual_var=residual_var)
        x = sampler(spec)
        for k, mean in enumerate(spec.class_means):
            rows = x[k * n_half:(k + 1) * n_half]
            sq_norm = ((rows[:, :10] - mean[:10]) ** 2).sum(axis=1)
            slope, intercept = np.polyfit(sq_norm, ((rows[:, 10:] - c) ** 2).mean(axis=1), 1)
            assert abs(slope - coupling_var) < slope_tol
            assert abs(intercept - (p * residual_var + 1e-6)) < intercept_tol

    @pytest.mark.parametrize("coupling_var, residual_var", [(0.1, 1.0), (1.0, 0.1)])
    def test_projections_match_the_reference_in_law(self, coupling_var, residual_var):
        """Two-sample KS tests of x2 against the reference sampler (drawn from
        another seed, so the samples are independent), per class of 10 000
        instances: on three fixed unit projections, alone and scaled by
        |x1 - mu1|, and on |x2|, whose spread shows the chi-square that the
        projections hide. 14 tests per law, each at level 1e-3 / 14."""
        n_half = 10_000
        spec = replace(random_toy_spec(seed=5, per_class=2 * n_half),
                       coupling_var=coupling_var, residual_var=residual_var)
        got = synth._sample_test(spec).x
        expected = reference_sample_test(replace(spec, seed=6))
        directions = np.vstack([np.eye(10)[0], np.full(10, 10 ** -0.5),
                                np.random.default_rng(0).standard_normal(10)])
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        for k, mean in enumerate(spec.class_means):
            samples = []
            for x in (got, expected):
                rows = x[k * n_half:(k + 1) * n_half]
                projected = rows[:, 10:] @ directions.T
                norm = np.linalg.norm(rows[:, :10] - mean[:10], axis=1)
                samples.append(np.column_stack([projected, projected * norm[:, None],
                                                np.linalg.norm(rows[:, 10:], axis=1)]))
            for a, b in zip(samples[0].T, samples[1].T):
                assert scipy.stats.ks_2samp(a, b).pvalue > 1e-3 / 14

    def test_peak_allocation_at_default_scale(self):
        """The in-law draw holds no per-instance tensor: the half (800 000 bytes)
        and a few (2 500, 10) temporaries peaked at 1 312 580 bytes; the bound
        leaves one more such array (200 000 bytes). The blocked sampler that
        drew (n, q, p) and (n, p, p) tensors peaked at 3 364 175 bytes."""
        spec = random_toy_spec(seed=0)
        assert traced_peak(synth._sample_test, spec) < 1_520_000


def label_copy_dataset(n=400, seed=0):
    """Three columns: 0 copies the label, 1 is independent noise in 0..3, and
    2 is weakly informative."""
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 2, n)
    g2 = np.where(rng.random(n) < 0.7, y, rng.integers(0, 2, n))
    return VectorDataset(np.column_stack([y, rng.integers(0, 4, n), g2]).astype(float), y, 2)


class TestInfluenceRank:
    def test_label_copy_ranks_first_with_zero_entropy(self):
        ranked = influence_rank(label_copy_dataset(), [0, 1, 2])
        assert ranked[0][0] == 0
        assert ranked[0][1] == 0.0

    def test_independent_variable_ranks_last_near_label_entropy(self):
        data = label_copy_dataset()
        ranked = influence_rank(data, [0, 1, 2])
        assert ranked[-1][0] == 1
        assert abs(ranked[-1][1] - count_entropy(np.bincount(data.y), data.n)) < 0.02

    def test_ties_break_by_ascending_id(self):
        rng = np.random.default_rng(1)
        col = rng.integers(0, 2, 100)
        data = VectorDataset(np.column_stack([col, col]).astype(float), rng.integers(0, 2, 100), 2)
        ranked = influence_rank(data, [1, 0])
        assert [r[0] for r in ranked] == [0, 1]
        assert ranked[0][1] == ranked[1][1]

    def test_empty_candidates_rejected(self):
        with pytest.raises(GvlabError) as err:
            influence_rank(label_copy_dataset(), [])
        assert err.value.code == "bad-variable"

    def test_generator_of_ids_ranks_every_candidate(self):
        data = label_copy_dataset()
        assert influence_rank(data, (j for j in [2, 0, 1])) == influence_rank(data, [2, 0, 1])
        assert len(influence_rank(data, iter([1, 1]))) == 2

    def test_labels_past_the_row_count_are_ranked(self):
        """Label codes past n (here k = 2**40) are counted on their ranks, with
        the same bits and no array as wide as k."""
        x = np.array([[0, 0.1], [2, 0.5], [2, 0.9], [1, 0.2], [0, 0.3]])
        data = VectorDataset(x, [2**40 - 1, 0, 2**40 - 1, 2**39, 0], 2**40)
        assert_ranks_match_tables(data, [0, 1, 0], BinningPolicy(4))


def per_candidate_rank(data, ids, binning):
    """Reference: one table and one conditional entropy per candidate column."""
    codes = vector_codes(data, ids, binning.bins)
    scored = [(j, conditional_entropy(count_table([row], data.y, data.k), (0,)))
              for j, row in zip(ids, codes)]
    return sorted(scored, key=lambda pair: (pair[1], pair[0]))


def assert_ranks_match_tables(data, ids, binning):
    """``influence_rank`` and the label entropy of the worker's helper equal the
    table references bit for bit."""
    expected = [(j, h.hex()) for j, h in per_candidate_rank(data, ids, binning)]
    assert [(j, h.hex()) for j, h in influence_rank(data, ids, binning)] == expected
    (_, h_label), = synth._conditional_entropies(_vector_codes(data, ids, binning), data.y)
    h_expected = max(reference_entropy(count_table([], data.y, data.k), (), True), 0.0)
    assert h_label.hex() == h_expected.hex()


@st.composite
def influence_datasets(draw):
    """Columns of a few values (some far apart) or of spread floats, k in 2..4."""
    n = draw(st.integers(1, 40))
    columns = []
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            card = draw(st.sampled_from([1, 2, 5, 2**40]))
            values = st.sampled_from(sorted({0, card // 3, card - 1}))
        else:
            lo, width = draw(st.floats(-5.0, 5.0)), draw(st.floats(1e-3, 5.0))
            values = st.floats(lo, lo + width)
        columns.append([draw(values) for _ in range(n)])
    k = draw(st.integers(2, 4))
    labels = [draw(st.integers(0, k - 1)) for _ in range(n)]
    return VectorDataset(np.array(columns, dtype=float).T, labels, k)


@settings(max_examples=150, deadline=None)
@given(influence_datasets(), st.sampled_from([2, 3, 10, 2**40]), st.data())
def test_one_pass_matches_per_candidate_tables(data, bins, draw):
    """Every entropy equals that of one table per candidate bit for bit, with
    repeated ids and bin codes past the row count."""
    ids = draw.draw(st.lists(st.integers(0, data.d - 1), min_size=1, max_size=6))
    assert_ranks_match_tables(data, ids, BinningPolicy(bins))


@pytest.mark.parametrize("ds, ids", [
    (label_copy_dataset(), [0, 3]),
    (VectorDataset(np.zeros((0, 3)), np.zeros(0), 2), [0]),
    (VectorDataset(np.array([[0.0], [5e-324], [0.0]]), [0, 1, 1], 2), [0]),
])
def test_influence_errors_match_the_tables(ds, ids):
    """An unknown column, empty data and a range too narrow to bin raise, before
    anything is counted, what binning the candidates for their tables raises."""
    with pytest.raises(GvlabError) as expected:
        _vector_codes(ds, tuple(ids), BinningPolicy())
    with pytest.raises(GvlabError) as err:
        influence_rank(ds, ids)
    assert (err.value.code, str(err.value)) == (expected.value.code, str(expected.value))
    assert err.value.code == ("empty-dataset" if ds.n == 0 else "bad-variable")


class TestBalanceSubstitute:
    def test_substituted_column_decorrelates_from_labels(self):
        rng = np.random.default_rng(2)
        n = 4000
        y = rng.integers(0, 2, n)
        x = np.column_stack([y + rng.normal(0, 0.1, n), rng.normal(0, 1, n)])
        data = VectorDataset(x, y, 2)
        balanced = balance_substitute(data, 0, seed=77)
        corr = np.corrcoef(balanced.x[:, 0], y)[0, 1]
        assert abs(corr) <= 4 / math.sqrt(n)

    def test_only_target_column_changes(self):
        rng = np.random.default_rng(3)
        data = VectorDataset(rng.normal(size=(50, 4)), rng.integers(0, 2, 50), 2)
        b1 = balance_substitute(data, 2, seed=1)
        b2 = balance_substitute(b1, 2, seed=2)
        np.testing.assert_array_equal(b1.x[:, [0, 1, 3]], data.x[:, [0, 1, 3]])
        np.testing.assert_array_equal(b2.x[:, [0, 1, 3]], data.x[:, [0, 1, 3]])
        assert not np.array_equal(b1.x[:, 2], b2.x[:, 2])

    def test_source_dataset_untouched(self):
        rng = np.random.default_rng(4)
        data = VectorDataset(rng.normal(size=(20, 3)), rng.integers(0, 2, 20), 2)
        before = data.x.copy()
        balance_substitute(data, 1, seed=5)
        np.testing.assert_array_equal(data.x, before)

    def test_negative_seed_rejected(self):
        with pytest.raises(GvlabError) as err:
            synth.balance_column(10, -1)
        assert err.value.code == "bad-variable"

    @pytest.mark.parametrize("seed", [1.5, np.float64(2.0), False])
    def test_non_integral_seed_rejected(self, seed):
        with pytest.raises(GvlabError) as err:
            synth.balance_column(5, seed)
        assert err.value.code == "bad-variable"

    def test_values_are_unit_uniform(self):
        data = VectorDataset(np.zeros((2000, 1)), np.zeros(2000, dtype=int), 2)
        balanced = balance_substitute(data, 0, seed=6)
        col = balanced.x[:, 0]
        assert col.min() >= 0.0 and col.max() <= 1.0
        assert abs(col.mean() - 0.5) < 0.05


def vectors_label_copy(n=600, seed=0):
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 2, n)
    x = np.column_stack([rng.normal(0, 1, n), y + rng.normal(0, 0.01, n)])
    return VectorDataset(x, y, 2)


def per_round_invar_tg(data, candidate_ids, config, trainer):
    """``synth.invar_tg`` as first written: each round bins and ranks every
    remaining candidate on the current data, then balances the first."""
    remaining = list(dict.fromkeys(int(v) for v in candidate_ids))
    current, log = data, []
    for round_index in range(config.max_rounds):
        if not remaining:
            break
        h_cond = synth._conditional_entropies(_vector_codes(current, remaining, config.binning),
                                              current.y)[0][0]
        chosen, h_before = synth._ranked(remaining, h_cond)[0]
        if h_before > config.threshold:
            break
        current = balance_substitute(current, chosen,
                                     derive_seed(trainer.seed, 101, round_index, chosen))
        h_after = synth._conditional_entropies(_vector_codes(current, [chosen], config.binning),
                                               current.y)[0][0][0]
        log.append(RoundRecord(round_index, chosen, h_before, h_after))
        remaining.remove(chosen)
    return tuple(log), tuple(r.chosen_id for r in log), train(current, trainer)


class TestInvarTG:
    trainer = TrainConfig(0.1, 0.9, 32, 10, seed=3)

    @pytest.mark.parametrize("candidates, threshold, max_rounds", [
        ([15, 10, 19, 3, 12], 10.0, 4),
        ([15, 10, 19, 3, 12, 10, 15], 10.0, 100),
        (list(range(20)), 0.675, 100),
        ([19, 4, 14, 16], 0.0, 3),
        ([7], 10.0, 1),
    ], ids=["cap", "exhausted-duplicates", "threshold", "none", "one"])
    def test_one_ranking_equals_the_per_round_loop(self, candidates, threshold, max_rounds):
        """The rounds walked from one ranking log, balance and train exactly
        as re-ranking the remaining candidates every round, bit for bit."""
        data = generate_toy(random_toy_spec(seed=13, per_class=300)).train
        config = InvarTGConfig(threshold=threshold, max_rounds=max_rounds)
        log, balanced, training = per_round_invar_tg(data, candidates, config, self.trainer)
        result = invar_tg(data, candidates, config, self.trainer)
        assert [(r.round, r.chosen_id, r.h_before.hex(), r.h_after.hex()) for r in result.log] \
            == [(r.round, r.chosen_id, r.h_before.hex(), r.h_after.hex()) for r in log]
        assert result.balanced_ids == balanced
        assert result.model.weights.tobytes() == training.model.weights.tobytes()
        assert result.model.bias.tobytes() == training.model.bias.tobytes()
        assert result.training.loss.hex() == training.loss.hex()

    def test_log_follows_influence_rank(self):
        """InvarTG balances the candidates in ``influence_rank``'s order, each
        logged with the entropy that ranked it."""
        data = generate_toy(random_toy_spec(seed=13, per_class=300)).train
        candidates = [15, 10, 19, 3, 12]
        result = invar_tg(data, candidates, InvarTGConfig(threshold=10.0), self.trainer)
        assert [(r.chosen_id, r.h_before.hex()) for r in result.log] == \
            [(j, h.hex()) for j, h in influence_rank(data, candidates)]

    def test_threshold_below_all_entropies_means_zero_rounds(self):
        rng = np.random.default_rng(5)
        y = rng.integers(0, 2, 500)
        x = rng.normal(size=(500, 3))  # all columns label-independent
        data = VectorDataset(x, y, 2)
        result = invar_tg(data, [0, 1, 2], InvarTGConfig(threshold=0.0), self.trainer)
        assert result.balanced_ids == ()
        assert result.log == ()

    def test_label_copy_candidate_is_balanced_in_one_round(self):
        data = vectors_label_copy()
        result = invar_tg(data, [1], InvarTGConfig(threshold=LN2 / 2), self.trainer)
        assert result.balanced_ids == (1,)
        assert len(result.log) == 1
        assert result.log[0].chosen_id == 1
        assert result.log[0].h_before < 0.05
        assert result.log[0].h_after > result.log[0].h_before

    def test_never_balances_twice_and_stays_within_candidates(self):
        data = vectors_label_copy()
        config = InvarTGConfig(threshold=10.0, max_rounds=50)  # balance everything
        result = invar_tg(data, [0, 1], config, self.trainer)
        assert sorted(result.balanced_ids) == [0, 1]
        assert len(set(result.balanced_ids)) == len(result.balanced_ids)

    def test_max_rounds_cap(self):
        data = vectors_label_copy()
        result = invar_tg(data, [0, 1], InvarTGConfig(threshold=10.0, max_rounds=1),
                          self.trainer)
        assert len(result.log) == 1

    def test_log_csv_layout(self):
        data = vectors_label_copy()
        result = invar_tg(data, [1], InvarTGConfig(threshold=LN2 / 2), self.trainer)
        text = rows_csv("round,chosen_id,h_before,h_after", result.log)
        lines = text.splitlines()
        assert lines[0] == "round,chosen_id,h_before,h_after"
        assert lines[1].startswith("0,1,")


    @pytest.mark.parametrize("value", [2.0**24, -2.0**24, 1.7e7, 1e8])
    def test_constant_column_at_large_magnitude_is_one_bin(self, value):
        """A constant column is one bin, so H(label | column) = H(label), also
        where its value plus 1e-9 rounds back to it."""
        rng = np.random.default_rng(8)
        y = rng.integers(0, 2, 50)
        data = VectorDataset(np.column_stack([rng.normal(size=50), np.full(50, value)]), y, 2)
        result = invar_tg(data, [1], InvarTGConfig(threshold=10.0, max_rounds=1), self.trainer)
        assert result.log[0].chosen_id == 1
        assert result.log[0].h_before == reference_entropy(count_table([], y, 2), (), True)
        assert not _vector_codes(data, [1], BinningPolicy()).any()

    def test_empty_data_is_empty_dataset(self):
        data = VectorDataset(np.empty((0, 3)), np.empty(0, dtype=np.int64), 2)
        with pytest.raises(GvlabError) as err:
            invar_tg(data, [0, 2], InvarTGConfig(threshold=1.0), self.trainer)
        assert err.value.code == "empty-dataset"

    @pytest.mark.parametrize("candidates, duplicate", [([15, 10, 19, 3, 12], False),
                                                       ([19, 14, 4, 16], True)])
    def test_rounds_equal_full_width_tables_bit_for_bit(self, candidates, duplicate):
        """Each round equals the reference, which ranks the remaining candidates
        on one table per column and takes ``h_after`` from a table over the
        substituted column, in every entropy; with column 19 a copy of column 4
        the two tie, and the lower column id goes first."""
        data = generate_toy(random_toy_spec(seed=13, per_class=300)).train
        if duplicate:
            x = data.x.copy()
            x[:, 19] = x[:, 4]
            data = VectorDataset(x, data.y, data.k)
        config = InvarTGConfig(threshold=10.0, max_rounds=4)
        remaining, current, expected = list(candidates), data, []
        for round_index in range(config.max_rounds):
            chosen, h_before = per_candidate_rank(current, remaining, config.binning)[0]
            current = balance_substitute(current, chosen,
                                         derive_seed(self.trainer.seed, 101, round_index, chosen))
            (_, h_after), = per_candidate_rank(current, [chosen], config.binning)
            expected.append(RoundRecord(round_index, chosen, h_before, h_after))
            remaining.remove(chosen)
        result = invar_tg(data, candidates, config, self.trainer)
        assert result.log == tuple(expected)
        assert result.balanced_ids == tuple(r.chosen_id for r in expected)
        if duplicate:
            assert expected[0].chosen_id == 4 and expected[1].chosen_id == 19
            assert expected[0].h_before == expected[1].h_before


def test_vector_codes_of_some_columns_bin_them_as_the_full_view():
    """The codes of some columns, in their order, are the reference's codes of
    those columns, so their conditional entropies of the labels and of any
    other target are bit-identical."""
    data = generate_toy(random_toy_spec(seed=13, per_class=300)).train
    columns = (15, 10, 19, 3)
    codes = _vector_codes(data, columns, BinningPolicy(10))
    expected = vector_codes(data, columns, 10)
    assert codes.tobytes() == expected.tobytes()
    other = (data.x[:, 0] > 0).astype(np.int64)
    assert synth._conditional_entropies(codes, data.y, other) == \
        synth._conditional_entropies(expected, data.y, other)


def test_vector_codes_hold_their_array_and_one_column_of_temporaries():
    """Binning 10 columns of 5 000 rows traces at most the (10, 5 000) int64
    code array and one column's temporaries, the five column-sized arrays that
    ``core._range_codes`` makes (shifted, scaled, floored, clamped to the top
    bin, cast to int64) even if none were freed before the next: no
    copy of the columns themselves (400 000 bytes) fits beside them."""
    data = generate_toy(random_toy_spec(seed=2)).train
    columns = tuple(range(10, 20))
    assert (data.n, len(columns)) == (5000, 10)
    code_bytes, column_bytes = len(columns) * data.n * 8, data.n * 8
    assert traced_peak(_vector_codes, data, columns, BinningPolicy()) <= \
        code_bytes + 5 * column_bytes


@st.composite
def vector_columns(draw, n):
    """One column of n floats: spread, constant, a few ulps wide, or of large
    magnitude (so that its range may overflow to inf)."""
    kind = draw(st.sampled_from(["spread", "constant", "ulps", "large"]))
    if kind == "spread":
        return draw(st.lists(st.floats(-5.0, 5.0), min_size=n, max_size=n))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    if kind == "large":
        return draw(st.lists(st.one_of(finite, st.sampled_from([1e308, -1e308])),
                             min_size=n, max_size=n))
    base = draw(st.one_of(finite, st.sampled_from([2.0**24, -1.7e7, 1e8, 1.6e7, 5e-324])))
    if kind == "constant":
        return [base] * n
    column = []
    for steps in draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)):
        value = base
        for _ in range(steps):
            value = math.nextafter(value, math.inf)
        column.append(value)
    return column


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 30).flatmap(lambda n: st.lists(vector_columns(n), min_size=1,
                                                     max_size=4)),
       st.one_of(st.sampled_from([2, 3, 10, 2**40, 2**53]), st.integers(2, 2**53)),
       st.data())
def test_vector_codes_equal_the_column_codes_of_the_view(columns, bins, data):
    """Each column's codes equal the reference's plain floor over the column's
    own min/max, a constant column in one bin; the first column whose range is
    not finite, or too narrow for the bin count, raises ``bad-variable``."""
    n = len(columns[0])
    vectors = VectorDataset(np.array(columns).T, np.arange(n) % 2, 2)
    ids = data.draw(st.lists(st.integers(0, vectors.d - 1), min_size=1, max_size=5))
    error = None
    for j in ids:
        lo, hi = float(vectors.x[:, j].min()), float(vectors.x[:, j].max())
        if not math.isfinite(hi - lo):  # a NaN, an inf or a range that overflows
            error = "finite"
            break
        if lo < hi and (hi - lo) / bins < sys.float_info.min:
            error = "too narrow"
            break
    if error is None:
        assert _vector_codes(vectors, ids, BinningPolicy(bins)).tobytes() == \
            vector_codes(vectors, ids, bins).tobytes()
        return
    with pytest.raises(GvlabError) as err:
        _vector_codes(vectors, ids, BinningPolicy(bins))
    assert err.value.code == "bad-variable" and error in str(err.value)


@pytest.mark.parametrize("column", [[0.0, math.nan, 1.0], [0.0, math.inf, 1.0],
                                    [-math.inf, -math.inf, -math.inf], [-1e308, 0.0, 1e308]],
                         ids=["nan", "inf", "all-minus-inf", "overflowing-range"])
def test_vector_codes_reject_a_non_finite_range(column):
    """A NaN or inf, or a range past the largest float, is ``bad-variable``."""
    vectors = VectorDataset(np.column_stack([[0.5, 0.25, 0.0], column]), [0, 1, 1], 2)
    with pytest.raises(GvlabError) as err:
        _vector_codes(vectors, [0, 1], BinningPolicy())
    assert err.value.code == "bad-variable"


@pytest.mark.parametrize("columns", [(20,), (-1,), (1.5,), (True,), (3, 20)])
def test_vector_codes_reject_a_column_outside_the_data(columns):
    data = generate_toy(random_toy_spec(seed=13, per_class=30)).train
    with pytest.raises(GvlabError) as err:
        _vector_codes(data, columns, BinningPolicy())
    assert err.value.code == "bad-variable"


def test_estimated_error_tracks_true_training_error():
    """On the toy task the trained model's mean-max-output estimate lies
    near the true 0/1 training error, and below the zero model's 0.5."""
    from gvlab.models import risk, train as train_model
    data = generate_toy(random_toy_spec(seed=1, per_class=2000)).train
    report = risk(train_model(data, TrainConfig(0.01, 0.9, 256, 100, seed=1)).model, data)
    estimate = 1.0 - report.mean_max_output
    assert estimate < 0.5
    assert abs(estimate - report.zero_one_error) < 0.05
