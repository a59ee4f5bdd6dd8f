import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gvlab import synth
from gvlab.core import BinningPolicy, Dataset, VariableSpec, build_table, derive_seed, rows_csv
from gvlab.errors import GvlabError
from gvlab.info import conditional_entropy, entropy
from gvlab.models import TrainConfig, VectorDataset
from gvlab.synth import (InvarTGConfig, RoundRecord, ToySpec, as_variable_dataset,
                         balance_substitute, generate_toy, influence_rank, invar_tg,
                         random_toy_spec, _cholesky_or_raise)

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
    """The one-shot sampler that drew each class's whole tensors and stacked the classes."""
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


class TestBlockedTestHalf:
    @settings(max_examples=40, deadline=None)
    @given(n_half=st.sampled_from([0, 1, 255, 256, 257, 2500]), odd=st.integers(0, 1),
           seed=st.integers(0, 2**32), dims=st.integers(1, 12), split=st.floats(0.0, 1.0),
           classes=st.integers(2, 3),
           variances=st.sampled_from([(0.1, 1.0), (-0.0, -0.0), (0.0, 0.0), (2.0, -0.0)]))
    @example(n_half=257, odd=0, seed=3, dims=20, split=0.5, classes=2, variances=(0.1, 1.0))
    @example(n_half=257, odd=1, seed=3, dims=20, split=1.0, classes=2, variances=(0.1, 1.0))
    @example(n_half=2500, odd=0, seed=0, dims=20, split=0.5, classes=2, variances=(-0.0, 0.0))
    def test_equals_the_one_shot_reference(self, n_half, odd, seed, dims, split, classes,
                                           variances):
        """Class row blocks and coupling blocks draw the same bytes as one whole
        draw per class, across block edges, the p == 0 branch and zero variances."""
        q = 1 + round(split * (dims - 1))  # q == dims is the p == 0 branch
        base = random_toy_spec(seed, dims=dims, task_correlated_dims=q, classes=classes,
                               per_class=max(1, 2 * n_half + odd))
        spec = replace(base, coupling_var=variances[0], residual_var=variances[1])
        data = synth._sample_test(spec)
        expected = reference_sample_test(spec)
        assert data.x.shape == expected.shape == (classes * n_half, dims)
        assert data.x.tobytes() == expected.tobytes()

    def test_peak_allocation_at_default_scale(self):
        """One class's coupling and residual tensors (2 MB each) are never alive
        together with the next class's: the one-shot sampler peaked at 7.06 MB."""
        spec = random_toy_spec(seed=0)
        assert traced_peak(synth._sample_test, spec) < 4_000_000


def label_copy_dataset(n=400, seed=0):
    """Three discrete variables: g0 copies the label, g1 is independent noise,
    g2 is weakly informative."""
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 2, n)
    g0 = y.copy()
    g1 = rng.integers(0, 4, n)
    g2 = np.where(rng.random(n) < 0.7, y, rng.integers(0, 2, n))
    specs = (VariableSpec.discrete(0, "g0", 2), VariableSpec.discrete(1, "g1", 4),
             VariableSpec.discrete(2, "g2", 2))
    return Dataset(specs, np.column_stack([g0, g1, g2]).astype(float), y, 2)


class TestInfluenceRank:
    def test_label_copy_ranks_first_with_zero_entropy(self):
        ds = label_copy_dataset()
        ranked = influence_rank(ds, [0, 1, 2])
        assert ranked[0][0] == 0
        assert ranked[0][1] == 0.0

    def test_independent_variable_ranks_last_near_label_entropy(self):
        ds = label_copy_dataset()
        ranked = influence_rank(ds, [0, 1, 2])
        table = build_table(ds, [1])
        assert ranked[-1][0] == 1
        assert abs(ranked[-1][1] - entropy(table, "labels")) < 0.02

    def test_ties_break_by_ascending_id(self):
        rng = np.random.default_rng(1)
        y = rng.integers(0, 2, 100)
        col = rng.integers(0, 2, 100)
        specs = (VariableSpec.discrete(0, "g0", 2), VariableSpec.discrete(1, "g1", 2))
        ds = Dataset(specs, np.column_stack([col, col]).astype(float), y, 2)
        ranked = influence_rank(ds, [1, 0])
        assert [r[0] for r in ranked] == [0, 1]
        assert ranked[0][1] == ranked[1][1]

    def test_empty_candidates_rejected(self):
        with pytest.raises(GvlabError):
            influence_rank(label_copy_dataset(), [])

    def test_generator_of_ids_ranks_every_candidate(self):
        ds = label_copy_dataset()
        assert influence_rank(ds, (j for j in [2, 0, 1])) == influence_rank(ds, [2, 0, 1])
        assert len(influence_rank(ds, iter([1, 1]))) == 2

    def test_labels_past_the_row_count_are_ranked(self):
        """Label codes past n (here k = 2**40) are counted on their ranks, with
        the same bits and no array as wide as k."""
        specs = (VariableSpec.discrete(0, "g0", 3), VariableSpec.continuous(1, "g1", 0.0, 1.0))
        values = np.array([[0, 0.1], [2, 0.5], [2, 0.9], [1, 0.2], [0, 0.3]])
        ds = Dataset(specs, values, np.array([2**40 - 1, 0, 2**40 - 1, 2**39, 0]), 2**40)
        assert_ranks_match_tables(ds, [0, 1, 0], BinningPolicy(4))


def per_candidate_rank(ds, ids, binning):
    """Reference: one table and one conditional entropy per candidate."""
    scored = [(j, conditional_entropy(build_table(ds, [j], binning), "labels", [j])) for j in ids]
    return sorted(scored, key=lambda pair: (pair[1], pair[0]))


def assert_ranks_match_tables(ds, ids, binning):
    """``influence_rank`` and the worker's helper equal the table references bit for bit."""
    expected = [(j, h.hex()) for j, h in per_candidate_rank(ds, ids, binning)]
    assert [(j, h.hex()) for j, h in influence_rank(ds, ids, binning)] == expected
    (h_cond, h_label), = synth._conditional_entropies(ds, ids, binning, ds.labels)
    assert h_label.hex() == entropy(build_table(ds, [], binning)).hex()
    assert [(j, h.hex()) for j, h in synth._ranked(ids, h_cond)] == expected


@st.composite
def influence_datasets(draw):
    """Discrete columns (small or huge cardinality) and continuous ones (values
    inside and outside their range), k in 2..4."""
    n = draw(st.integers(1, 40))
    specs, columns = [], []
    for j in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            card = draw(st.sampled_from([1, 2, 5, 2**40]))
            codes = st.sampled_from(sorted({0, card // 3, card - 1}))
            specs.append(VariableSpec.discrete(j, f"g{j}", card))
            columns.append([draw(codes) for _ in range(n)])
        else:
            lo, width = draw(st.floats(-5.0, 5.0)), draw(st.floats(1e-3, 5.0))
            specs.append(VariableSpec.continuous(j, f"g{j}", lo, lo + width))
            columns.append([draw(st.floats(lo - width, lo + 2 * width)) for _ in range(n)])
    k = draw(st.integers(2, 4))
    labels = [draw(st.integers(0, k - 1)) for _ in range(n)]
    return Dataset(tuple(specs), np.array(columns, dtype=float).T.reshape(n, -1),
                   np.array(labels), k)


@settings(max_examples=150, deadline=None)
@given(influence_datasets(), st.sampled_from([2, 3, 10, 2**40]), st.data())
def test_one_pass_matches_per_candidate_tables(ds, bins, data):
    """Every entropy equals ``conditional_entropy(build_table(...))`` bit for bit,
    with repeated ids and bin codes past the row count."""
    ids = data.draw(st.lists(st.integers(0, ds.m - 1), min_size=1, max_size=6))
    assert_ranks_match_tables(ds, ids, BinningPolicy(bins))


def narrow_dataset():
    spec = VariableSpec.continuous(0, "g0", 0.0, 5e-324)
    return Dataset((spec,), np.zeros((3, 1)), np.array([0, 1, 1]), 2)


@pytest.mark.parametrize("ds, ids", [
    (label_copy_dataset(), [0, 3]),
    (Dataset(label_copy_dataset().specs, np.zeros((0, 3)), np.zeros(0), 2), [0]),
    (narrow_dataset(), [0]),
])
def test_influence_errors_match_the_tables(ds, ids):
    """An unknown id, an empty dataset and a too-narrow range raise what building
    the candidates' tables raises."""
    with pytest.raises(GvlabError) as expected:
        per_candidate_rank(ds, ids, BinningPolicy())
    with pytest.raises(GvlabError) as err:
        influence_rank(ds, ids)
    assert (err.value.code, str(err.value)) == (expected.value.code, str(expected.value))


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


class TestInvarTG:
    trainer = TrainConfig(0.1, 0.9, 32, 10, seed=3)

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
        assert result.log[0].h_before <= LN2 / 2
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


    @pytest.mark.parametrize("candidates, duplicate", [([15, 10, 19, 3, 12], False),
                                                       ([19, 14, 4, 16], True)])
    def test_rounds_equal_full_width_tables_bit_for_bit(self, candidates, duplicate):
        """Each round equals the full-width reference, which ranks every
        candidate on a view of all columns and takes ``h_after`` from a
        table over that view, in every entropy; with column 19 a copy of
        column 4 the two tie, and the lower column id goes first."""
        data = generate_toy(random_toy_spec(seed=13, per_class=300)).train
        if duplicate:
            x = data.x.copy()
            x[:, 19] = x[:, 4]
            data = VectorDataset(x, data.y, data.k)
        config = InvarTGConfig(threshold=10.0, max_rounds=4)
        remaining, current, expected = list(candidates), data, []
        for round_index in range(config.max_rounds):
            full = as_variable_dataset(current, 10)
            chosen, h_before = influence_rank(full, remaining, config.binning)[0]
            current = balance_substitute(current, chosen,
                                         derive_seed(self.trainer.seed, 101, round_index, chosen))
            table = build_table(as_variable_dataset(current, 10), [chosen], config.binning)
            expected.append(RoundRecord(round_index, chosen, h_before,
                                        conditional_entropy(table, "labels", [chosen])))
            remaining.remove(chosen)
        result = invar_tg(data, candidates, config, self.trainer, task_correlated_dims=10)
        assert result.log == tuple(expected)
        assert result.balanced_ids == tuple(r.chosen_id for r in expected)
        if duplicate:
            assert expected[0].chosen_id == 4 and expected[1].chosen_id == 19
            assert expected[0].h_before == expected[1].h_before


def test_as_variable_dataset_marks_correlation_split():
    data = vectors_label_copy()
    ds = as_variable_dataset(data, task_correlated_dims=1)
    assert ds.specs[0].correlation == "task_correlated"
    assert ds.specs[1].correlation == "task_uncorrelated"
    table = build_table(ds, [1], BinningPolicy(10))
    assert conditional_entropy(table, "labels", [1]) < 0.05


def test_as_variable_dataset_of_some_columns_bins_them_as_the_full_view():
    """A view of some columns holds them as variables 0.. in their order,
    with the full view's ranges, names and correlation marks, so their
    conditional entropies of the labels and of any other target are
    bit-identical."""
    data = generate_toy(random_toy_spec(seed=13, per_class=300)).train
    columns = (15, 10, 19, 3)
    full = as_variable_dataset(data, task_correlated_dims=10)
    part = as_variable_dataset(data, 10, columns)
    assert [replace(spec, var_id=j) for spec, j in zip(part.specs, columns, strict=True)] == \
        [full.specs[j] for j in columns]
    assert [spec.var_id for spec in part.specs] == [0, 1, 2, 3]
    assert part.values.tobytes() == np.ascontiguousarray(full.values[:, columns]).tobytes()
    other = (data.x[:, 0] > 0).astype(np.int64)
    binning = BinningPolicy(10)
    assert synth._conditional_entropies(part, range(4), binning, data.y, other) == \
        synth._conditional_entropies(full, columns, binning, data.y, other)


def test_as_variable_dataset_of_some_columns_holds_one_copy_of_them():
    """A view of 10 columns of 5 000 rows traces at most one copy of them
    (400 000 bytes) and a quarter more for its specs: no second,
    column-major copy on the way to the ``Dataset``."""
    data = generate_toy(random_toy_spec(seed=2)).train
    columns = tuple(range(10, 20))
    assert (data.n, len(columns)) == (5000, 10)
    copy_bytes = data.n * len(columns) * 8
    assert traced_peak(as_variable_dataset, data, 10, columns) <= 1.25 * copy_bytes


@pytest.mark.parametrize("columns", [(20,), (-1,), (1.5,), (True,), (3, 20)])
def test_as_variable_dataset_rejects_a_column_outside_the_data(columns):
    data = generate_toy(random_toy_spec(seed=13, per_class=30)).train
    with pytest.raises(GvlabError) as err:
        as_variable_dataset(data, 10, columns)
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


def test_toy_data_exports_through_dataset_csv(tmp_path):
    """Generated toy data round-trips through the shared CSV format."""
    from gvlab.core import read_dataset_csv, write_dataset_csv
    data = generate_toy(random_toy_spec(seed=13, per_class=60))
    ds = as_variable_dataset(data.train, task_correlated_dims=10)
    path = tmp_path / "toy.csv"
    write_dataset_csv(ds, str(path))
    back = read_dataset_csv(str(path), ds.specs, ds.k)
    np.testing.assert_array_equal(back.values, ds.values)
    table = build_table(ds, [10, 15])
    assert build_table(back, [10, 15]) == table
