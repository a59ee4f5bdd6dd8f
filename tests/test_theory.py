import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gvlab import theory
from gvlab.core import ExemplarTable, _run_heads, rows_csv
from gvlab.errors import GvlabError
from gvlab.experiments import (_cell_table, _invariance_tables, _prefix_table,
                               check_optimal_outputs, theory_check_run)
from gvlab.theory import (GAP_TOL, INVARIANCE_TOL, BoundReport, InvarianceReport,
                          OptimalOutputs, addition_rule,
                          check_strict_invariance, estimated_training_error,
                          excess_risk_bound, gap_bound, max_prob_lower_bound,
                          optimal_outputs, pgd_conditionals)

from dict_tables import marginal, reference_marginal
from dict_tables import table_from_dict as table_from_counts
from memory import traced_peak
from theory_loops import (argmax_zero_one_error, label_copy_counts, numeric_optimal_outputs,
                          product_counts, random_counts, reduceat_label_counts,
                          row_any_run_heads, row_reduce_pgd_conditionals, single_argmax_error,
                          single_strict_invariance, single_training_error,
                          unique_rows_strict_invariance)

LN2 = math.log(2.0)


class TestGapBound:
    def test_hand_computed_values(self):
        assert gap_bound(2, 2, 1000, 0.05) == pytest.approx(0.107409, abs=1e-6)
        assert gap_bound(1, 2, 100, 0.1) == pytest.approx(0.2716203031481239, abs=1e-12)
        assert gap_bound(4, 3, 5000, 0.01) == pytest.approx(0.07189697171010037, abs=1e-12)

    def test_delta_near_one_limit(self):
        limit = math.sqrt(2 * 3 * 2 * LN2 / 500)
        assert gap_bound(3, 2, 500, 1 - 1e-12) == pytest.approx(limit, abs=1e-9)

    def test_quadrupling_n_halves_the_bound(self):
        assert gap_bound(2, 2, 4000, 0.05) == pytest.approx(
            gap_bound(2, 2, 1000, 0.05) / 2, abs=1e-15)

    @pytest.mark.parametrize("delta", [0.0, 1.0, -0.3, 2.0])
    def test_bad_delta(self, delta):
        with pytest.raises(GvlabError) as err:
            gap_bound(2, 2, 100, delta)
        assert err.value.code == "bad-delta"

    def test_bad_n(self):
        with pytest.raises(GvlabError) as err:
            gap_bound(2, 2, 0, 0.05)
        assert err.value.code == "bad-n"

    def test_delta_with_infinite_reciprocal_rejected(self):
        assert math.isfinite(gap_bound(2, 2, 100, 1e-300))
        with pytest.raises(GvlabError) as err:
            gap_bound(2, 2, 100, 5e-324)
        assert err.value.code == "bad-delta"

    @pytest.mark.parametrize("t, k, n", [(10**200, 10**200, 1), (2, 2, 10**400),
                                         (17 * 10**307, 1, 1)],
                             ids=["huge-t-times-k", "huge-n", "float-overflow"])
    def test_bound_past_the_float_range_rejected(self, t, k, n):
        with pytest.raises(GvlabError) as err:
            gap_bound(t, k, n, 0.05)
        assert err.value.code == "bad-variable"

    def test_monotonicity(self):
        assert gap_bound(3, 2, 100, 0.05) > gap_bound(2, 2, 100, 0.05)
        assert gap_bound(2, 3, 100, 0.05) > gap_bound(2, 2, 100, 0.05)
        assert gap_bound(2, 2, 200, 0.05) < gap_bound(2, 2, 100, 0.05)
        assert gap_bound(2, 2, 100, 0.10) < gap_bound(2, 2, 100, 0.05)

    @pytest.mark.parametrize("axes", [
        ((1, 2, 3, 4, 5), (1, 2, 3, 4, 5), (100, 200, 400, 800, 1600), (0.01, 0.05, 0.1, 0.2, 0.4)),
        ((7, 1000), (3,), (1, 99_999, 2**40), (1e-300, 0.3333, 1 - 1e-12)),
        ((2**61, 3), (2**61 + 1,), (2**64 + 2**11 + 1,), (0.5,)),
    ], ids=["check-grid", "edges", "past-int64"])
    def test_grid_equals_the_scalar_calls(self, axes):
        """One evaluation of the closed form over the grid, with the delta logs
        taken by ``math.log``, gives each scalar call's bits."""
        ts, ks, ns, deltas = axes
        expected = [[[[gap_bound(t, k, n, d) for d in deltas] for n in ns] for k in ks]
                    for t in ts]
        grid = theory.gap_bound_grid(ts, ks, ns, deltas)
        assert grid.shape == tuple(map(len, axes))
        assert grid.tobytes() == np.array(expected).tobytes()

    @pytest.mark.parametrize("axes, code", [
        (((1, 2), (2,), (100,), (0.05, 1.0)), "bad-delta"),
        (((1, 2), (2,), (100, 0), (0.05,)), "bad-n"),
        (((0, 2), (2,), (100,), (0.05,)), "bad-variable"),
        (((1,), (2,), (100,), (5e-324,)), "bad-delta"),
        (((10**200,), (10**200,), (1,), (0.05,)), "bad-variable"),
        (((2,), (2,), (1, 10**400), (0.05,)), "bad-variable"),
        (((17 * 10**307,), (1,), (1,), (0.05,)), "bad-variable"),
    ], ids=["delta", "n", "t", "delta-reciprocal", "huge-t-times-k", "huge-n", "float-overflow"])
    def test_grid_rejects_what_the_scalar_rejects(self, axes, code):
        with pytest.raises(GvlabError) as err:
            theory.gap_bound_grid(*axes)
        assert err.value.code == code


class TestExcessRiskBound:
    def test_zero_dependence_reduces_to_twice_the_gap(self):
        assert excess_risk_bound(2, 2, 1000, 0.05, 0.0) == pytest.approx(
            2 * gap_bound(2, 2, 1000, 0.05), abs=1e-15)

    def test_ln2_dependence_adds_exactly_one(self):
        base = 2 * gap_bound(3, 4, 2000, 0.1)
        assert excess_risk_bound(3, 4, 2000, 0.1, LN2) == pytest.approx(base + 1.0, abs=1e-12)

    def test_hand_computed_composition(self):
        assert excess_risk_bound(2, 2, 1000, 0.05, 0.1) == pytest.approx(0.359088, abs=1e-5)

    def test_negative_dependence_rejected(self):
        with pytest.raises(GvlabError) as err:
            excess_risk_bound(2, 2, 1000, 0.05, -0.1)
        assert err.value.code == "bad-gamma"

    @pytest.mark.parametrize("gamma", [math.nan, math.inf, -math.inf, 1.7e308])
    def test_non_finite_dependence_rejected(self, gamma):
        with pytest.raises(GvlabError) as err:
            excess_risk_bound(2, 2, 1000, 0.05, gamma)
        assert err.value.code == "bad-gamma"


class TestMaxProbLowerBound:
    def test_zero_entropy_forces_point_mass(self):
        assert max_prob_lower_bound(0.0) == 1.0

    def test_upper_boundary(self):
        assert max_prob_lower_bound(2 * LN2) == 0.0
        assert max_prob_lower_bound(3.0) == 0.0  # clamped below the boundary

    def test_tight_at_binary_uniform(self):
        assert max_prob_lower_bound(LN2) == pytest.approx(0.5, abs=1e-15)


class TestOptimalOutputs:
    def test_conditional_distribution(self):
        table = table_from_counts({((0,), 0): 3, ((0,), 1): 1}, (1,), 2)
        opt = optimal_outputs(table, [0])
        np.testing.assert_array_equal(opt.configs, [[0]])
        np.testing.assert_allclose(opt.probs, [[0.75, 0.25]], atol=1e-15)

    def test_matches_numeric_minimizer(self):
        table = table_from_counts(
            {((0,), 0): 3, ((0,), 1): 1, ((1,), 1): 2, ((1,), 2): 5}, (2,), 3)
        opt = optimal_outputs(table, [0])
        numeric = numeric_optimal_outputs(table, [0])
        assert np.array_equal(numeric.configs, opt.configs)
        tv = 0.5 * np.abs(numeric.probs - opt.probs).sum(axis=1)
        assert tv.shape == (2,) and (tv <= 1e-4).all()

    def test_deterministic_table_gives_one_hot(self):
        table = table_from_counts({((0,), 1): 4, ((1,), 0): 4}, (2,), 2)
        opt = optimal_outputs(table, [0])
        np.testing.assert_array_equal(opt.configs, [[0], [1]])
        np.testing.assert_array_equal(opt.probs, [[0.0, 1.0], [1.0, 0.0]])

    def test_uniform_labels_give_uniform_vector(self):
        table = table_from_counts({((0,), y): 2 for y in range(4)}, (1,), 4)
        opt = optimal_outputs(table, [0])
        np.testing.assert_allclose(opt.probs, np.full((1, 4), 0.25), atol=1e-15)

    def test_empty_table_rejected(self):
        empty = ExemplarTable((0,), (2,), np.zeros((0, 2), dtype=np.int64),
                              np.zeros(0, dtype=np.int64), 2)
        no_outputs = OptimalOutputs((0,), np.zeros((0, 1), dtype=np.int64), np.zeros((0, 2)), 2)
        for call in (lambda: optimal_outputs(empty, [0]),
                     lambda: numeric_optimal_outputs(empty, [0]),
                     lambda: estimated_training_error(no_outputs, empty)):
            with pytest.raises(GvlabError) as err:
                call()
            assert err.value.code == "empty-table"

    def test_zero_count_configurations_absent(self):
        table = table_from_counts({((0,), 0): 2}, (3,), 2)
        opt = optimal_outputs(table, [0])
        np.testing.assert_array_equal(opt.configs, [[0]])
        assert opt.probs.shape == (1, 2)

    @pytest.mark.parametrize("configs, probs", [
        pytest.param([[0], [1]], [[0.5, 0.5], [0.5, 0.25, 0.25]], id="wrong-shape"),
        pytest.param([[0], [1]], [[0.5, 0.5], [1.25, -0.25]], id="negative-entry"),
        pytest.param([[0], [1]], [[0.5, 0.5], [0.5, 0.5 + 2e-12]], id="row-sum-off"),
        pytest.param([[0], [1]], [[0.5, 0.5], [np.nan, np.nan]], id="nan-row"),
        pytest.param([[0], [1]], [[0.5, 0.5]], id="configs-vs-probs"),
        pytest.param([[0, 0], [1, 0]], [[0.5, 0.5], [0.5, 0.5]], id="configs-vs-ids"),
        pytest.param([0, 1], [[0.5, 0.5], [0.5, 0.5]], id="one-dimensional-configs"),
        pytest.param([[0], [1]], [0.5, 0.5], id="one-dimensional-probs"),
        pytest.param([[0.5], [1]], [[0.5, 0.5], [0.5, 0.5]], id="fractional-config"),
    ])
    def test_public_constructor_rejects_non_distributions(self, configs, probs):
        with pytest.raises(GvlabError) as err:
            OptimalOutputs((0,), configs, probs, 2)
        assert err.value.code == "bad-variable"

    @pytest.mark.parametrize("configs", [
        pytest.param([[1], [0]], id="unsorted"),
        pytest.param([[0], [0]], id="duplicate"),
        pytest.param([[0, 1], [0, 0]], id="unsorted-last-column"),
        pytest.param(np.zeros((2, 0), dtype=np.int64), id="two-empty-configurations"),
    ])
    def test_public_constructor_rejects_duplicate_and_unsorted_configs(self, configs):
        ids = tuple(range(np.shape(configs)[1]))
        with pytest.raises(GvlabError) as err:
            OptimalOutputs(ids, configs, [[0.5, 0.5], [0.25, 0.75]], 2)
        assert err.value.code == "bad-variable"

    def test_public_constructor_accepts_no_variables(self):
        table = table_from_counts({((0,), 0): 3, ((1,), 1): 1}, (2,), 2)
        opt = OptimalOutputs((), np.zeros((1, 0), dtype=np.int64), [[0.75, 0.25]], 2)
        assert opt.configs.shape == (1, 0)
        assert opt == optimal_outputs(table, [])
        assert estimated_training_error(opt, table) == 0.25

    def test_public_constructor_accepts_rounding_within_tolerance(self):
        opt = OptimalOutputs((0,), [[0]], [[0.5, 0.5 + 5e-13]], 2)
        assert not opt.probs.flags.writeable
        assert not opt.configs.flags.writeable

    def test_public_constructor_leaves_caller_arrays_writable(self):
        configs, probs = np.array([[0]]), np.array([[0.25, 0.75]])
        opt = OptimalOutputs((0,), configs, probs, 2)
        assert configs.flags.writeable and probs.flags.writeable
        configs[0, 0], probs[0, 0] = 1, 1.0
        np.testing.assert_array_equal(opt.configs, [[0]])
        np.testing.assert_array_equal(opt.probs, [[0.25, 0.75]])

    def test_equality_is_field_by_field(self):
        table = table_from_counts({((0,), 0): 3, ((0,), 1): 1, ((1,), 1): 2}, (2,), 2)
        opt = optimal_outputs(table, [0])
        same = OptimalOutputs((0,), [[0], [1]], [[0.75, 0.25], [0.0, 1.0]], 2)
        assert opt == same and not opt != same
        assert opt != OptimalOutputs((0,), [[0], [1]], [[0.5, 0.5], [0.0, 1.0]], 2)
        assert opt != OptimalOutputs((1,), [[0], [1]], [[0.75, 0.25], [0.0, 1.0]], 2)
        assert opt != OptimalOutputs((0,), [[0]], [[0.75, 0.25]], 2)
        assert opt != table


def keep_ids(ids):
    """Strategy: an ordered subset of ``ids``, possibly empty."""
    return st.permutations(ids).flatmap(
        lambda perm: st.integers(0, len(perm)).map(lambda size: tuple(perm[:size])))


def reference_optimal_outputs(table, ids):
    """Per-configuration ``vec / vec.sum()`` over the dict of counts, in
    lexicographic order of the configurations."""
    vectors = {}
    for (config, label), count in sorted(reference_marginal(table, ids).items()):
        vectors.setdefault(config, np.zeros(table.k))[label] += count
    return {config: vec / vec.sum() for config, vec in vectors.items()}


class TestDerivedObjects:
    """``optimal_outputs`` skips the public constructor's checks; what it
    builds must equal what the checked path builds."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.data())
    def test_match_the_checked_construction(self, seed, data):
        table = _cell_table(random_counts(np.random.default_rng(seed)))
        keep = data.draw(keep_ids(table.variable_ids))
        opt = optimal_outputs(table, keep)
        expected = reference_optimal_outputs(table, keep)
        assert (opt.variable_ids, opt.k) == (keep, table.k)
        assert opt.configs.shape == (len(expected), len(keep))
        assert opt.probs.shape == (len(expected), table.k)
        assert (opt.configs.dtype, opt.probs.dtype) == (np.int64, np.float64)
        assert list(map(tuple, opt.configs.tolist())) == list(expected)
        for vec, reference in zip(opt.probs, expected.values()):
            assert vec.tobytes() == reference.tobytes()
        for array in (opt.configs, opt.probs):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0
        assert opt == OptimalOutputs(keep, opt.configs, opt.probs, table.k)


class TestEstimatedTrainingError:
    def test_hand_computed_error(self):
        counts = {((0,), 0): 3, ((0,), 1): 1, ((1,), 0): 1, ((1,), 1): 1}
        table = table_from_counts(counts, (2,), 2)
        opt = optimal_outputs(table, [0])
        # argmax predictor: 1 mistake on config 0 (of 4), 1 on config 1 (of 2)
        assert estimated_training_error(opt, table) == pytest.approx(1 / 3, abs=1e-12)

    def test_deterministic_table_has_zero_error(self):
        table = table_from_counts({((0,), 1): 4, ((1,), 0): 4}, (2,), 2)
        assert estimated_training_error(optimal_outputs(table, [0]), table) == 0.0

    def test_uniform_binary_single_configuration(self):
        table = table_from_counts({((0,), 0): 5, ((0,), 1): 5}, (1,), 2)
        assert estimated_training_error(optimal_outputs(table, [0]), table) == \
            pytest.approx(0.5, abs=1e-15)

    def test_mismatched_tables_rejected(self):
        table = table_from_counts({((0,), 0): 2}, (2,), 2)
        other = table_from_counts({((1,), 0): 2}, (2,), 2)
        opt = optimal_outputs(table, [0])
        with pytest.raises(GvlabError) as err:
            estimated_training_error(opt, other)
        assert err.value.code == "table-mismatch"


def reference_max_deviation(table, determining_ids, invariant_ids):
    """Worst within-group total variation by a Python double loop over output pairs."""
    det, inv = tuple(determining_ids), set(invariant_ids)
    opt = optimal_outputs(table, det)
    kept = [i for i, var_id in enumerate(det) if var_id not in inv]
    groups = {}
    for config, vec in zip(opt.configs.tolist(), opt.probs):
        groups.setdefault(tuple(config[i] for i in kept), []).append(vec)
    worst = 0.0
    for vectors in groups.values():
        for i in range(len(vectors)):
            for j in range(i + 1, len(vectors)):
                worst = max(worst, 0.5 * float(np.abs(vectors[i] - vectors[j]).sum()))
    return worst


class TestStrictInvariance:
    def test_product_table_is_invariant(self):
        counts = {}
        for gt in range(2):
            for gc in range(2):
                for y in range(2):
                    counts[((gt, gc), y)] = (gt + 1) * (2 * gc + y + 1)
        table = table_from_counts(counts, (2, 2), 2)
        report = check_strict_invariance(table, [0, 1], [0])
        assert report.is_invariant
        assert report.max_deviation <= 1e-12

    def test_label_copy_is_not_invariant(self):
        counts = {((gt, gc), gt): 2 for gt in range(2) for gc in range(2)}
        table = table_from_counts(counts, (2, 2), 2)
        report = check_strict_invariance(table, [0, 1], [0])
        assert not report.is_invariant
        assert report.max_deviation == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("make", [
        lambda rng: _cell_table(product_counts(rng)),
        lambda rng: _cell_table(label_copy_counts(rng)),
        lambda rng: _cell_table(random_counts(rng))], ids=["product", "dependent", "random"])
    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), data=st.data())
    def test_stacked_deviation_equals_the_double_loop(self, make, seed, data):
        table = make(np.random.default_rng(seed))
        det = data.draw(keep_ids(table.variable_ids))
        inv = data.draw(st.lists(st.sampled_from(det), unique=True)) if det else []
        report = check_strict_invariance(table, det, inv)
        worst = reference_max_deviation(table, det, inv)
        assert report.max_deviation.hex() == worst.hex()
        assert report.is_invariant == (worst <= INVARIANCE_TOL)

    def test_groups_of_one_have_no_deviation(self):
        counts = {((0, 0), 0): 3, ((1, 1), 1): 2}  # one configuration per value of variable 1
        table = table_from_counts(counts, (2, 2), 2)
        for inv in ([], [0]):
            assert reference_max_deviation(table, [0, 1], inv) == 0.0
            report = check_strict_invariance(table, [0, 1], inv)
            assert report.is_invariant and report.max_deviation == 0.0

    def test_invariant_ids_must_be_subset(self):
        table = table_from_counts({((0, 0), 0): 1}, (2, 2), 2)
        with pytest.raises(GvlabError) as err:
            check_strict_invariance(table, [0], [1])
        assert err.value.code == "bad-variable"


def stack_of(tables_cells, axis_sizes, k):
    """Checked table of several tables' ``(config..., label)`` cells, each
    behind its index in the list; the counts follow the cells."""
    cells = np.concatenate([np.column_stack([np.full(len(c), t), c])
                            for t, (c, _) in enumerate(tables_cells)])
    counts = np.concatenate([n for _, n in tables_cells])
    return ExemplarTable(tuple(range(cells.shape[1] - 1)), (len(tables_cells),) + axis_sizes,
                         cells, counts, k)


def prefix_rest_cells(table, prefix):
    """A table's cells as (prefix code, rest code, label): C order over its
    first ``prefix`` variables and over the others."""
    shape, cells = table.axis_sizes, table.cells
    rest = (np.ravel_multi_index(cells[:, prefix:-1].T, shape[prefix:])
            if prefix < len(shape) else np.zeros(len(cells), dtype=np.int64))
    return np.column_stack([np.ravel_multi_index(cells[:, :prefix].T, shape[:prefix]),
                            rest, cells[:, -1]]), table.counts


def one_cell_table():
    return ExemplarTable((0,), (3,), [[2, 1]], [5], 2)


def eight_configuration_table(rng):
    """A (2, 2, 2) table with every configuration and label observed."""
    dense = rng.integers(1, 17, size=(2, 2, 2, 4))
    cells = np.array(np.nonzero(dense)).T
    return ExemplarTable((0, 1, 2), (2, 2, 2), cells, dense[tuple(cells.T)], 4)


def two_variable_table(rng):
    """A random table over two variables, sparse enough to miss configurations."""
    shape = tuple(int(v) for v in rng.integers(1, 5, size=2)) + (int(rng.integers(1, 5)),)
    dense = rng.integers(0, 2, size=shape) * rng.integers(1, 9, size=shape)
    cells = np.array(np.nonzero(dense)).T
    if not len(cells):
        return one_cell_table_2d()
    return ExemplarTable((0, 1), shape[:2], cells, dense[tuple(cells.T)], shape[2])


def one_cell_table_2d():
    return ExemplarTable((0, 1), (2, 3), [[1, 2, 0]], [4], 1)


def skewed_table(width):
    """Variable 0 at 0 seen with ``width`` values of variable 1, each other
    value of variable 0 with one: one wide set beside ``width - 1`` single ones."""
    cells = [[0, b, b % 2] for b in range(width)] + [[a, 0, 0] for a in range(1, width)]
    return ExemplarTable((0, 1), (width, width), cells, np.ones(len(cells), dtype=np.int64), 2)


class TestGroupedForms:
    """A stack of tables, each behind its index, gives per group exactly what
    the single-table calls give on each table, and those equal the
    single-table closed forms as they were before the grouped forms
    (``tests/theory_loops.py``).  The stacks hold absent configurations,
    labels padded to 4, a one-cell table and a group of 8 configurations."""

    @settings(max_examples=60, deadline=None)
    @given(seeds=st.lists(st.integers(0, 2 ** 32 - 1), max_size=8), data=st.data())
    def test_training_error_groups_equal_single_tables(self, seeds, data):
        entries = [(one_cell_table(), 1),
                   (eight_configuration_table(np.random.default_rng(len(seeds))), 3)]
        for seed in seeds:
            rng = np.random.default_rng(seed)
            table = _cell_table(random_counts(rng, data.draw(st.sampled_from([1, 16]))))
            entries.append((table, data.draw(st.integers(1, len(table.variable_ids)))))
        entries = data.draw(st.permutations(entries))
        stack = stack_of([prefix_rest_cells(t, p) for t, p in entries], (8, 8), 4)
        opt = optimal_outputs(stack, (0, 1))
        estimates = estimated_training_error(opt, stack, grouped=True)
        exact = argmax_zero_one_error(stack, (0, 1))
        assert len(estimates) == len(exact) == len(entries)
        assert any(len(opt.configs[opt.configs[:, 0] == g]) == 8 for g in range(len(entries)))
        for g, (table, prefix) in enumerate(entries):
            ids = table.variable_ids[:prefix]
            single = optimal_outputs(table, ids)
            rows = opt.configs[:, 0] == g
            codes = np.ravel_multi_index(single.configs.T, table.axis_sizes[:prefix])
            assert opt.configs[rows, 1].tolist() == codes.tolist()
            assert opt.probs[rows, :table.k].tobytes() == single.probs.tobytes()
            assert not opt.probs[rows, table.k:].any()
            estimate = estimated_training_error(single, table)
            assert type(estimate) is float
            assert estimates[g].hex() == estimate.hex() == single_training_error(single, table).hex()
            assert exact[g] == single_argmax_error(table, ids)

    @settings(max_examples=60, deadline=None)
    @given(seeds=st.lists(st.tuples(st.sampled_from(["product", "dependent", "sparse"]),
                                    st.integers(0, 2 ** 32 - 1)), max_size=8),
           data=st.data())
    def test_strict_invariance_groups_equal_single_tables(self, seeds, data):
        make = {"product": lambda rng: _cell_table(product_counts(rng)),
                "dependent": lambda rng: _cell_table(label_copy_counts(rng)),
                "sparse": two_variable_table}
        tables = [one_cell_table_2d()] + [make[kind](np.random.default_rng(seed))
                                          for kind, seed in seeds]
        tables = data.draw(st.permutations(tables))
        det = data.draw(keep_ids((0, 1)))
        inv = data.draw(st.lists(st.sampled_from(det), unique=True)) if det else []
        stack = stack_of([(t.cells, t.counts) for t in tables], (4, 4), 4)
        reports = check_strict_invariance(stack, (0,) + tuple(v + 1 for v in det),
                                          [v + 1 for v in inv], grouped=True)
        assert len(reports) == len(tables)
        for report, table in zip(reports, tables):
            single = check_strict_invariance(table, det, inv)
            assert report == single == single_strict_invariance(table, det, inv)
            assert report.max_deviation.hex() == single.max_deviation.hex()

    def test_a_group_of_one_is_the_single_table_call(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            table = _cell_table(random_counts(rng))
            stack = stack_of([prefix_rest_cells(table, len(table.variable_ids))], (8, 1), 4)
            estimate = estimated_training_error(optimal_outputs(stack, (0, 1)), stack,
                                                grouped=True)
            single = optimal_outputs(table, table.variable_ids)
            assert estimate.tolist() == [single_training_error(single, table)]
            assert argmax_zero_one_error(stack, (0, 1)) == (
                single_argmax_error(table, table.variable_ids),)
            pair = _cell_table(product_counts(rng))
            (report,) = check_strict_invariance(stack_of([(pair.cells, pair.counts)], (4, 4), 4),
                                                (0, 1, 2), (1,), grouped=True)
            assert report == single_strict_invariance(pair, (0, 1), (0,))

    @pytest.mark.parametrize("grouped", [False, True])
    def test_terms_add_in_configuration_order(self, grouped):
        """From 8 terms on numpy's sum pairs the additions.  Optimal outputs
        make each ``n * max q`` a near-integer whose sum no order changes, so
        these outputs are Dirichlet rows: the error of any outputs must still
        add its terms in configuration order."""
        rng = np.random.default_rng(11)
        reordered = 0
        for _ in range(20):
            dense = rng.integers(1, 50, size=(3, 11, 3))  # 3 groups of 11 configurations
            cells = np.array(np.nonzero(dense)).T
            table = ExemplarTable((0, 1), (3, 11), cells, dense[tuple(cells.T)], 3)
            configs = optimal_outputs(table, (0, 1)).configs
            opt = OptimalOutputs((0, 1), configs, rng.dirichlet(np.ones(3), size=33), 3)
            if grouped:
                got = estimated_training_error(opt, table, grouped=True).tolist()
                expected = []
                for g in range(3):
                    rows, in_g = configs[:, 0] == g, cells[:, 0] == g
                    alone = ExemplarTable((0,), (11,), cells[in_g, 1:], table.counts[in_g], 3)
                    expected.append(single_training_error(
                        OptimalOutputs((0,), configs[rows, 1:], opt.probs[rows], 3), alone))
            else:
                got = [estimated_training_error(opt, table)]
                expected = [single_training_error(opt, table)]
            assert [v.hex() for v in got] == [v.hex() for v in expected]
            terms = dense.sum(axis=2) * opt.probs.max(axis=1).reshape(3, 11)
            reordered += (terms.sum(axis=1) != [sum(row) for row in terms.tolist()]).any()
        assert reordered  # the cases tell the two orders apart

    def test_skewed_sets_are_not_padded_to_the_widest(self):
        """Sets padded to the widest would take about 128 MB for the
        invariance spread (200 sets of 200 slots, squared) and 72 MB for the
        training-error terms (3000 groups of 3000 slots)."""
        table = skewed_table(200)
        assert traced_peak(check_strict_invariance, table, (0, 1), (1,)) < 8_000_000
        report = check_strict_invariance(table, (0, 1), (1,))
        assert report == single_strict_invariance(table, (0, 1), (1,))
        assert report.max_deviation == 1.0 and not report.is_invariant
        wide = skewed_table(3000)
        opt = optimal_outputs(wide, (0, 1))
        assert traced_peak(estimated_training_error, opt, wide, True) < 4_000_000
        assert estimated_training_error(opt, wide, grouped=True).tolist() == [0.0] * 3000

    @pytest.mark.parametrize("call", [
        lambda t: check_strict_invariance(t, (0, 1), (0,), grouped=True),
        lambda t: check_strict_invariance(t, (), (), grouped=True),
        lambda t: estimated_training_error(optimal_outputs(t, ()), t, grouped=True),
    ], ids=["invariant-group-variable", "no-variables", "no-output-variables"])
    def test_grouping_needs_a_kept_leading_variable(self, call):
        with pytest.raises(GvlabError) as err:
            call(one_cell_table_2d())
        assert err.value.code == "bad-variable"


class TestAdditionRule:
    def test_task_determined_prediction(self):
        counts = {((g0, g1), g0): 3 for g0 in range(2) for g1 in range(2)}
        table = table_from_counts(counts, (2, 2), 2)
        result = addition_rule(table, [0], [1])
        assert result.influence_sum == pytest.approx(0.0, abs=1e-12)
        assert result.entropy_given_task == pytest.approx(0.0, abs=1e-12)

    def test_prediction_copies_single_nuisance_variable(self):
        counts = {((g0, g1), g1): 1 for g0 in range(1) for g1 in range(2)}
        table = table_from_counts(counts, (1, 2), 2)
        result = addition_rule(table, [0], [1])
        assert result.influence_sum == pytest.approx(LN2, abs=1e-12)
        assert result.entropy_given_task == pytest.approx(LN2, abs=1e-12)

    def test_parity_prediction_shows_synergy(self):
        """A prediction equal to the parity of two nuisance variables carries
        entropy that no single-variable information term sees."""
        counts = {((g0, g1, g2), g1 ^ g2): 1
                  for g0 in range(2) for g1 in range(2) for g2 in range(2)}
        table = table_from_counts(counts, (2, 2, 2), 2)
        result = addition_rule(table, [0], [1, 2])
        assert result.influence_sum == pytest.approx(0.0, abs=1e-12)
        assert result.entropy_given_task == pytest.approx(LN2, abs=1e-12)

    def test_nondeterministic_predictions_rejected(self):
        counts = {((0, 0), 0): 1, ((0, 0), 1): 1}
        table = table_from_counts(counts, (2, 2), 2)
        with pytest.raises(GvlabError) as err:
            addition_rule(table, [0], [1])
        assert err.value.code == "not-a-hypothesis"

    def test_partition_must_cover_table(self):
        counts = {((0, 0), 0): 1}
        table = table_from_counts(counts, (2, 2), 2)
        with pytest.raises(GvlabError):
            addition_rule(table, [0], [])
        with pytest.raises(GvlabError) as err:
            addition_rule(table, [0, 1], [1])
        assert err.value.code == "overlapping-variables"


class TestSimplexProjection:
    def test_pgd_recovers_targets_with_zeros_and_small_mass(self):
        q = np.array([[0.5, 0.5, 0.0], [1 / 64, 63 / 64, 0.0], [0.2, 0.3, 0.5]])
        psi = pgd_conditionals(q)
        assert 0.5 * np.abs(psi - q).sum(axis=1).max() <= 1e-6


class TestOracleCertificate:
    def test_returned_iterate_carries_the_certificate(self):
        """Rows like the theory-check tables: label counts up to 16, some zero."""
        rng = np.random.default_rng(4)
        counts = rng.integers(0, 17, size=(60, 4))
        counts[counts.sum(axis=1) == 0, 0] = 1
        q = counts / counts.sum(axis=1, keepdims=True)
        psi = pgd_conditionals(q)
        gap = np.where(q > 0.0, q / np.maximum(psi, 1e-300), 0.0).max() - 1.0
        assert gap <= GAP_TOL
        assert 0.5 * np.abs(psi - q).sum(axis=1).max() <= math.sqrt(GAP_TOL / 2)

    def test_cap_reached_before_the_certificate_raises(self):
        q = np.array([[0.2, 0.3, 0.5], [0.9, 0.1, 0.0]])
        with pytest.raises(GvlabError) as err:
            pgd_conditionals(q, iterations=5)
        assert err.value.code == "not-converged"

    def test_uniform_target_stops_at_the_start(self):
        q = np.full((3, 4), 0.25)
        assert np.array_equal(pgd_conditionals(q, iterations=1), q)

    def test_zero_padded_mixed_label_counts_meet_the_certificate(self):
        """2-, 3- and 4-label rows padded to width 4, as theory-check stacks them."""
        rng = np.random.default_rng(9)
        rows = []
        for k in (2, 3, 4) * 20:
            counts = rng.integers(0, 17, size=k)
            counts[0] += counts.sum() == 0
            rows.append(np.pad(counts / counts.sum(), (0, 4 - k)))
        q = np.array(rows)
        psi = pgd_conditionals(q)
        gap = np.where(q > 0.0, q / np.maximum(psi, 1e-300), 0.0).max(axis=1) - 1.0
        assert (gap <= GAP_TOL).all()
        for row, k in zip(psi, (2, 3, 4) * 20):
            assert (row[k:] == 0.0).all()

    def test_theory_check_runs_the_oracle_once(self, monkeypatch):
        """One closed-form call on the stack of every table, one oracle run."""
        calls, closed = [], []

        def counting(q, *args, **kwargs):
            calls.append(q.shape)
            return pgd_conditionals(q, *args, **kwargs)

        def counting_closed(*args):
            closed.append(args[1])
            return optimal_outputs(*args)

        monkeypatch.setattr(theory, "pgd_conditionals", counting)
        monkeypatch.setattr(theory, "optimal_outputs", counting_closed)
        result = check_optimal_outputs(np.random.default_rng(3), 40)
        assert result.passed
        assert len(calls) == 1 and calls[0][1] == 4
        assert closed == [(0, 1)]

    def test_corrupted_closed_form_still_fails(self):
        results = {r.name: r for r in theory_check_run(seed=0, tables=20)}
        corrupted = {r.name: r for r in theory_check_run(
            seed=0, corrupt="optimal-outputs-closed-form", tables=20)}
        assert results["optimal-outputs-closed-form"].passed
        assert results["optimal-outputs-closed-form"].max_deviation <= 1e-13
        assert not corrupted["optimal-outputs-closed-form"].passed


def certified(q, psi):
    """Duality gap below the tolerance, TV to the target within Pinsker's bound,
    and exact zeros off the target's support."""
    gap = np.divide(q, psi, out=np.zeros_like(q), where=q > 0.0).max() - 1.0
    tv = 0.5 * np.abs(psi - q).sum(axis=1).max()
    return gap <= GAP_TOL and tv <= math.sqrt(GAP_TOL / 2) and (psi[q == 0.0] == 0.0).all()


def seeded_sweep_rows():
    """400 single rows, k in 2..5 and label counts 0..64.  Rows with a small
    positive mass are the hard case for a minimizer that can clip a label of
    the support to zero."""
    rng = np.random.default_rng(0)
    for _ in range(400):
        counts = rng.integers(0, 65, size=int(rng.integers(2, 6)))
        counts[0] += counts.sum() == 0
        yield (counts / counts.sum())[None]


class TestMirrorDescentOracle:
    def test_small_mass_row_converges(self):
        """A Euclidean projection step clips the 1/64 label to zero here; mirror
        descent keeps every label of the support positive."""
        q = np.array([[1 / 64, 31 / 64, 1 / 2]])
        assert certified(q, pgd_conditionals(q))
        with pytest.raises(GvlabError) as err:
            pgd_conditionals(q, iterations=1)
        assert err.value.code == "not-converged"

    def test_seeded_single_row_sweep_converges(self):
        for q in seeded_sweep_rows():
            assert certified(q, pgd_conditionals(q)), q

    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 10).flatmap(lambda k: st.lists(
        st.one_of(st.just(0), st.integers(0, 1000)), min_size=k, max_size=k)
        .filter(any)))
    def test_random_count_rows_converge_without_warnings(self, counts):
        counts = np.array(counts, dtype=np.float64)
        q = (counts / counts.sum())[None]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            psi = pgd_conditionals(q)
        assert certified(q, psi)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 50).flatmap(lambda rows: st.integers(1, 12).flatmap(
        lambda width: st.tuples(
            st.lists(st.lists(st.integers(0, 64), min_size=width, max_size=width)
                     .filter(any), min_size=rows, max_size=rows),
            st.lists(st.booleans(), min_size=width, max_size=width)))),
        st.integers(0, 12))
    def test_equals_the_row_reduce_reference(self, drawn, cap):
        """Column folds and the reused gradient move no bit, on widths across
        numpy's 8-wide pairwise sum and with zero-mass padded columns; a small
        cap raises exactly where the reference raises."""
        counts, padded = drawn
        counts = np.array(counts, dtype=np.float64)
        counts[:, np.array(padded)] = 0.0
        counts = counts[counts.any(axis=1)]
        if not len(counts):
            counts = np.eye(1, len(padded))
        q = counts / counts.sum(axis=1, keepdims=True)
        assert pgd_conditionals(q).tobytes() == row_reduce_pgd_conditionals(q).tobytes()
        try:
            expected = row_reduce_pgd_conditionals(q, cap)
        except GvlabError as err:
            with pytest.raises(GvlabError) as raised:
                pgd_conditionals(q, cap)
            assert raised.value.code == err.code == "not-converged"
        else:
            assert pgd_conditionals(q, cap).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_theory_check_rows_certify_within_32_iterations(self, monkeypatch, seed):
        """The stacked closed-form rows of a theory-check need about 9 steps."""
        def capped(q, iterations=10_000):
            return pgd_conditionals(q, iterations=32)

        monkeypatch.setattr(theory, "pgd_conditionals", capped)
        results = {r.name: r for r in theory_check_run(seed=seed)}
        assert results["optimal-outputs-closed-form"].passed

    @pytest.mark.parametrize("q", [
        np.array([0.5, 0.5]),
        np.zeros((2, 2, 2)),
        np.zeros((0, 3)),
        np.array([[0.5, np.nan]]),
        np.array([[0.5, np.inf]]),
        np.array([[1.5, -0.5]]),
        np.array([[0.5, 0.5], [0.0, 0.0]]),
        np.array([[0.5, 0.5 + 1e-9]]),
    ], ids=["1-d", "3-d", "no-rows", "nan", "inf", "negative", "no-mass", "sum-off"])
    def test_rejects_input_that_is_not_a_stack_of_distributions(self, q):
        with pytest.raises(GvlabError) as err:
            pgd_conditionals(q)
        assert err.value.code == "bad-variable"


class TestBoundReport:
    def test_invariant_fields(self):
        report = BoundReport.evaluate(2, 2, 1000, 0.05, 0.1)
        assert report.thm1_gap == gap_bound(2, 2, 1000, 0.05)
        assert report.thm2_excess == excess_risk_bound(2, 2, 1000, 0.05, 0.1)

    def test_csv_layout(self):
        text = rows_csv("T,K,n,delta,gamma,thm1_gap,thm2_excess",
                        [BoundReport.evaluate(2, 2, 1000, 0.05),
                         BoundReport.evaluate(2, 2, 1000, 0.05, 0.0),
                         BoundReport.evaluate(2, 2, 1000, 0.05, 0)])
        lines = text.splitlines()
        assert lines[0] == "T,K,n,delta,gamma,thm1_gap,thm2_excess"
        assert lines[1].startswith("2,2,1000,0.05,,0.1074087")
        assert lines[2].split(",")[4] == "0.0"
        assert lines[3] == lines[2]


def same_array(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestColumnFolds:
    """The column folds and integer keys of the sweeps give the bits of the
    row reductions they replaced (``tests/theory_loops.py``)."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 4).flatmap(lambda width: st.lists(
        st.lists(st.integers(-2, 2) | st.sampled_from([-2**63, 2**63 - 1]),
                 min_size=width, max_size=width), max_size=60)
        .map(lambda rows: np.array(rows, dtype=np.int64).reshape(len(rows), width))))
    def test_run_heads_equal_the_row_any_reference(self, rows):
        assert same_array(_run_heads(rows), row_any_run_heads(rows))

    @pytest.mark.parametrize("shape", [(0, 0), (0, 3), (1, 0), (1, 2), (5, 0)])
    def test_run_heads_at_the_edges(self, shape):
        rows = np.zeros(shape, dtype=np.int64)
        assert same_array(_run_heads(rows), row_any_run_heads(rows))
        assert _run_heads(rows).tolist() == [True, False, False, False, False][:shape[0]]

    @pytest.mark.parametrize("make", [random_counts, product_counts, label_copy_counts],
                             ids=["random", "product", "dependent"])
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), data=st.data())
    def test_label_counts_equal_the_reduceat_reference(self, make, seed, data):
        table = _cell_table(make(np.random.default_rng(seed)))
        ids = data.draw(keep_ids(table.variable_ids))
        for got, expected in zip(theory._label_counts(table, ids),
                                 reduceat_label_counts(table, ids)):
            assert same_array(got, expected)

    def test_label_counts_of_a_prefix_past_2_53_round_once_as_a_marginal(self):
        """On a prefix, the cells of one configuration and label add exactly
        and round once, as the marginal's counts do, also past 2**53, where
        the float sums of the reference round in numpy's reduceat order."""
        cells = [[0, b, 1] for b in range(3)] + [[0, 3, 0], [1, 0, 0], [1, 1, 1], [1, 2, 1]]
        counts = [2**53, 1, 1, 2**60, 3, 2**53, 2**61]
        table = ExemplarTable((0, 1), (2, 4), cells, counts, 2)
        configs, got = theory._label_counts(table, (0,))
        expected = theory._label_counts(marginal(table, (0,)), (0,))
        assert same_array(configs, expected[0]) and same_array(got, expected[1])
        assert got.tolist() == [[2.0**60, 2.0**53 + 2], [3.0, float(2**61 + 2**53)]]

    def test_label_counts_of_the_training_error_stack(self):
        stack = _prefix_table(np.random.default_rng(3), 300)
        for ids in ((0, 1), (0,), ()):
            for got, expected in zip(theory._label_counts(stack, ids),
                                     reduceat_label_counts(stack, ids)):
                assert same_array(got, expected)

    @pytest.mark.parametrize("make", [random_counts, product_counts, label_copy_counts],
                             ids=["random", "product", "dependent"])
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), data=st.data())
    def test_invariance_sets_equal_the_unique_rows_reference(self, make, seed, data):
        table = _cell_table(make(np.random.default_rng(seed)))
        det = data.draw(keep_ids(table.variable_ids))
        inv = data.draw(st.lists(st.sampled_from(det), unique=True)) if det else []
        got = check_strict_invariance(table, det, inv)
        expected = unique_rows_strict_invariance(table, det, inv)
        assert got == expected and got.max_deviation.hex() == expected.max_deviation.hex()

    @pytest.mark.parametrize("seed", [0, 1])
    def test_grouped_invariance_sets_equal_the_unique_rows_reference(self, seed):
        for stack in _invariance_tables(np.random.default_rng(seed), 100)[:2]:
            table = _cell_table(stack)
            got = check_strict_invariance(table, (0, 1, 2), (1,), grouped=True)
            expected = unique_rows_strict_invariance(table, (0, 1, 2), (1,), grouped=True)
            assert [r.max_deviation.hex() for r in got] == \
                [r.max_deviation.hex() for r in expected]
            assert got == expected

    def test_invariance_keys_past_int64_are_ranked_in_row_order(self):
        """Kept axis sizes whose product passes 2**63 are keyed without overflow."""
        cells = [[a, b, c, y] for a, b, c, y in [(0, 5, 1, 0), (0, 5, 2, 1), (3, 0, 2**40 - 1, 0),
                                                  (3, 2**40 - 1, 0, 1), (3, 2**40 - 1, 7, 0),
                                                  (2**40 - 1, 1, 1, 1)]]
        table = ExemplarTable((0, 1, 2), (2**40,) * 3, cells, [1, 2, 3, 4, 5, 6], 2)
        for inv in ([], [2], [1], [0, 2]):
            got = check_strict_invariance(table, (0, 1, 2), inv)
            assert got == unique_rows_strict_invariance(table, (0, 1, 2), inv)
        assert not check_strict_invariance(table, (0, 1, 2), [2]).is_invariant

    def test_every_determining_variable_invariant_is_one_set(self):
        """With nothing kept, every configuration is one set: the two rows of
        [[3, 1], [1, 3]] are 0.5 apart."""
        table = _cell_table(np.array([[3, 1], [1, 3]]))
        report = check_strict_invariance(table, (0,), (0,))
        assert report == InvarianceReport(False, 0.5)
        assert report == unique_rows_strict_invariance(table, (0,), (0,))
