from itertools import product

import numpy as np
import pytest
import scipy.stats

from gvlab import experiments
from gvlab.core import ExemplarTable, build_table
from gvlab.errors import GvlabError
from gvlab.experiments import (ADDITION_SPLITS, CORRUPTIBLE_CHECKS, AdditionRuleSweep,
                               GridProtocol, ToyProtocol, addition_rule_margins,
                               addition_rule_sweep, argmax_zero_one_error, block_entropies,
                               derive_seed, label_equals_variable_table, make_grid_task,
                               parallel_map, product_table, random_count_table, spearman,
                               theory_check_run, theory_report_csv, truth_table_counts)
from gvlab.models import risk, train
from gvlab.synth import balance_substitute
from gvlab.theory import addition_rule, estimated_training_error, optimal_outputs

SMALL_TOY = ToyProtocol(per_class=300, epochs=8)
SMALL_GRID = GridProtocol(train_per_class=12, test_per_class=6, epochs=6, repeats=5,
                          batch_size=32)


class TestSpearman:
    def test_matches_scipy_with_ties(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            a = rng.integers(0, 6, 12).astype(float)
            b = rng.integers(0, 6, 12).astype(float)
            expected = scipy.stats.spearmanr(a, b).statistic
            if np.isnan(expected):
                continue
            assert spearman(a, b) == pytest.approx(expected, abs=1e-12)

    def test_perfect_and_reversed(self):
        assert spearman([1, 2, 3], [10, 20, 30]) == pytest.approx(1.0)
        assert spearman([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)

    def test_constant_input_defined_as_zero(self):
        assert spearman([1, 1, 1], [1, 2, 3]) == 0.0


def test_derive_seed_is_stable_and_path_sensitive():
    assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
    assert derive_seed(1, 2, 3) != derive_seed(1, 3, 2)


def test_parallel_map_matches_serial():
    items = list(range(7))
    assert parallel_map(_square, items, jobs=2) == [i * i for i in items]


def _square(i):
    return i * i


class TestRandomTables:
    def test_random_count_table_within_limits(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            table = random_count_table(rng)
            assert int(np.prod(table.axis_sizes)) <= 8
            assert 2 <= table.k <= 4
            assert all(c <= 16 for c in table.counts.values())
            assert table.total == sum(table.counts.values())

    def test_product_table_is_independent(self):
        rng = np.random.default_rng(2)
        from gvlab.info import mutual_information
        for _ in range(20):
            table, gt = product_table(rng)
            assert mutual_information(table, [gt], [1 - gt]) <= 1e-12

    def test_label_copy_table(self):
        rng = np.random.default_rng(3)
        table, gt = label_equals_variable_table(rng)
        for (config, label), count in table.counts.items():
            assert label == config[gt]

    def test_argmax_error_oracle_on_known_table(self):
        from fractions import Fraction
        from gvlab.core import ExemplarTable, build_table
        counts = {((0,), 0): 3, ((0,), 1): 1, ((1,), 0): 1, ((1,), 1): 1}
        table = ExemplarTable((0,), (2,), counts, 6, 2)
        assert argmax_zero_one_error(table, (0,)) == Fraction(1, 3)
        opt = optimal_outputs(table, (0,))
        assert estimated_training_error(opt, table) == pytest.approx(1 / 3, abs=1e-15)


class TestToyRunners:
    def test_influence_rows_and_summary(self):
        result = experiments.toy_influence_run(123, 2, SMALL_TOY, jobs=1)
        assert len(result.rows) == 2 * 10
        dims = {r.dim for r in result.rows}
        assert dims == set(range(10, 20))
        for dataset in (0, 1):
            ranks = sorted(r.rank_est for r in result.rows if r.dataset == dataset)
            assert ranks == list(range(1, 11))
        assert -1.0 <= result.mean_spearman <= 1.0
        assert result.mean_mi_gap >= 0.0

    def test_influence_deterministic_across_job_counts(self):
        serial = experiments.toy_influence_run(123, 2, SMALL_TOY, jobs=1)
        parallel = experiments.toy_influence_run(123, 2, SMALL_TOY, jobs=2)
        assert serial.rows == parallel.rows

    def test_influence_builds_each_table_once(self, monkeypatch):
        built = []

        def counting_build_table(dataset, variable_ids, binning):
            built.append((id(dataset), tuple(variable_ids)))
            return build_table(dataset, variable_ids, binning)

        monkeypatch.setattr(experiments, "build_table", counting_build_table)
        experiments._influence_worker((123, 0, SMALL_TOY))
        assert len(built) == 2 * len(SMALL_TOY.nuisance_dims)  # label and prediction tables
        assert len(set(built)) == len(built)

    def test_balance_rows(self):
        rows = experiments.toy_balance_run(123, 1, SMALL_TOY, jobs=1)
        assert len(rows) == 10
        accs = {r.acc_before for r in rows}
        assert len(accs) == 1  # one trained original per dataset
        assert all(0.0 <= r.acc_after <= 1.0 for r in rows)

    def test_balance_rows_match_sequential_retraining(self):
        """The lockstep worker retrains exactly the models that ``train`` gives
        on ``balance_substitute``'s datasets, the Balance operation InvarTG uses."""
        rows = experiments.toy_balance_run(123, 1, SMALL_TOY, jobs=1)
        data = experiments._toy_dataset(123, 0, SMALL_TOY)
        trainer = SMALL_TOY.trainer(derive_seed(123, 12, 0))
        for r in rows:
            balanced = balance_substitute(data.train, r.dim, derive_seed(123, 13, 0, r.dim))
            model = train(balanced, trainer).model
            assert r.w_after == abs(float(model.weights[0, r.dim]))
            assert r.acc_after == 1.0 - risk(model, data.test).zero_one_error

    def test_balance_deterministic_across_job_counts(self):
        serial = experiments.toy_balance_run(123, 2, SMALL_TOY, jobs=1)
        parallel = experiments.toy_balance_run(123, 2, SMALL_TOY, jobs=2)
        assert serial == parallel


class TestGridTask:
    def test_shapes_and_determinism(self):
        task = make_grid_task(5, SMALL_GRID)
        assert len(task.train_grids) == 12 * 10
        assert task.train.x.shape == (120, 64)
        assert task.test.x.shape == (60, 64)
        again = make_grid_task(5, SMALL_GRID)
        assert task.train.x.tobytes() == again.train.x.tobytes()

    def test_pattern_block_is_brighter_than_periphery(self):
        task = make_grid_task(6, SMALL_GRID)
        values = task.train_grids[0].values[:, :, 0]
        periphery = np.concatenate([values[:2].ravel(), values[6:].ravel()])
        assert values[2:6, 2:6].mean() > periphery.mean()

    def test_augment_rows_deterministic(self):
        rows = experiments.augment_sweep_run(9, 1, (0.0, 1.0), ("uniform",), SMALL_GRID)
        again = experiments.augment_sweep_run(9, 1, (0.0, 1.0), ("uniform",), SMALL_GRID)
        assert rows == again
        assert {r.alpha for r in rows} == {0.0, 1.0}

    def test_augment_deterministic_across_job_counts(self):
        serial = experiments.augment_sweep_run(9, 2, (0.0,), ("uniform",), SMALL_GRID, jobs=1)
        parallel = experiments.augment_sweep_run(9, 2, (0.0,), ("uniform",), SMALL_GRID, jobs=2)
        assert serial == parallel


class TestAdditionRuleSweep:
    def test_sweep_counts_all_cases(self):
        sweep = addition_rule_sweep(0, laws_per_case=1)
        assert isinstance(sweep, AdditionRuleSweep)
        assert sweep.cases == 256 * 7

    def test_sweep_without_laws_has_no_cases(self):
        assert addition_rule_sweep(0, laws_per_case=0) == AdditionRuleSweep(0, 0, 0.0, "")

    def test_sweep_finds_parity_violations(self):
        """Parity predictors carry synergy that the per-variable information
        sum misses, so the sweep must surface violating cases."""
        sweep = addition_rule_sweep(0, laws_per_case=2)
        assert sweep.violations > 0
        assert sweep.worst_violation > 0.1
        assert "truth_table" in sweep.worst_case


#: The acceptance seed; criterion 05 reports its first worst counterexample.
SEED = 20240501


def sweep_laws(seed: int) -> np.ndarray:
    """The four joint laws ``addition_rule_sweep(seed)`` draws."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 41)))
    return np.array([rng.integers(1, 17, size=8) for _ in range(4)])


class TestVectorizedAdditionRule:
    def test_margins_match_the_table_addition_rule(self):
        laws = sweep_laws(SEED)
        margins = addition_rule_margins(laws)
        reference = np.empty_like(margins)
        configs = list(product(range(2), repeat=3))
        for bits in range(256):
            for index, law in enumerate(laws):
                counts = {(config, (bits >> i) & 1): int(law[i]) for i, config in enumerate(configs)}
                table = ExemplarTable((0, 1, 2), (2, 2, 2), counts, int(law.sum()), 2)
                for split, (task, nuisance) in enumerate(ADDITION_SPLITS):
                    result = addition_rule(table, task, nuisance)
                    reference[bits, index, split] = (result.influence_sum
                                                     - result.entropy_given_task)
        assert margins.shape == (256, 4, 7)
        assert np.abs(margins - reference).max() <= 1e-12
        assert np.array_equal(margins < -1e-10, reference < -1e-10)

    def test_complement_truth_tables_have_bit_equal_margins(self):
        margins = addition_rule_margins(sweep_laws(SEED))
        assert margins.tobytes() == np.ascontiguousarray(margins[::-1]).tobytes()

    def test_acceptance_seed_counterexample_is_pinned(self):
        sweep = addition_rule_sweep(SEED)
        assert (sweep.violations, sweep.cases) == (3304, 7168)
        assert sweep.worst_case == ("truth_table=01100110 task=() nuisance=(0, 1, 2) "
                                    "counts=[9, 5, 15, 7, 9, 11, 4, 10]")
        assert sweep.worst_violation == pytest.approx(0.6845524330113413, abs=1e-12)


def conditional_information(entropies, given, var_id):
    """I(prediction; var_id | given) from ``block_entropies``."""
    h_pred_given, h_given = entropies[tuple(sorted(given))]
    h_pred_joint, h_joint = entropies[tuple(sorted(given + (var_id,)))]
    return h_pred_given - h_given - h_pred_joint + h_joint


def chain_rule_deviation(entropies, condition_on_earlier=True):
    """Largest |H(pred | task) - sum_i I(pred; u_i | task, u_<i)| over splits."""
    worst = 0.0
    for task, nuisance in ADDITION_SPLITS:
        h_pred_task, h_task = entropies[task]
        total = sum(conditional_information(
            entropies, task + (nuisance[:i] if condition_on_earlier else ()), u)
            for i, u in enumerate(nuisance))
        worst = max(worst, float(np.abs(h_pred_task - h_task - total).max()))
    return worst


def subadditivity_excess(entropies):
    """Largest sum_i I(pred; u_i | task) - H(pred | task) over splits."""
    worst = -np.inf
    for task, nuisance in ADDITION_SPLITS:
        h_pred_task, h_task = entropies[task]
        total = sum(conditional_information(entropies, task, u) for u in nuisance)
        worst = max(worst, float((total - (h_pred_task - h_task)).max()))
    return worst


def product_laws() -> np.ndarray:
    """Every law p(g0) p(g1) p(g2) whose factors have weight ratios from 1:1 to 3:1."""
    weights = [(1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (2, 3), (3, 2)]
    return np.array([[a[g0] * b[g1] * c[g2] for g0, g1, g2 in product(range(2), repeat=3)]
                     for a in weights for b in weights for c in weights])


class TestAdditionStatementsThatHold:
    """The addition statements that do hold for deterministic predictors,
    beside the per-variable inequality that criterion 05 shows failing.  The
    gap between the chain rule and the per-variable sum is the synergy minus
    the redundancy of Williams & Beer (arXiv:1004.2515)."""

    def test_chain_rule_is_exact(self):
        entropies = block_entropies(truth_table_counts(sweep_laws(SEED)))
        assert chain_rule_deviation(entropies) <= 1e-12

    def test_chain_rule_without_earlier_variables_fails(self):
        entropies = block_entropies(truth_table_counts(sweep_laws(SEED)))
        assert chain_rule_deviation(entropies, condition_on_earlier=False) > 0.1

    def test_subadditive_under_product_laws(self):
        entropies = block_entropies(truth_table_counts(product_laws()))
        assert subadditivity_excess(entropies) <= 1e-12

    def test_subadditivity_fails_under_dependent_laws(self):
        entropies = block_entropies(truth_table_counts(sweep_laws(SEED)))
        assert subadditivity_excess(entropies) > 0.01


class TestTheoryChecks:
    def test_all_but_addition_rule_pass(self):
        results = theory_check_run(seed=0, tables=60)
        by_name = {r.name: r for r in results}
        assert len(by_name) >= 6
        for name, result in by_name.items():
            if name == "addition-rule-inequality":
                assert not result.passed  # genuine counterexamples exist
            else:
                assert result.passed, f"{name}: {result.detail}"

    def test_corrupt_hook_fails_named_check(self):
        for name in CORRUPTIBLE_CHECKS:
            results = theory_check_run(seed=0, corrupt=name, tables=10)
            by_name = {r.name: r for r in results}
            assert not by_name[name].passed

    def test_unknown_corrupt_name_rejected(self):
        """A check without a corrupt hook is rejected, not silently passed."""
        for name in ("no-such-check", "gap-bound-grid"):
            with pytest.raises(GvlabError) as err:
                theory_check_run(seed=0, corrupt=name, tables=10)
            assert err.value.code == "bad-variable"

    def test_report_csv_layout(self):
        results = theory_check_run(seed=0, tables=10)
        lines = theory_report_csv(results).splitlines()
        assert lines[0] == "check,passed,max_deviation"
        assert len(lines) == len(results) + 1
        assert all(line.split(",")[1] in ("true", "false") for line in lines[1:])
