import concurrent.futures
import math
import os
import subprocess
import sys
from functools import partial
from itertools import product
from pathlib import Path

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings, strategies as st

from gvlab import core, experiments, synth
from gvlab.core import rows_csv, stream
from gvlab.errors import GvlabError
from gvlab.experiments import (ADDITION_SPLITS, CORRUPTIBLE_CHECKS, AdditionRuleSweep,
                               GridProtocol, ToyProtocol, addition_rule_margins,
                               _cell_table, addition_rule_sweep,
                               block_counts, check_max_prob_bound, derive_seed,
                               make_grid_task, parallel_map, spearman, theory_check_run,
                               truth_table_counts)
from gvlab.models import LinearModel, _class_sum, risk, train
from gvlab.synth import balance_column, balance_substitute
from gvlab.theory import (_block_entropies, addition_rule, check_strict_invariance,
                          estimated_training_error, max_prob_lower_bound, optimal_outputs)

from dict_tables import reference_information, table_dict, table_from_dict
from lockstep_reference import gamma, reference_substitutes, substitute_bound
from memory import traced_peak
from theory_loops import (argmax_zero_one_error, invariance_blocks, label_copy_counts,
                          looped_sweep, masked_max_prob_gap, multi_axis_block_counts, nonempty,
                          product_counts, random_counts, single_addition_rule,
                          single_argmax_error, single_strict_invariance, single_training_error,
                          table_blocks)

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


#: Every public entry point that keys a random stream, seed key last.
KEYED_ENTRY_POINTS = {
    "derive_seed": derive_seed,
    "derive_seed-path": partial(derive_seed, 1, 2),
    "stream": stream,
    "stream-path": partial(stream, 1),
    "theory_check_run": theory_check_run,
    "addition_rule_sweep": addition_rule_sweep,
    "make_grid_task": make_grid_task,
    "random_toy_spec": synth.random_toy_spec,
    "balance_column": partial(synth.balance_column, 3),
}


@pytest.mark.parametrize("key", [-1, 2.5, True, 2.0, np.float64(1), "7"])
@pytest.mark.parametrize("entry", KEYED_ENTRY_POINTS)
def test_keyed_entry_points_reject_bad_seed_keys(entry, key):
    with pytest.raises(GvlabError) as err:
        KEYED_ENTRY_POINTS[entry](key)
    assert err.value.code == "bad-variable"


def test_derive_seed_accepts_numpy_integers():
    assert derive_seed(np.int64(1), np.uint8(2)) == derive_seed(1, 2)


def test_parallel_map_matches_serial():
    items = list(range(7))
    assert parallel_map(_square, items, jobs=2) == [i * i for i in items]


@pytest.mark.parametrize("jobs, items, workers", [(64, 3, 3), (2, 5, 2), (1_000_000, 2, 2)])
def test_parallel_map_starts_no_more_workers_than_items(monkeypatch, jobs, items, workers):
    """The pool is stubbed, so no process is started."""
    started = []

    class StubPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, seq):
            return map(fn, seq)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", StubPool)
    assert parallel_map(_square, list(range(items)), jobs) == [i * i for i in range(items)]
    assert started == [workers]


def test_the_process_pool_is_imported_only_to_fan_out():
    """A fresh interpreter that loads the CLI and maps with one job imports
    neither ``concurrent.futures`` nor ``multiprocessing``."""
    code = ("import sys; from gvlab import cli, experiments; "
            "assert experiments.parallel_map(abs, [-1, -2], 1) == [1, 2]; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('concurrent', 'multiprocessing')))")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def _square(i):
    return i * i


def per_cell_count_table(rng, max_count=16):
    """Reference for ``_cell_table(random_counts(rng))``: one scalar draw per cell, in C order."""
    shape = experiments._TABLE_SHAPES[rng.integers(len(experiments._TABLE_SHAPES))]
    k = int(rng.integers(2, 5))
    counts = {}
    for config in np.ndindex(*shape):
        for label in range(k):
            c = int(rng.integers(0, max_count + 1))
            if c:
                counts[(tuple(int(v) for v in config), label)] = c
    if not counts:
        counts[(tuple(0 for _ in shape), 0)] = 1
    return table_from_dict(counts, shape, k)


def looped_product_table(rng):
    """Reference for ``_cell_table(product_counts(rng))``: one loop per axis,
    checked constructor."""
    card_t, card_c, k = (int(rng.integers(2, 5)) for _ in range(3))
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
    return table_from_dict(counts, (card_t, card_c), k)


def looped_label_copy_table(rng):
    """Reference for ``_cell_table(label_copy_counts(rng))``: one scalar draw per cell."""
    card_t, card_c = int(rng.integers(2, 5)), int(rng.integers(2, 5))
    counts = {((gt, gc), gt): int(rng.integers(1, 9))
              for gt in range(card_t) for gc in range(card_c)}
    return table_from_dict(counts, (card_t, card_c), card_t)


class TestRandomTables:
    def test_random_count_table_within_limits(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            table = _cell_table(random_counts(rng))
            assert int(np.prod(table.axis_sizes)) <= 8
            assert 2 <= table.k <= 4
            assert all(0 < c <= 16 for c in table.counts.tolist())
            assert table.total == sum(table.counts.tolist())

    def test_random_count_table_matches_per_cell_draws(self):
        """One vector draw per table consumes the stream like one scalar draw per cell."""
        for seed in (0, 1, 7, 20240501):
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(60):
                table, ref = _cell_table(random_counts(rng)), per_cell_count_table(ref_rng)
                assert table == ref
                assert table.variable_ids == ref.variable_ids
                assert table.axis_sizes == ref.axis_sizes
                assert list(table_dict(table).items()) == list(table_dict(ref).items())
                assert (table.total, table.k) == (ref.total, ref.k)
            assert rng.random() == ref_rng.random()

    @pytest.mark.parametrize("draw, reference", [
        (product_counts, looped_product_table),
        (label_copy_counts, looped_label_copy_table),
    ], ids=["product", "label-copy"])
    def test_generators_match_the_checked_construction(self, draw, reference):
        """The dense-cell generators give the tables of one draw per cell
        through the checked constructor, keys in order, and leave the
        stream where the per-cell loops leave it."""
        for seed in range(200):
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            table, ref = _cell_table(draw(rng)), reference(ref_rng)
            assert table == ref
            assert list(table_dict(table).items()) == list(table_dict(ref).items())
            assert table.cells.dtype == table.counts.dtype == np.int64
            assert type(table.k) is int and all(type(v) is int for v in table.axis_sizes)
            assert rng.random() == ref_rng.random()

    def test_product_table_is_independent(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            table = _cell_table(product_counts(rng))
            assert reference_information(table, (0,), (1,), ()) <= 1e-12

    def test_label_copy_table(self):
        rng = np.random.default_rng(3)
        table = _cell_table(label_copy_counts(rng))
        for (config, label), count in table_dict(table).items():
            assert label == config[0]

    def test_argmax_error_oracle_on_known_table(self):
        from fractions import Fraction
        counts = {((0, 0), 0): 3, ((0, 0), 1): 1, ((0, 1), 0): 1, ((0, 1), 1): 1}
        table = table_from_dict(counts, (1, 2), 2)  # a stack of one table over variable 1
        assert argmax_zero_one_error(table, (0, 1)) == (Fraction(1, 3),)
        assert argmax_zero_one_error(table, (1,)) == (Fraction(1, 4), Fraction(1, 2))
        opt = optimal_outputs(table, (0, 1))
        assert estimated_training_error(opt, table) == pytest.approx(1 / 3, abs=1e-15)


def uniform_p(values, low, high):
    """Chi-square p-value of ``values`` against the uniform law on ``low..high``;
    a value outside that range fails at once."""
    values = np.asarray(values)
    assert low <= values.min() and values.max() <= high
    return scipy.stats.chisquare(np.bincount(values - low, minlength=high - low + 1)).pvalue


class TestArrayDrawLaw:
    """Chi-square tests of the array draws against the per-table law they
    keep: each marginal must pass at p > 0.001, and a cell outside a table's
    box must be zero, so a wrong mask or an off-by-one bound fails loudly."""

    def test_random_tables(self):
        counts, shapes, ks, prefixes = experiments._random_tables(np.random.default_rng(12), 4000)
        assert uniform_p(shapes, 0, len(experiments._TABLE_SHAPES) - 1) > 1e-3
        assert uniform_p(ks, 2, 4) > 1e-3
        table_shapes = [experiments._TABLE_SHAPES[s] for s in shapes.tolist()]
        ndims = np.array([len(shape) for shape in table_shapes])
        assert (prefixes[ndims == 1] == 1).all()
        for ndim in (2, 3):
            assert uniform_p(prefixes[ndims == ndim], 1, ndim) > 1e-3
        configs = np.array([math.prod(shape) for shape in table_shapes])
        inside = ((np.arange(8)[:, None] < configs[:, None, None])
                  & (np.arange(4) < ks[:, None, None]))
        assert not counts[~inside].any()
        assert uniform_p(counts[inside], 0, 16) > 1e-3

    def test_invariance_tables(self):
        products, copies, sizes = experiments._invariance_tables(np.random.default_rng(13), 4000)
        for size in sizes:
            assert uniform_p(size, 2, 4) > 1e-3
        codes = np.arange(4)
        t_p, c_p, k_p, t_d, c_d = (size[:, None, None, None] for size in sizes)
        inside = (codes[:, None, None] < t_p) & (codes[:, None] < c_p) & (codes < k_p)
        assert not products[~inside].any()
        # u[g_t] * v[g_c, label]: every g_t row is a multiple of every other
        rows = products.reshape(len(products), 4, 16)
        sums = rows.sum(axis=2, keepdims=True)
        assert (rows * sums[:, :1] == rows[:, :1] * sums).all()
        # the first cell, inside every table, follows the law of u * v
        law = np.bincount((np.arange(1, 6)[:, None] * np.arange(7)).ravel()) / 35
        observed = np.bincount(products[:, 0, 0, 0], minlength=len(law))
        assert len(observed) == len(law) and not observed[law == 0].any()
        assert scipy.stats.chisquare(observed[law > 0],
                                     law[law > 0] * len(products)).pvalue > 1e-3
        inside = ((codes[:, None, None] < t_d) & (codes[:, None] < c_d)
                  & (codes[:, None] == codes)[:, None])  # the label copies g_t
        assert not copies[~inside].any()
        assert uniform_p(copies[inside], 1, 8) > 1e-3


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

    def test_influence_never_draws_the_test_half(self, monkeypatch):
        def refuse(spec):
            raise AssertionError("toy-influence read the test half")

        monkeypatch.setattr(synth, "_sample_test", refuse)
        assert len(experiments.toy_influence_run(123, 1, SMALL_TOY, jobs=1).rows) == 10

    @pytest.mark.parametrize("tcd", [0, 20, 21])
    def test_protocol_rejects_no_nuisance_dims(self, tcd):
        with pytest.raises(GvlabError) as err:
            ToyProtocol(dims=20, task_correlated_dims=tcd)
        assert err.value.code == "bad-config"

    def test_influence_bins_each_nuisance_column_once(self, monkeypatch):
        """The worker builds no table and no ``Dataset``: it bins each nuisance
        column once, over that column's own range, and counts the labels and
        the predictions from those codes."""
        binned = []

        def counting_range_codes(col, lo, hi, bins, name):
            binned.append((name, len(col), lo, hi))
            return range_codes(col, lo, hi, bins, name)

        def refuse(*args):
            raise AssertionError("the toy worker built a table or a Dataset")

        range_codes = synth._range_codes
        monkeypatch.setattr(synth, "_range_codes", counting_range_codes)
        monkeypatch.setattr(core.Dataset, "__post_init__", refuse)
        for module in (core, synth, experiments):
            monkeypatch.setattr(module, "build_table", refuse, raising=False)
        experiments._toy_worker((123, 0, SMALL_TOY, False))
        x = experiments._toy_dataset(123, 0, SMALL_TOY).train.x
        assert binned == [(f"g{j}", len(x), x[:, j].min(), x[:, j].max())
                          for j in SMALL_TOY.nuisance_dims]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_one_run_gives_both_protocols(self, jobs):
        """The original model trained beside the balanced ones gives the
        influence result of the model trained alone."""
        influence, balance = experiments.toy_run(123, 2, SMALL_TOY, jobs=jobs, balance=True)
        assert influence == experiments.toy_influence_run(123, 2, SMALL_TOY, jobs=jobs)
        assert balance == experiments.toy_balance_run(123, 2, SMALL_TOY, jobs=jobs)

    def test_one_run_trains_each_dataset_once(self, monkeypatch):
        calls = {"_toy_dataset": 0, "train_lockstep": 0}

        def counting(name):
            original = getattr(experiments, name)

            def wrapper(*args):
                calls[name] += 1
                return original(*args)
            return wrapper

        for name in calls:
            monkeypatch.setattr(experiments, name, counting(name))
        influence, balance = experiments.toy_run(123, 2, SMALL_TOY, jobs=1, balance=True)
        assert calls == {"_toy_dataset": 2, "train_lockstep": 2}
        assert len(influence.rows) == len(balance) == 2 * len(SMALL_TOY.nuisance_dims)

    def test_balance_rows(self):
        rows = experiments.toy_balance_run(123, 1, SMALL_TOY, jobs=1)
        assert len(rows) == 10
        accs = {r.acc_before for r in rows}
        assert len(accs) == 1  # one trained original per dataset
        assert all(0.0 <= r.acc_after <= 1.0 for r in rows)

    def test_balance_rows_match_sequential_retraining(self):
        """The lockstep worker's original model is the one ``train`` gives;
        each retrained model equals the extended-row reference bit for bit,
        and lies within the rounding bound of ``train`` on
        ``balance_substitute``'s dataset, the Balance operation InvarTG uses:
        its |weight| within the bound, and its test accuracy moved by at most
        the test rows whose forward term lies within the terms' bound of 0."""
        rows = experiments.toy_balance_run(123, 1, SMALL_TOY, jobs=1)
        data = experiments._toy_dataset(123, 0, SMALL_TOY)
        trainer = SMALL_TOY.trainer(derive_seed(123, 12, 0))
        substitutions = [(r.dim, balance_column(data.train.n, derive_seed(123, 13, 0, r.dim)))
                         for r in rows]
        original = train(data.train, trainer).model
        bound, _ = substitute_bound(data.train, trainer, substitutions)
        x_test = np.abs(data.test.x)
        x_peak = max(1.0, float(x_test.max()))
        references = reference_substitutes(data.train, trainer, substitutions)
        for r, (j, _), (w, b, _) in zip(rows, substitutions, references, strict=True):
            assert r.w_before == abs(float(original.weights[0, j]))
            assert r.acc_before == 1.0 - risk(original, data.test).zero_one_error
            assert r.w_after == abs(float(w[0, j]))
            assert r.acc_after == 1.0 - risk(LinearModel(w, b, "sigmoid"), data.test).zero_one_error
            balanced = balance_substitute(data.train, j, derive_seed(123, 13, 0, j))
            model = train(balanced, trainer).model
            assert abs(r.w_after - abs(float(model.weights[0, j]))) <= bound
            # A prediction flips only where the two models' terms straddle 0.
            weights, bias = np.abs(model.weights[0]) + bound, abs(float(model.bias[0])) + bound
            margin = ((data.test.d + 1) * x_peak * bound
                      + 2.0 * gamma(data.test.d + 1) * (x_test @ weights + bias))
            z = data.test.x @ model.weights[0] + model.bias[0]
            flips = int((np.abs(z) <= margin).sum())
            acc = 1.0 - risk(model, data.test).zero_one_error
            assert abs(r.acc_after - acc) <= flips / data.test.n

    def test_balance_deterministic_across_job_counts(self):
        serial = experiments.toy_balance_run(123, 2, SMALL_TOY, jobs=1)
        parallel = experiments.toy_balance_run(123, 2, SMALL_TOY, jobs=2)
        assert serial == parallel


def reference_grid_task(seed, protocol):
    """The per-sample loop that built the grid task one grid at a time."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 31)))
    side, ps = protocol.side, protocol.pattern_side
    lo = (side - ps) // 2
    prototypes = rng.random((protocol.classes, ps, ps))
    halves = []
    for per_class in (protocol.train_per_class, protocol.test_per_class):
        grids, labels = [], []
        for c in range(protocol.classes):
            for _ in range(per_class):
                values = protocol.background * rng.random((side, side, 1))
                block = prototypes[c] + rng.normal(0.0, protocol.noise_sd, (ps, ps))
                values[lo:lo + ps, lo:lo + ps, 0] = np.clip(block, 0.0, 1.0)
                grids.append(values)
                labels.append(c)
        halves.append((np.stack(grids), np.array(labels)))
    return halves


class TestGridTask:
    @pytest.mark.parametrize("protocol", [SMALL_GRID, GridProtocol(),
                                          GridProtocol(side=9, pattern_side=3, classes=3)])
    def test_matches_the_per_sample_reference(self, protocol):
        task = make_grid_task(8, protocol)
        halves = ((task.train_grids, task.train), (task.test_grids, task.test))
        for (grids, data), (expected, labels) in zip(halves, reference_grid_task(8, protocol)):
            assert grids.shape == expected.shape and grids.tobytes() == expected.tobytes()
            assert data.x.tobytes() == expected.reshape(len(expected), -1).tobytes()
            assert np.array_equal(data.y, labels)

    def test_shapes_and_determinism(self):
        task = make_grid_task(5, SMALL_GRID)
        assert len(task.train_grids) == 12 * 10
        assert task.train.x.shape == (120, 64)
        assert task.test.x.shape == (60, 64)
        again = make_grid_task(5, SMALL_GRID)
        assert task.train.x.tobytes() == again.train.x.tobytes()

    def test_negative_seed_rejected(self):
        with pytest.raises(GvlabError) as err:
            make_grid_task(-1, SMALL_GRID)
        assert err.value.code == "bad-variable"

    def test_pattern_block_is_brighter_than_periphery(self):
        task = make_grid_task(6, SMALL_GRID)
        values = task.train_grids[0][:, :, 0]
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
        """The sweep against the sparse per-table reference to 1e-12, and equal
        bit for bit to the library rule, which runs the same kernel."""
        laws = sweep_laws(SEED)
        margins = addition_rule_margins(laws)
        reference, library = np.empty_like(margins), np.empty_like(margins)
        configs = list(product(range(2), repeat=3))
        for bits in range(256):
            for index, law in enumerate(laws):
                counts = {(config, (bits >> i) & 1): int(law[i]) for i, config in enumerate(configs)}
                table = table_from_dict(counts, (2, 2, 2), 2)
                for split, (task, nuisance) in enumerate(ADDITION_SPLITS):
                    for out, rule in ((reference, single_addition_rule), (library, addition_rule)):
                        result = rule(table, task, nuisance)
                        out[bits, index, split] = result.influence_sum - result.entropy_given_task
        assert margins.shape == (256, 4, 7)
        assert np.abs(margins - reference).max() <= 1e-12
        assert np.array_equal(margins < -1e-10, reference < -1e-10)
        assert library.tobytes() == margins.tobytes()

    def test_complement_truth_tables_have_bit_equal_margins(self):
        margins = addition_rule_margins(sweep_laws(SEED))
        assert margins.tobytes() == np.ascontiguousarray(margins[::-1]).tobytes()

    def test_acceptance_seed_counterexample_is_pinned(self):
        sweep = addition_rule_sweep(SEED)
        assert (sweep.violations, sweep.cases) == (3304, 7168)
        assert sweep.worst_case == ("truth_table=01100110 task=() nuisance=(0, 1, 2) "
                                    "counts=[9, 5, 15, 7, 9, 11, 4, 10]")
        assert sweep.worst_violation == pytest.approx(0.6845524330113413, abs=1e-12)


def sweep_entropies(laws):
    """``H(prediction, block)`` and ``H(block)`` per block of the truth tables
    under ``laws``, from the addition-rule kernel's block-entropy step."""
    return {block: _block_entropies(joint)
            for block, joint in block_counts(truth_table_counts(laws)).items()}


def conditional_information(entropies, given, var_id):
    """I(prediction; var_id | given) from :func:`sweep_entropies`."""
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


@pytest.mark.parametrize("laws", [sweep_laws(0), sweep_laws(SEED), product_laws()[:9],
                                  np.zeros((0, 8), dtype=np.int64),
                                  np.full((2, 8), 2**55, dtype=np.int64)],
                         ids=["seed-0", "seed", "product", "no-laws", "large"])
def test_block_counts_equal_one_multi_axis_sum_each(laws):
    """Each block, its parent's two halves added, is the one multi-axis sum
    of the reference bit for bit, in the same block order."""
    counts = truth_table_counts(laws)
    got, expected = block_counts(counts), multi_axis_block_counts(counts)
    assert list(got) == list(expected)
    for block, joint in got.items():
        assert joint.dtype == expected[block].dtype and joint.shape == expected[block].shape
        assert joint.tobytes() == expected[block].tobytes()


class TestAdditionStatementsThatHold:
    """The addition statements that do hold for deterministic predictors,
    beside the per-variable inequality that criterion 05 shows failing.  The
    gap between the chain rule and the per-variable sum is the synergy minus
    the redundancy of Williams & Beer (arXiv:1004.2515)."""

    def test_chain_rule_is_exact(self):
        entropies = sweep_entropies(sweep_laws(SEED))
        assert chain_rule_deviation(entropies) <= 1e-12

    def test_chain_rule_without_earlier_variables_fails(self):
        entropies = sweep_entropies(sweep_laws(SEED))
        assert chain_rule_deviation(entropies, condition_on_earlier=False) > 0.1

    def test_subadditive_under_product_laws(self):
        entropies = sweep_entropies(product_laws())
        assert subadditivity_excess(entropies) <= 1e-12

    def test_subadditivity_fails_under_dependent_laws(self):
        entropies = sweep_entropies(sweep_laws(SEED))
        assert subadditivity_excess(entropies) > 0.01


def reference_max_prob_gap(rng, corrupt):
    """The sweep as first written: np.where entropy terms and per-row maxima."""
    worst = 0.0
    for k in range(2, 11):
        n = 11_111 if k < 10 else 100_000 - 8 * 11_111
        p = rng.dirichlet(np.ones(k), size=n)
        h = -(np.where(p > 0, p * np.log(np.maximum(p, 1e-300)), 0.0)).sum(axis=1)
        bound = np.maximum(0.0, 1.0 - h / (2.0 * np.log(2.0)))
        if corrupt:
            bound = bound + 0.01
        worst = max(worst, float((bound - p.max(axis=1)).max()))
    return max(worst, abs(max_prob_lower_bound(np.log(2.0)) - 0.5))


def max_prob_rows(k, rng):
    """Dirichlet rows on ``k`` labels beside rows that hold exact 0.0 and
    1.0: one-hot rows, rows with zeroed labels renormalized, and rows with
    probabilities below the 1e-300 floor of the logarithm."""
    p = rng.dirichlet(np.ones(k), size=400)
    p[:60] = np.eye(k)[rng.integers(k, size=60)]
    zeroed = p[60:200] * (rng.random((140, k)) < 0.5)
    zeroed[np.arange(140), rng.integers(k, size=140)] += 0.25
    p[60:200] = zeroed / zeroed.sum(axis=1, keepdims=True)
    p[200:220] = 5e-324
    p[200:220, 0] = 1.0
    return p


class TestMaxProbBound:
    @pytest.mark.parametrize("k", range(2, 11))
    def test_class_major_entropy_sums_with_zeros_and_ones(self, k):
        """Unmasked terms summed class-major equal the masked terms summed
        by ``sum(axis=1)`` bit for bit: a zero p adds -0.0."""
        p = max_prob_rows(k, np.random.default_rng(k))
        assert (p == 0.0).any() and (p == 1.0).any()
        terms = np.log(np.maximum(p, 1e-300)) * p
        masked = np.where(p > 0, terms, 0.0)
        assert _class_sum(terms.T)[0].tobytes() == masked.sum(axis=1).tobytes()
        for corrupt in (False, True):
            gap = experiments._max_prob_gap(p.copy(), corrupt)
            assert gap.hex() == masked_max_prob_gap(p, corrupt).hex()

    @pytest.mark.parametrize("corrupt", [False, True])
    @pytest.mark.parametrize("seed", [0, 1, 20240501])
    def test_equals_the_where_and_row_max_reference(self, seed, corrupt):
        result = check_max_prob_bound(np.random.default_rng(seed), corrupt)
        assert result.max_deviation == reference_max_prob_gap(np.random.default_rng(seed),
                                                              corrupt)
        assert result.passed is not corrupt

    def test_peak_allocation(self):
        """One block's Dirichlet draws and entropy terms are freed before the
        next block draws (0.79 MB): one draw per label count peaked at
        2.13 MB, the where-based sweep at 2.82 MB."""
        assert traced_peak(check_max_prob_bound, np.random.default_rng(0)) < 1_000_000


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

    def test_optimal_outputs_records_stay_within_the_table_budget(self):
        """The budget that bounds ``--tables`` covers the check's traced peak."""
        tables = 5000
        peak = traced_peak(experiments.check_optimal_outputs, np.random.default_rng(0), tables)
        assert peak < tables * experiments._TABLE_BYTES, peak

    def test_report_csv_layout(self):
        results = theory_check_run(seed=0, tables=10)
        lines = rows_csv("check,passed,max_deviation", results).splitlines()
        assert lines[0] == "check,passed,max_deviation"
        assert len(lines) == len(results) + 1
        assert all(line.split(",")[1] in ("true", "false") for line in lines[1:])


@pytest.mark.parametrize("run", [
    partial(experiments.toy_influence_run, 1, 0),
    partial(experiments.toy_influence_run, 1, -1),
    partial(experiments.toy_balance_run, 1, 0),
    partial(experiments.toy_run, 1, 0, balance=True),
    partial(experiments.augment_sweep_run, 1, 0, (0.0,), ("uniform",)),
    partial(experiments.augment_sweep_run, 1, 1, (), ("uniform",)),
    partial(experiments.augment_sweep_run, 1, 1, (0.0,), ()),
    partial(theory_check_run, seed=0, tables=0),
    partial(theory_check_run, seed=0, tables=-1),
], ids=["toy-influence-0", "toy-influence-neg", "toy-balance-0", "toy-run-0", "augment-0-seeds",
        "augment-0-alphas", "augment-0-laws", "theory-check-0", "theory-check-neg"])
def test_fewer_than_one_item_rejected(run):
    """Every runner rejects an item count below 1 before any work, rather than
    return empty rows or ``nan`` means."""
    with pytest.raises(GvlabError) as err:
        run()
    assert err.value.code == "bad-config"


#: The stacked checks under the names ``looped_sweep`` knows them by.
STACKED_CHECKS = {
    "training-error": experiments.check_training_error,
    "strict-invariance": experiments.check_strict_invariance,
    "optimal-outputs": experiments.check_optimal_outputs,
    "optimal-outputs-corrupt": partial(experiments.check_optimal_outputs, corrupt=True),
}


class TestStackedChecks:
    """The stacked theory checks against the per-table loops they replaced
    (``tests/theory_loops.py``), run on the blocks cut from their array draws."""

    @pytest.mark.parametrize("tables", [1, 7, 500])
    @pytest.mark.parametrize("sweep", list(STACKED_CHECKS))
    def test_equal_to_the_per_table_loop(self, sweep, tables):
        for seed in range(6):
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            result, expected = STACKED_CHECKS[sweep](rng, tables), looped_sweep(sweep, ref_rng,
                                                                                tables)
            assert result == expected
            assert result.max_deviation.hex() == expected.max_deviation.hex()
            assert type(result.max_deviation) is float
            assert rng.random() == ref_rng.random()

    @settings(max_examples=40, deadline=None)
    @given(tables=st.integers(1, 120), seed=st.integers(0, 2 ** 32 - 1),
           sweep=st.sampled_from(["optimal-outputs", "training-error", "strict-invariance"]))
    def test_stack_closed_forms_equal_the_per_table_calls(self, tables, seed, sweep):
        """Each table's rows of the closed forms on the array stack are, bit
        for bit, the single-table calls on its block cut from that stack."""
        if sweep == "strict-invariance":
            products, copies, sizes = experiments._invariance_tables(stream(seed), tables)
            for stack, blocks in zip((products, copies),
                                     invariance_blocks(products, copies, sizes)):
                reports = check_strict_invariance(_cell_table(stack), (0, 1, 2), (1,),
                                                  grouped=True)
                assert len(reports) == tables
                for report, block in zip(reports, blocks):
                    table = _cell_table(block)
                    single = check_strict_invariance(table, (0, 1), (0,))
                    assert report == single == single_strict_invariance(table, (0, 1), (0,))
                    assert report.max_deviation.hex() == single.max_deviation.hex()
            return
        counts, shapes, ks, prefixes = experiments._random_tables(stream(seed), tables)
        blocks = table_blocks(counts, shapes, ks)
        if sweep == "optimal-outputs":
            stack, ids = _cell_table(counts), [block.ndim - 1 for block in blocks]
        else:
            stack, ids = experiments._prefix_table(stream(seed), tables), prefixes.tolist()
            estimates = estimated_training_error(optimal_outputs(stack, (0, 1)), stack,
                                                 grouped=True)
            exact = argmax_zero_one_error(stack, (0, 1))
        opt = optimal_outputs(stack, (0, 1))
        for t, (block, prefix, k) in enumerate(zip(blocks, ids, ks.tolist())):
            table = _cell_table(block)
            single = optimal_outputs(table, table.variable_ids[:prefix])
            rows = opt.configs[:, 0] == t
            codes = np.ravel_multi_index(single.configs.T, table.axis_sizes[:prefix])
            assert opt.configs[rows, 1].tolist() == codes.tolist()
            assert opt.probs[rows, :k].tobytes() == single.probs.tobytes()
            assert not opt.probs[rows, k:].any()
            if sweep == "training-error":
                estimate = estimated_training_error(single, table)
                assert estimates[t].hex() == estimate.hex()
                assert estimate.hex() == single_training_error(single, table).hex()
                assert exact[t] == single_argmax_error(table, single.variable_ids)

    def test_one_dependent_table_in_the_product_stack_is_one_miss(self, monkeypatch):
        """Fails loudly: a dependent table among product tables is counted,
        and its deviation, the one it gives alone, is reported."""
        draw, alone = experiments._invariance_tables, []

        def third_is_dependent(rng, tables):
            products, copies, sizes = draw(rng, tables)
            products[2] = copies[0]
            alone.append(check_strict_invariance(_cell_table(copies[0]), (0, 1), (0,)))
            return products, copies, sizes

        monkeypatch.setattr(experiments, "_invariance_tables", third_is_dependent)
        result = experiments.check_strict_invariance(np.random.default_rng(4), 5)
        assert len(alone) == 1 and not alone[0].is_invariant
        assert result.max_deviation == alone[0].max_deviation > 0.5
        assert result.detail.endswith("misclassified: 1") and not result.passed

    def test_grouped_reports_count_the_one_dependent_table(self):
        products, copies, _ = experiments._invariance_tables(np.random.default_rng(9), 7)
        products[2] = copies[2]
        reports = check_strict_invariance(_cell_table(products), (0, 1, 2), (1,), grouped=True)
        assert len(reports) == 7
        assert [r.is_invariant for r in reports] == [True, True, False, True, True, True, True]
        assert reports[2] == check_strict_invariance(_cell_table(copies[2]), (0, 1), (0,))

    def test_outputs_of_another_stack_raise_table_mismatch(self):
        counts = experiments._random_tables(np.random.default_rng(2), 10)[0]
        stacks = [_cell_table(half) for half in (counts[:5], counts[5:])]
        opt = optimal_outputs(stacks[0], (0, 1))
        with pytest.raises(GvlabError) as err:
            estimated_training_error(opt, stacks[1], grouped=True)
        assert err.value.code == "table-mismatch"

    def test_all_zero_block_keeps_the_one_count_fallback(self):
        """An all-zero table has one count at its first cell, drawn alone
        (the per-table reference) and in a stack."""
        alone = _cell_table(nonempty(np.zeros((2, 3, 2), dtype=np.int64)))
        assert alone.cells.tolist() == [[0, 0, 0]] and alone.counts.tolist() == [1]
        products, _, sizes = experiments._invariance_tables(np.random.default_rng(3), 3)
        products[1] = 0
        stack = _cell_table(experiments._boxed(products, *sizes[:3]))
        in_stack = stack.cells[:, 0] == 1
        assert stack.cells[in_stack].tolist() == [[1, 0, 0, 0]]
        assert stack.counts[in_stack].tolist() == [1]

    def test_tables_moves_only_the_optimal_outputs_row(self):
        """Each sweep reads its own stream, so ``tables`` changes no other check."""
        small, large = theory_check_run(5, tables=7), theory_check_run(5, tables=200)
        for a, b in zip(small, large):
            if a.name == "optimal-outputs-closed-form":
                assert (a.detail, b.detail) == ("7 random tables vs mirror-descent minimizer",
                                                "200 random tables vs mirror-descent minimizer")
            else:
                assert a == b and a.max_deviation.hex() == b.max_deviation.hex()

    def test_training_error_peak_allocation(self):
        """The flat ``(500, 8, 4)`` draw and its nonzero cells keep the check
        under 1 MB; a ``(500, 8, 8, 4)`` padded stack peaked at 1.83 MB."""
        assert traced_peak(experiments.check_training_error,
                           np.random.default_rng(0), 500) < 1_000_000
