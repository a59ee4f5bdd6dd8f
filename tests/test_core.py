import ast
import math
import sys
import types
import warnings
from pathlib import Path
from typing import Literal, get_args, get_origin, get_type_hints

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import gvlab
from gvlab.core import (BinningPolicy, Dataset, ExemplarTable, VariableSpec, _column_codes,
                        build_table, marginalize, rows_csv, stream)
from gvlab.errors import GvlabError
from gvlab.experiments import CheckResult
from gvlab.synth import generate_toy, random_toy_spec
from gvlab.theory import BoundReport

from csv_reference import REFERENCE
from dict_tables import table_dict, table_from_dict
from vector_view import as_variable_dataset


def discrete_dataset(values, labels, cards, k):
    specs = tuple(VariableSpec.discrete(j, f"g{j}", c) for j, c in enumerate(cards))
    return Dataset(specs, np.array(values, dtype=float), np.array(labels), k)


class TestVariableSpec:
    def test_discrete_needs_positive_cardinality(self):
        with pytest.raises(GvlabError) as err:
            VariableSpec.discrete(0, "g0", 0)
        assert err.value.code == "bad-variable"

    def test_continuous_needs_nondegenerate_range(self):
        with pytest.raises(GvlabError):
            VariableSpec.continuous(0, "g0", 1.0, 1.0)

    def test_valid_specs(self):
        VariableSpec.discrete(0, "g0", 1)
        VariableSpec.continuous(1, "g1", -2.0, 3.0, "task_uncorrelated")

    def test_continuous_range_must_be_finite(self):
        with pytest.raises(GvlabError):
            VariableSpec.continuous(0, "g0", 0.0, float("inf"))

    def test_continuous_width_must_be_finite(self):
        with pytest.raises(GvlabError) as err:
            VariableSpec.continuous(0, "g", -1e308, 1e308)
        assert err.value.code == "bad-variable"


class TestDataset:
    def test_ids_must_be_dense_from_zero(self):
        specs = (VariableSpec.discrete(1, "g1", 2),)
        with pytest.raises(GvlabError):
            Dataset(specs, np.zeros((1, 1)), np.zeros(1, dtype=int), 2)

    def test_discrete_codes_validated(self):
        with pytest.raises(GvlabError):
            discrete_dataset([[2]], [0], cards=[2], k=2)

    def test_labels_validated(self):
        with pytest.raises(GvlabError):
            discrete_dataset([[0]], [2], cards=[2], k=2)

    def test_values_must_be_finite(self):
        specs = (VariableSpec.continuous(0, "g0", 0.0, 1.0),)
        with pytest.raises(GvlabError):
            Dataset(specs, np.array([[float("nan")]]), np.zeros(1, dtype=int), 2)


class TestBuildTable:
    def test_direct_counting(self):
        ds = discrete_dataset([[0], [0], [1], [1]], [0, 0, 1, 1], cards=[2], k=2)
        table = build_table(ds, [0])
        assert table_dict(table) == {((0,), 0): 2, ((1,), 1): 2}
        assert table.total == 4

    def test_empty_id_list_gives_label_marginals(self):
        ds = discrete_dataset([[0], [1], [1]], [0, 1, 1], cards=[2], k=2)
        table = build_table(ds, [])
        assert table_dict(table) == {((), 0): 1, ((), 1): 2}
        assert table.total == 3

    def test_equal_width_binning(self):
        specs = (VariableSpec.continuous(0, "g0", 0.0, 1.0),)
        ds = Dataset(specs, np.array([[0.1], [0.9]]), np.array([0, 1]), 2)
        table = build_table(ds, [0], BinningPolicy(bins=2))
        assert table_dict(table) == {((0,), 0): 1, ((1,), 1): 1}

    def test_out_of_range_values_clamp_to_boundary_bins(self):
        specs = (VariableSpec.continuous(0, "g0", 0.0, 1.0),)
        ds = Dataset(specs, np.array([[-5.0], [7.0]]), np.array([0, 1]), 2)
        table = build_table(ds, [0], BinningPolicy(bins=4))
        assert table_dict(table) == {((0,), 0): 1, ((3,), 1): 1}
        assert table.total == 2

    def test_far_out_values_clamp_without_overflow(self):
        specs = (VariableSpec.continuous(0, "g0", 0.0, 1e-300),)
        ds = Dataset(specs, np.array([[1e10], [-1e10], [0.6e-300]]), np.array([0, 1, 1]), 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = build_table(ds, [0], BinningPolicy(bins=4))
        assert table_dict(table) == {((0,), 1): 1, ((2,), 1): 1, ((3,), 0): 1}

    def test_range_too_narrow_to_bin_rejected(self):
        """A bin width that underflows below the smallest normal float is
        ``bad-variable`` naming the variable, not a division by zero."""
        specs = (VariableSpec.continuous(0, "g", 0.0, 5e-324),)
        ds = Dataset(specs, np.array([[0.0], [5e-324]]), np.array([0, 1]), 2)
        with pytest.raises(GvlabError) as err:
            build_table(ds, [0], BinningPolicy(bins=4))
        assert err.value.code == "bad-variable"
        assert "'g'" in str(err.value)

    def test_narrowest_binnable_range_is_accepted(self):
        tiny = sys.float_info.min
        specs = (VariableSpec.continuous(0, "g", 0.0, 4 * tiny),)
        ds = Dataset(specs, np.array([[0.0], [1.5 * tiny], [4 * tiny]]), np.array([0, 1, 1]), 2)
        table = build_table(ds, [0], BinningPolicy(bins=4))
        assert table_dict(table) == {((0,), 0): 1, ((1,), 1): 1, ((3,), 1): 1}

    @settings(max_examples=200, deadline=None)
    @given(st.floats(-1e6, 1e6), st.floats(1e-6, 1e6), st.integers(2, 50), st.data())
    def test_in_range_bins_are_plain_floor(self, lo, span, bins, data):
        hi = lo + span
        assume(lo < hi)
        values = data.draw(st.lists(st.floats(lo, hi), min_size=1, max_size=20))
        spec = VariableSpec.continuous(0, "g0", lo, hi)
        ds = Dataset((spec,), np.array(values)[:, None], np.zeros(len(values), dtype=int), 1)
        width = (hi - lo) / bins
        expected = np.minimum(np.floor((np.array(values) - lo) / width), bins - 1)
        np.testing.assert_array_equal(_column_codes(ds, spec, BinningPolicy(bins)), expected)

    def test_empty_dataset_rejected(self):
        ds = discrete_dataset(np.zeros((0, 1)), [], cards=[2], k=2)
        with pytest.raises(GvlabError) as err:
            build_table(ds, [0])
        assert err.value.code == "empty-dataset"

    def test_unknown_variable_rejected(self):
        ds = discrete_dataset([[0]], [0], cards=[2], k=2)
        with pytest.raises(GvlabError) as err:
            build_table(ds, [3])
        assert err.value.code == "bad-variable"

    def test_binning_policy_requires_two_bins(self):
        with pytest.raises(GvlabError) as err:
            BinningPolicy(bins=1)
        assert err.value.code == "bad-binning"

    def test_binning_policy_caps_bins_at_exact_float_codes(self):
        assert BinningPolicy(bins=2**53).bins == 2**53
        for bins in (2**53 + 1, 2**63, 10**30):
            with pytest.raises(GvlabError) as err:
                BinningPolicy(bins=bins)
            assert err.value.code == "bad-binning"


class TestMarginalize:
    def setup_method(self):
        rng = np.random.default_rng(7)
        values = rng.integers(0, 3, size=(40, 2))
        self.ds = discrete_dataset(values, rng.integers(0, 2, size=40), cards=[3, 3], k=2)
        self.table = build_table(self.ds, [0, 1])

    def test_sums_over_dropped_variable(self):
        marg = marginalize(self.table, [0])
        assert marg == build_table(self.ds, [0])
        assert marg.total == self.table.total

    def test_keeping_all_ids_is_identity(self):
        assert marginalize(self.table, [0, 1]) == self.table

    def test_keeping_all_ids_in_order_returns_the_table(self):
        assert marginalize(self.table, self.table.variable_ids) is self.table

    def test_permuted_keep_builds_a_new_table(self):
        marg = marginalize(self.table, [1, 0])
        assert marg is not self.table
        assert marg.variable_ids == (1, 0)
        assert marg == build_table(self.ds, [1, 0])

    def test_full_marginalization_keeps_label_counts(self):
        assert marginalize(self.table, []) == build_table(self.ds, [])

    def test_non_subset_rejected(self):
        with pytest.raises(GvlabError) as err:
            marginalize(self.table, [5])
        assert err.value.code == "bad-variable"

    def test_counts_sum_exactly_past_float_precision(self):
        table = ExemplarTable((0,), (2,), [[0, 0], [1, 0]], [2**53 + 1, 1], 2)
        assert marginalize(table, []).counts.tolist() == [2**53 + 2] == [table.total]


@st.composite
def small_discrete_datasets(draw):
    m = draw(st.integers(1, 3))
    cards = [draw(st.integers(1, 3)) for _ in range(m)]
    k = draw(st.integers(1, 3))
    n = draw(st.integers(1, 25))
    values = [[draw(st.integers(0, c - 1)) for c in cards] for _ in range(n)]
    labels = [draw(st.integers(0, k - 1)) for _ in range(n)]
    return discrete_dataset(values, labels, cards, k)


def reference_counts(dataset, variable_ids, binning=BinningPolicy()):
    """Row-sort counting: keys in the lexicographic order of (config, label) rows."""
    columns = [_column_codes(dataset, dataset.specs[j], binning) for j in variable_ids]
    stacked = np.column_stack(columns + [dataset.labels])
    rows, counts = np.unique(stacked, axis=0, return_counts=True)
    table_counts = {}
    for row, count in zip(rows, counts):
        table_counts[(tuple(int(v) for v in row[:-1]), int(row[-1]))] = int(count)
    return table_counts


def assert_matches_reference(dataset, variable_ids, binning=BinningPolicy()):
    table = build_table(dataset, variable_ids, binning)
    reference = reference_counts(dataset, variable_ids, binning)
    assert list(table_dict(table).items()) == list(reference.items())
    specs = [dataset.specs[j] for j in variable_ids]
    assert table.axis_sizes == tuple(s.cardinality if s.kind == "discrete" else binning.bins
                                     for s in specs)
    assert table.total == dataset.n
    # build_table skips the constructor's checks; the checked build agrees.
    assert table == table_from_dict(reference, table.axis_sizes, dataset.k, table.variable_ids)
    assert table.cells.dtype == table.counts.dtype == np.int64
    for array in (table.cells, table.counts):
        with pytest.raises(ValueError):
            array[0] = 0


@st.composite
def mixed_datasets(draw):
    m = draw(st.integers(1, 4))
    specs, columns = [], []
    for j in range(m):
        if draw(st.booleans()):
            card = draw(st.integers(1, 4))
            specs.append(VariableSpec.discrete(j, f"g{j}", card))
            columns.append(("discrete", card))
        else:
            specs.append(VariableSpec.continuous(j, f"g{j}", -1.0, 1.0))
            columns.append(("continuous", None))
    k = draw(st.integers(1, 3))
    n = draw(st.integers(1, 30))
    values = [[draw(st.integers(0, card - 1)) if kind == "discrete"
               else draw(st.floats(-1.5, 1.5)) for kind, card in columns] for _ in range(n)]
    labels = [draw(st.integers(0, k - 1)) for _ in range(n)]
    return Dataset(tuple(specs), np.array(values, dtype=float), np.array(labels), k)


@settings(max_examples=150, deadline=None)
@given(mixed_datasets(), st.data(), st.integers(2, 5))
def test_counts_keep_row_sort_order(ds, data, bins):
    """Keys, axis sizes and total match the row-sort reference, order included."""
    ids = data.draw(st.permutations(range(ds.m)).flatmap(
        lambda perm: st.integers(0, len(perm)).map(lambda size: perm[:size])))
    assert_matches_reference(ds, ids, BinningPolicy(bins))


def test_wide_toy_view_matches_reference():
    data = generate_toy(random_toy_spec(seed=3, dims=20, task_correlated_dims=10, per_class=400))
    view = as_variable_dataset(data.train)
    for ids in (list(range(20)), list(range(19, -1, -1)), [12, 3, 7], []):
        assert_matches_reference(view, ids)


@pytest.mark.parametrize("cards", [[2 ** 40, 2 ** 40, 3], [5, 2 ** 64, 7]])
def test_cell_space_beyond_int64_matches_reference(cards):
    """Tables whose cardinality product passes 2**63 are counted without overflow."""
    rng = np.random.default_rng(11)
    n = 200
    values = np.column_stack([rng.integers(0, min(c, 2 ** 40), n) for c in cards])
    values[n // 2:] = values[:n - n // 2]  # repeated rows give counts above 1
    ds = discrete_dataset(values, rng.integers(0, 3, n), cards=cards, k=3)
    assert math.prod(cards) * ds.k > 2 ** 63
    assert_matches_reference(ds, [0, 1, 2])
    assert_matches_reference(ds, [2, 0, 1])


@settings(max_examples=60, deadline=None)
@given(small_discrete_datasets(), st.data())
def test_build_then_marginalize_equals_direct_build(ds, data):
    keep = data.draw(st.lists(st.sampled_from(range(ds.m)), unique=True))
    table = build_table(ds, list(range(ds.m)))
    marg = marginalize(table, keep)
    direct = build_table(ds, keep)
    assert marg == direct
    assert marg.total == direct.total == ds.n


@settings(max_examples=40, deadline=None)
@given(small_discrete_datasets())
def test_expand_and_rebuild_roundtrip(ds):
    """Expanding a table to weighted exemplars and recounting reproduces it."""
    table = build_table(ds, list(range(ds.m)))
    rows = np.repeat(table.cells, table.counts, axis=0)
    rebuilt = build_table(Dataset(ds.specs, rows[:, :-1], rows[:, -1], ds.k),
                          list(range(ds.m)))
    assert rebuilt == table


@pytest.mark.parametrize("ids, sizes, cells, counts, k", [
    pytest.param((0, 1), (2,), [[0, 0, 0]], [1], 2, id="axis-sizes-vs-ids"),
    pytest.param((0, 0), (2, 2), [[0, 0, 0]], [1], 2, id="duplicate-ids"),
    pytest.param((0,), (2,), [[0, 0], [1, 1]], [3, -1], 2, id="negative-count"),
    pytest.param((0,), (2,), [[0, 0], [1, 1]], [3, 0], 2, id="zero-count"),
    pytest.param((0,), (2,), [[0, 0, 0], [0, 1, 1]], [1, 1], 2, id="arity-mismatch"),
    pytest.param((0,), (2,), [0, 1], [1], 2, id="one-dimensional-cells"),
    pytest.param((0,), (2,), [[0, 0], [1, 1]], [2], 2, id="counts-vs-cells"),
    pytest.param((0, 1), (2, 3), [[0, 0, 0], [1, 3, 0]], [1, 1], 2, id="config-too-large"),
    pytest.param((0, 1), (2, 3), [[0, 0, 0], [1, 7, 0]], [1, 1], 2, id="config-beyond-size"),
    pytest.param((0, 1), (2, 3), [[-1, 0, 0], [0, 0, 0]], [1, 1], 2, id="config-negative"),
    pytest.param((0,), (2,), [[0, 0], [1, 2]], [1, 1], 2, id="label-too-large"),
    pytest.param((0,), (2,), [[0, 0], [1, 5]], [1, 1], 2, id="label-beyond-k"),
    pytest.param((0,), (2,), [[0, -1], [1, 0]], [1, 1], 2, id="label-negative"),
    pytest.param((0,), (2,), [[1, 1], [0, 0]], [1, 1], 2, id="unsorted-cells"),
    pytest.param((0,), (2,), [[0, 1], [0, 0]], [1, 1], 2, id="unsorted-labels"),
    pytest.param((0,), (2,), [[0, 0], [0, 0]], [1, 1], 2, id="duplicate-cells"),
    pytest.param((0,), (2,), [[0.5, 0], [1, 1]], [0.5, 0.5], 2, id="fractional-cells"),
    pytest.param((0,), (2,), [[0, 0], [1, 1]], [0.5, 1.5], 2, id="fractional-count"),
    pytest.param((0,), (2,), [[0, 0], [1, 1]], [2.0, 1.0], 2, id="float-count"),
    pytest.param((0,), (2,), [[0.5, 0], [1, 1]], [1, 1], 2, id="fractional-config"),
    pytest.param((0,), (2,), [[0, 0.0], [1, 1]], [1, 1], 2, id="float-label"),
    pytest.param((0,), (2,), [[0, 0], [1, 1]], [True, True], 2, id="bool-count"),
    pytest.param((0,), (2,), [[0, 0], [1, 1]], [2**62, 2**62], 2, id="total-past-int64"),
    pytest.param((0,), (2.0,), [[0, 0], [1, 1]], [1, 1], 2, id="float-axis-size"),
    pytest.param((0,), (2,), [[0, 0], [1, 1]], [1, 1], 2.0, id="float-k"),
    pytest.param((0,), (2,), [[0, 0], [1]], [1, 1], 2, id="ragged-cells"),
    pytest.param((0,), (2,), [[0, 0], [1, 1]], [[1], [1, 2]], 2, id="ragged-counts"),
    pytest.param((0,), (2,), [[0, 0], [1, 1]], [[1, 1], 1], 2, id="ragged-count-depth"),
])
def test_exemplar_table_rejects_bad_input(ids, sizes, cells, counts, k):
    with pytest.raises(GvlabError) as err:
        ExemplarTable(ids, sizes, cells, counts, k)
    assert err.value.code == "bad-variable"


def test_exemplar_table_accepts_numpy_integers():
    cells = np.array([[0, 1], [1, 0]], dtype=np.int32)
    table = ExemplarTable((0,), (np.int64(2),), cells, np.array([2, 3], dtype=np.uint8),
                          np.int64(2))
    assert table.total == 5
    assert table.cells.dtype == table.counts.dtype == np.int64


def test_exemplar_table_total_reaches_int64_max():
    table = ExemplarTable((0,), (2,), [[0, 0], [1, 1]], [2**62, 2**62 - 1], 2)
    assert table.total == 2**63 - 1


def test_exemplar_table_owns_read_only_arrays():
    cells, counts = np.array([[0, 1], [1, 0]]), np.array([2, 3])
    table = ExemplarTable((0,), (2,), cells, counts, 2)
    cells[0, 0], counts[0] = 1, 9  # the caller's arrays stay the caller's
    assert table_dict(table) == {((0,), 1): 2, ((1,), 0): 3}
    with pytest.raises(ValueError):
        table.counts[0] = 1


def test_exemplar_table_equality_compares_fields():
    table = ExemplarTable((0,), (2,), [[0, 1], [1, 0]], [2, 3], 2)
    assert table == ExemplarTable((0,), (2,), [[0, 1], [1, 0]], [2, 3], 2)
    assert table != ExemplarTable((0,), (2,), [[0, 1], [1, 0]], [2, 4], 2)
    assert table != ExemplarTable((0,), (2,), [[0, 1], [1, 1]], [2, 3], 2)
    assert table != ExemplarTable((0,), (2,), [[0, 1], [1, 0]], [2, 3], 3)
    assert table != ExemplarTable((1,), (2,), [[0, 1], [1, 0]], [2, 3], 2)
    assert table != "table"


@pytest.mark.parametrize("sizes", [(2, 3), (2 ** 40, 2 ** 40)])
def test_empty_table_has_zero_total(sizes):
    table = ExemplarTable((0, 1), sizes, np.zeros((0, 3), dtype=np.int64),
                          np.zeros(0, dtype=np.int64), 3)
    assert table.total == 0
    for keep in ([], [1, 0]):
        marg = marginalize(table, keep)
        assert marg.cells.shape == (0, len(keep) + 1) and marg.total == 0


#: Floats with the edge cases of ``repr`` mixed in: signed zeros, the
#: smallest subnormal and values near the top of the range.
CSV_FLOATS = st.one_of(st.floats(), st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e300]))


def field_values(hint):
    """Strategy for one dataclass field from its resolved type hint."""
    if get_origin(hint) is Literal:
        return st.sampled_from(get_args(hint))
    if get_origin(hint) is types.UnionType:
        return st.one_of(*map(field_values, get_args(hint)))
    return {bool: st.booleans(), int: st.integers(), float: CSV_FLOATS, str: st.text(),
            type(None): st.none()}[hint]


@pytest.mark.parametrize("report", sorted(REFERENCE))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_rows_csv_matches_reference_formatters(report, data):
    cls, header, reference = REFERENCE[report]
    hints = get_type_hints(cls)
    rows = data.draw(st.lists(st.builds(cls, **{name: field_values(hint)
                                                for name, hint in hints.items()}), max_size=4))
    assert rows_csv(header, rows) == reference(rows)


def test_rows_csv_writes_numpy_scalars_as_python_values():
    report = BoundReport.evaluate(2, 2, np.int64(1000), np.float64(0.05), np.float64(0.1))
    cells = rows_csv("T,K,n,delta,gamma,thm1_gap,thm2_excess", [report]).splitlines()[1]
    assert cells.split(",")[2:5] == ["1000", "0.05", "0.1"]
    check = CheckResult("c", np.bool_(True), np.float64(0.05), "detail")
    assert rows_csv("check,passed,max_deviation", [check]) == (
        "check,passed,max_deviation\nc,true,0.05\n")


@pytest.mark.parametrize("seed", [0, 7, 2**31 + 5, 2**63 + 11, 20240501])
def test_stream_draws_what_default_rng_draws(seed):
    assert stream(seed).bytes(64) == np.random.default_rng(seed).bytes(64)


def _dotted_name(node) -> str:
    if isinstance(node, ast.Attribute):
        return f"{_dotted_name(node.value)}.{node.attr}"
    return node.id if isinstance(node, ast.Name) else ""


def test_only_core_builds_random_generators():
    """``core.stream`` and ``core.derive_seed`` are the one seed derivation: no
    other module builds a generator or calls numpy's legacy global-state functions."""
    calls = []
    for path in sorted(Path(gvlab.__file__).parent.glob("*.py")):
        if path.name == "core.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            name = _dotted_name(node.func) if isinstance(node, ast.Call) else ""
            if (name.rpartition(".")[2] in ("default_rng", "SeedSequence")
                    or name.startswith(("np.random.", "numpy.random."))):
                calls.append(f"{path.name}:{node.lineno} {name}")
    assert calls == []


#: Functions of ``src/gvlab`` that no CLI run reaches, kept on purpose, by
#: ``module.qualname``.
UNREACHED_BY_THE_CLI = {
    **dict.fromkeys(
        ["core.Dataset.__post_init__", "core.Dataset.n", "core.Dataset.m",
         "core.VariableSpec.__post_init__", "core.VariableSpec.continuous",
         "core.VariableSpec.discrete", "core.ExemplarTable.__post_init__",
         "core.ExemplarTable.total", "core._equal_fields", "core._check_row_order",
         "core._column_codes", "core._cell_codes", "core.build_table", "core.marginalize",
         "info._group_entropy", "info.entropy", "info.conditional_entropy"],
        "the Dataset/build_table/marginalize/entropy table layer: library API for the "
        "theory tests and ROADMAP item 16"),
    **dict.fromkeys(
        ["synth.invar_tg", "synth.InvarTGConfig.__post_init__", "synth.balance_substitute",
         "synth.influence_rank"],
        "the paper's algorithm, InvarTG, which no CLI protocol runs"),
    "theory.addition_rule": "the library rule that criterion 05 is stated over",
    "models.loss_and_gradients": "criterion 09",
    "models.LinearModel.k": "read by loss_and_gradients (criterion 09)",
    "augment.draw_params": "criterion 10",
    "models.risk": "ROADMAP item 3",
    "models.LinearModel.forward": "ROADMAP item 3",
    "models._probs": "the scores of LinearModel.forward (ROADMAP item 3)",
    "theory.OptimalOutputs.__post_init__": "the public constructor's checks",
    "cli._list_of": "called while cli is imported, to build _CONFIG_KEYS",
    "errors.GvlabError.__reduce__": "pickles an error out of a worker; --jobs 1 runs none",
}


def _defined_functions() -> dict[tuple[str, int], str]:
    """``module.qualname`` of every function in ``src/gvlab`` by (file, first
    line), the line of its first decorator, as ``co_firstlineno`` counts."""
    found = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[str(path), first] = f"{path.stem}.{prefix}{child.name}"
                visit(child, path, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.")
            else:
                visit(child, path, prefix)

    for path in sorted(Path(gvlab.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text(), str(path)), path, "")
    return found


def test_every_function_is_reached_by_a_cli_run_or_kept(tmp_path, monkeypatch):
    """Every subcommand, both ``--corrupt`` hooks, config files and error paths,
    run in-process at small scale under ``sys.setprofile``: each function of
    ``src/gvlab`` is reached, or on the keep list with its reason."""
    from gvlab.cli import build_parser, entry, main

    build_parser.cache_clear()  # so that this run builds the parser, whatever ran before

    config = tmp_path / "run.cfg"
    config.write_text("# a comment\nplot = true\nlearning_rate = 0.01\nbins = 8\n"
                      "interval_3 = 0.1, 0.4, 0.2, 0.5\narea_lo = 0.05\n")
    small_toy = ["--datasets", "1", "--per-class", "600", "--epochs", "2"]
    runs = [
        ["toy-influence", *small_toy, "--config", str(config)],
        ["toy-balance", *small_toy],
        ["bounds", "--n-grid", "100,200", "--gamma-grid", "0.1"],
        ["theory-check", "--tables", "5"],
        *(["theory-check", "--tables", "5", "--corrupt", name]
          for name in ("max-prob-bound", "optimal-outputs-closed-form")),
        ["augment-sweep", "--datasets", "1", "--alphas", "0.5", "--laws", "uniform",
         "--epochs", "1", "--repeats", "1", "--config", str(config)],
        ["bounds", "--config", str(tmp_path / "missing.cfg")],
        ["bounds", "--delta", "two"],
    ]
    reached = set()

    def profile(frame, event, arg):
        if event == "call":
            reached.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    monkeypatch.setattr(sys, "argv", ["gvlab", "bounds", "--bogus"])
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        codes = [main([*argv, "--jobs", "1", "--out", str(tmp_path / "out")]) for argv in runs]
        with pytest.raises(SystemExit) as exit_status:
            entry()
    finally:
        sys.setprofile(previous)
    assert codes == [0, 0, 0, 1, 1, 1, 0, 1, 1] and exit_status.value.code == 1
    defined = _defined_functions()
    assert set(UNREACHED_BY_THE_CLI) <= set(defined.values())
    unreached = sorted(name for key, name in defined.items()
                       if key not in reached and name not in UNREACHED_BY_THE_CLI)
    assert unreached == []
