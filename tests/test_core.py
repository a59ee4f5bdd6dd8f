import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from gvlab.core import (BinningPolicy, Dataset, Exemplar, ExemplarTable, VariableSpec,
                        _column_codes, build_table, marginalize, read_dataset_csv,
                        write_dataset_csv)
from gvlab.errors import GvlabError
from gvlab.synth import as_variable_dataset, generate_toy, random_toy_spec


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

    def test_exemplar_roundtrip(self):
        ds = discrete_dataset([[0, 1], [1, 0]], [0, 1], cards=[2, 2], k=2)
        assert ds.exemplar(1) == Exemplar((1.0, 0.0), 1)
        rebuilt = Dataset.from_exemplars(ds.specs, [ds.exemplar(i) for i in range(ds.n)], ds.k)
        assert np.array_equal(rebuilt.values, ds.values)


class TestBuildTable:
    def test_direct_counting(self):
        ds = discrete_dataset([[0], [0], [1], [1]], [0, 0, 1, 1], cards=[2], k=2)
        table = build_table(ds, [0])
        assert table.counts == {((0,), 0): 2, ((1,), 1): 2}
        assert table.total == 4

    def test_empty_id_list_gives_label_marginals(self):
        ds = discrete_dataset([[0], [1], [1]], [0, 1, 1], cards=[2], k=2)
        table = build_table(ds, [])
        assert table.counts == {((), 0): 1, ((), 1): 2}
        assert table.total == 3

    def test_equal_width_binning(self):
        specs = (VariableSpec.continuous(0, "g0", 0.0, 1.0),)
        ds = Dataset(specs, np.array([[0.1], [0.9]]), np.array([0, 1]), 2)
        table = build_table(ds, [0], BinningPolicy(bins=2))
        assert table.counts == {((0,), 0): 1, ((1,), 1): 1}

    def test_out_of_range_values_clamp_to_boundary_bins(self):
        specs = (VariableSpec.continuous(0, "g0", 0.0, 1.0),)
        ds = Dataset(specs, np.array([[-5.0], [7.0]]), np.array([0, 1]), 2)
        table = build_table(ds, [0], BinningPolicy(bins=4))
        assert table.counts == {((0,), 0): 1, ((3,), 1): 1}
        assert table.total == 2

    def test_far_out_values_clamp_without_overflow(self):
        specs = (VariableSpec.continuous(0, "g0", 0.0, 1e-300),)
        ds = Dataset(specs, np.array([[1e10], [-1e10], [0.6e-300]]), np.array([0, 1, 1]), 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = build_table(ds, [0], BinningPolicy(bins=4))
        assert table.counts == {((0,), 1): 1, ((2,), 1): 1, ((3,), 0): 1}

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


class TestMarginalize:
    def setup_method(self):
        rng = np.random.default_rng(7)
        values = rng.integers(0, 3, size=(40, 2))
        self.ds = discrete_dataset(values, rng.integers(0, 2, size=40), cards=[3, 3], k=2)
        self.table = build_table(self.ds, [0, 1])

    def test_sums_over_dropped_variable(self):
        marg = marginalize(self.table, [0])
        direct = build_table(self.ds, [0])
        assert marg.counts == direct.counts
        assert marg.total == self.table.total

    def test_keeping_all_ids_is_identity(self):
        marg = marginalize(self.table, [0, 1])
        assert marg.counts == self.table.counts

    def test_full_marginalization_keeps_label_counts(self):
        marg = marginalize(self.table, [])
        assert marg.counts == build_table(self.ds, []).counts

    def test_non_subset_rejected(self):
        with pytest.raises(GvlabError) as err:
            marginalize(self.table, [5])
        assert err.value.code == "bad-variable"


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
    assert list(table.counts.items()) == list(reference.items())
    specs = [dataset.specs[j] for j in variable_ids]
    assert table.axis_sizes == tuple(s.cardinality if s.kind == "discrete" else binning.bins
                                     for s in specs)
    assert table.total == dataset.n


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
    view = as_variable_dataset(data.train, task_correlated_dims=10)
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
    assert marg.counts == direct.counts
    assert marg.total == direct.total == ds.n


@settings(max_examples=40, deadline=None)
@given(small_discrete_datasets())
def test_expand_and_rebuild_roundtrip(ds):
    """Expanding a table to weighted exemplars and recounting reproduces it."""
    table = build_table(ds, list(range(ds.m)))
    exemplars = []
    for (config, label), count in table.counts.items():
        exemplars.extend([Exemplar(tuple(float(v) for v in config), label)] * count)
    rebuilt = build_table(Dataset.from_exemplars(ds.specs, exemplars, ds.k),
                          list(range(ds.m)))
    assert rebuilt.counts == table.counts
    assert rebuilt.total == table.total


def test_exemplar_table_total_validated():
    with pytest.raises(GvlabError):
        ExemplarTable((0,), (2,), {((0,), 0): 1}, total=5, k=2)


def test_dataset_csv_roundtrip(tmp_path):
    specs = (VariableSpec.discrete(0, "g0", 3),
             VariableSpec.continuous(1, "g1", -1.0, 1.0))
    rng = np.random.default_rng(3)
    values = np.column_stack([rng.integers(0, 3, 20), rng.uniform(-1, 1, 20)])
    ds = Dataset(specs, values, rng.integers(0, 2, 20), 2)
    path = tmp_path / "data.csv"
    write_dataset_csv(ds, str(path))
    header = path.read_text().splitlines()[0]
    assert header == "g0,g1,y"
    back = read_dataset_csv(str(path), specs, 2)
    np.testing.assert_array_equal(back.values, ds.values)
    np.testing.assert_array_equal(back.labels, ds.labels)


@pytest.mark.parametrize("row", ["1,0.5", "1,abc,0"])
def test_dataset_csv_malformed_row_rejected(tmp_path, row):
    specs = (VariableSpec.discrete(0, "g0", 3),
             VariableSpec.continuous(1, "g1", -1.0, 1.0))
    path = tmp_path / "data.csv"
    path.write_text(f"g0,g1,y\n0,0.25,1\n{row}\n")
    with pytest.raises(GvlabError) as err:
        read_dataset_csv(str(path), specs, 2)
    assert err.value.code == "bad-csv"
    assert ":3:" in str(err.value)
