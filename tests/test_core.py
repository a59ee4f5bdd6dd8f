import ast
import sys
import types
from pathlib import Path
from typing import Literal, get_args, get_origin, get_type_hints

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import gvlab
from gvlab import theory
from gvlab.core import BinningPolicy, ExemplarTable, _range_codes, rows_csv, stream
from gvlab.errors import GvlabError
from gvlab.experiments import CheckResult, _cell_table
from gvlab.models import VectorDataset
from gvlab.synth import _vector_codes, generate_toy, random_toy_spec
from gvlab.theory import BoundReport, optimal_outputs

from csv_reference import REFERENCE
from dict_tables import count_table, marginal, table_dict, vector_codes


def label_count_rows(table):
    """``{configuration: [count per label]}`` of a table, in cell order, by a dict loop."""
    rows = {}
    for (config, label), count in table_dict(table).items():
        rows.setdefault(config, [0] * table.k)[label] += count
    return rows


def assert_label_counts(table, ids, expected):
    """``theory._label_counts(table, ids)`` holds the rows of ``expected``, a
    table over ``ids`` counted some other way, in its order."""
    configs, counts = theory._label_counts(table, ids)
    assert list(zip(map(tuple, configs.tolist()), counts.tolist())) == \
        list(label_count_rows(expected).items())


class TestDataset:
    """``VectorDataset`` is the one data model: its labels are checked, and its
    values wherever they are binned."""

    def test_labels_validated(self):
        with pytest.raises(GvlabError) as err:
            VectorDataset([[0.0]], [2], 2)
        assert err.value.code == "bad-variable"

    def test_values_must_be_finite(self):
        with pytest.raises(GvlabError) as err:
            _vector_codes(VectorDataset([[float("nan")], [0.0]], [0, 1], 2), [0], BinningPolicy())
        assert err.value.code == "bad-variable"


class TestBuildTable:
    """What tables are built from: the one binning rule, ``core._range_codes``;
    the checks of the vector path that feeds it; and the reference's row count."""

    def test_direct_counting(self):
        table = count_table([np.array([0, 0, 1, 1])], np.array([0, 0, 1, 1]), 2)
        assert table_dict(table) == {((0,), 0): 2, ((1,), 1): 2}

    def test_empty_id_list_gives_label_marginals(self):
        table = count_table([np.array([0, 1, 1])], np.array([0, 1, 1]), 2)
        configs, counts = theory._label_counts(table, [])
        assert configs.shape == (1, 0) and counts.tolist() == [[1.0, 2.0]]

    def test_equal_width_binning(self):
        assert _range_codes(np.array([0.1, 0.9]), 0.0, 1.0, 2, "g0").tolist() == [0, 1]

    def test_range_too_narrow_to_bin_rejected(self):
        """A bin width that underflows below the smallest normal float is
        ``bad-variable`` naming the variable, not a division by zero."""
        with pytest.raises(GvlabError) as err:
            _range_codes(np.array([0.0, 5e-324]), 0.0, 5e-324, 4, "g")
        assert err.value.code == "bad-variable"
        assert "'g'" in str(err.value)

    def test_narrowest_binnable_range_is_accepted(self):
        tiny = sys.float_info.min
        codes = _range_codes(np.array([0.0, 1.5 * tiny, 4 * tiny]), 0.0, 4 * tiny, 4, "g")
        assert codes.tolist() == [0, 1, 3]

    @settings(max_examples=200, deadline=None)
    @given(st.floats(-1e6, 1e6), st.floats(1e-6, 1e6), st.integers(2, 50), st.data())
    def test_in_range_bins_are_plain_floor(self, lo, span, bins, data):
        hi = lo + span
        assume(lo < hi)
        values = np.array(data.draw(st.lists(st.floats(lo, hi), min_size=1, max_size=20)))
        expected = np.minimum(np.floor((values - lo) / ((hi - lo) / bins)), bins - 1)
        np.testing.assert_array_equal(_range_codes(values, lo, hi, bins, "g0"), expected)

    def test_empty_dataset_rejected(self):
        data = VectorDataset(np.zeros((0, 1)), np.zeros(0, dtype=int), 2)
        with pytest.raises(GvlabError) as err:
            _vector_codes(data, [0], BinningPolicy())
        assert err.value.code == "empty-dataset"

    def test_unknown_variable_rejected(self):
        with pytest.raises(GvlabError) as err:
            _vector_codes(VectorDataset([[0.0]], [0], 2), [3], BinningPolicy())
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
    """``theory._label_counts`` sums a table's counts over the variables it
    leaves out, as counting the rows over the kept ones directly does."""

    def setup_method(self):
        rng = np.random.default_rng(7)
        self.codes, self.labels = rng.integers(0, 3, size=(2, 40)), rng.integers(0, 2, size=40)
        self.table = count_table(self.codes, self.labels, 2)

    def direct(self, ids):
        return count_table(self.codes[list(ids)], self.labels, 2)

    def test_sums_over_dropped_variable(self):
        for ids in ((0,), (1,)):
            assert_label_counts(self.table, ids, self.direct(ids))

    def test_keeping_all_ids_is_identity(self):
        assert_label_counts(self.table, (0, 1), self.table)

    def test_keeping_all_ids_in_order_returns_the_table(self, monkeypatch):
        """On the table's ids in order, or a prefix of them, the cells already
        run by configuration: nothing is sorted."""
        def refuse(*args, **kwargs):
            raise AssertionError("a prefix of the table's ids was sorted")

        expected = {ids: self.direct(ids) for ids in ((0, 1), (0,), ())}
        monkeypatch.setattr(np, "unique", refuse)
        for ids, direct in expected.items():
            assert_label_counts(self.table, ids, direct)

    def test_permuted_keep_builds_a_new_table(self):
        assert_label_counts(self.table, (1, 0), self.direct((1, 0)))

    def test_full_marginalization_keeps_label_counts(self):
        configs, counts = theory._label_counts(self.table, ())
        assert configs.shape == (1, 0)
        assert counts.tolist() == [np.bincount(self.labels, minlength=2).tolist()]

    def test_non_subset_rejected(self):
        for ids in ([5], [1, 1]):
            with pytest.raises(GvlabError) as err:
                optimal_outputs(self.table, ids)
            assert err.value.code == "bad-variable"

    def test_counts_sum_exactly_past_float_precision(self):
        table = ExemplarTable((0, 1), (2, 2), [[0, 0, 0], [1, 0, 0]], [2**53 + 1, 1], 2)
        assert theory._label_counts(table, (1,))[1].tolist() == [[float(2**53 + 2), 0.0]]


@st.composite
def small_code_tables(draw):
    """Rows of 1..3 code columns (1..3 codes each) with labels in 0..k-1, k in 1..3."""
    m, k, n = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 25))
    codes = np.array([[draw(st.integers(0, 2)) for _ in range(n)] for _ in range(m)])
    return codes, np.array([draw(st.integers(0, k - 1)) for _ in range(n)]), k


def ordered_subsets(m):
    """Strategy: an ordered subset of ``range(m)``, possibly empty."""
    return st.permutations(range(m)).flatmap(
        lambda perm: st.integers(0, len(perm)).map(lambda size: tuple(perm[:size])))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 30).flatmap(lambda n: st.tuples(
           st.lists(st.lists(st.floats(-1.5, 1.5), min_size=n, max_size=n), min_size=1, max_size=4),
           st.lists(st.integers(0, 2), min_size=n, max_size=n))),
       st.integers(2, 5), st.data())
def test_counts_keep_row_sort_order(rows, bins, data):
    """Label counts over any ordered subset of binned vector columns hold the
    rows of a direct row-sort count over that subset, order included."""
    columns, labels = rows
    vectors = VectorDataset(np.array(columns).T, labels, 3)
    codes = _vector_codes(vectors, range(vectors.d), BinningPolicy(bins))
    ids = data.draw(ordered_subsets(vectors.d))
    assert_label_counts(count_table(codes, vectors.y, 3), ids,
                        count_table(codes[list(ids)], vectors.y, 3))


def test_wide_toy_view_matches_reference():
    data = generate_toy(random_toy_spec(seed=3, dims=20, task_correlated_dims=10, per_class=400))
    codes = _vector_codes(data.train, range(20), BinningPolicy())
    assert codes.tobytes() == vector_codes(data.train, range(20), 10).tobytes()
    table = count_table(codes, data.train.y, 2)
    for ids in (list(range(20)), list(range(19, -1, -1)), [12, 3, 7], []):
        assert_label_counts(table, ids, count_table(codes[ids], data.train.y, 2))


@pytest.mark.parametrize("cards", [[2 ** 40, 2 ** 40, 3], [5, 2 ** 64, 7]])
def test_cell_space_beyond_int64_matches_reference(cards):
    """Label counts over axes whose size product passes 2**63 are keyed without overflow."""
    rng = np.random.default_rng(11)
    n = 200
    codes = np.array([rng.integers(0, min(c, 2 ** 40), n) for c in cards])
    codes[:, n // 2:] = codes[:, :n - n // 2]  # repeated rows give counts above 1
    table = count_table(codes, rng.integers(0, 3, n), 3, cards)
    for ids in ((2, 0, 1), (1, 2), (0, 1, 2)):
        assert_label_counts(table, ids, marginal(table, ids))


@settings(max_examples=60, deadline=None)
@given(small_code_tables(), st.data())
def test_build_then_marginalize_equals_direct_build(rows, data):
    """The optimal outputs over some variables of a table are those of the
    table counted directly over them, bit for bit."""
    codes, labels, k = rows
    keep = data.draw(ordered_subsets(len(codes)))
    got = optimal_outputs(count_table(codes, labels, k), keep)
    direct = optimal_outputs(count_table(codes[list(keep)], labels, k), range(len(keep)))
    assert got.configs.tobytes() == direct.configs.tobytes()
    assert got.probs.tobytes() == direct.probs.tobytes()


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_expand_and_rebuild_roundtrip(seed):
    """Expanding a table to weighted exemplars and recounting reproduces it."""
    rng = np.random.default_rng(seed)
    table = _cell_table(rng.integers(0, 4, size=(2, 3, 2)) + (np.arange(12) == 0).reshape(2, 3, 2))
    rows = np.repeat(table.cells, table.counts, axis=0)
    assert count_table(rows.T[:-1], rows[:, -1], table.k, table.axis_sizes) == table


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
    assert table.counts.tolist() == [2, 3]
    assert table.cells.dtype == table.counts.dtype == np.int64


def test_exemplar_table_total_reaches_int64_max():
    table = ExemplarTable((0,), (2,), [[0, 0], [1, 1]], [2**62, 2**62 - 1], 2)
    assert sum(table.counts.tolist()) == 2**63 - 1


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
    """An empty table is a valid table; the theory refuses it as ``empty-table``."""
    table = ExemplarTable((0, 1), sizes, np.zeros((0, 3), dtype=np.int64),
                          np.zeros(0, dtype=np.int64), 3)
    assert table.counts.sum() == 0
    for keep in ([], [1, 0]):
        with pytest.raises(GvlabError) as err:
            optimal_outputs(table, keep)
        assert err.value.code == "empty-table"


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
    **dict.fromkeys(["core.ExemplarTable.__post_init__", "theory.OptimalOutputs.__post_init__",
                     "core._check_row_order"], "the public constructor's checks"),
    "core._equal_fields": "== of ExemplarTable and OptimalOutputs",
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
