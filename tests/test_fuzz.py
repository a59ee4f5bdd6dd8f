"""Fuzz the user-facing input boundaries: config, dataset-CSV and model-file text.

Every input either parses or raises a coded ``GvlabError``; no other
exception may escape.  Text is drawn both from arbitrary characters and
from near-valid shapes (known keys, numbers, separators), so that the
examples reach the casts and validators behind the tokenizers.
"""

import math

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from gvlab import cli
from gvlab.core import VariableSpec, read_dataset_csv
from gvlab.errors import GvlabError
from gvlab.models import load_model

FUZZ = settings(max_examples=60, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=40)
NUMBER = st.one_of(
    st.integers(-10**30, 10**30).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["0", "1", "-1", "0.5", "1e400", "nan", "inf", "", " "]),
)
TOKEN = st.one_of(NUMBER, TEXT)


def _joined(separator: str):
    return st.lists(TOKEN, max_size=5).map(separator.join)


def _parsed_or_coded(parse, *args):
    try:
        return parse(*args)
    except GvlabError:
        return None


config_lines = st.one_of(
    TEXT,
    st.tuples(st.sampled_from(sorted(cli._CONFIG_KEYS)), st.one_of(TOKEN, _joined(",")))
    .map(lambda kv: f"{kv[0]} = {kv[1]}"),
)


@FUZZ
@given(st.lists(config_lines, max_size=6).map("\n".join))
def test_config_text_parses_or_raises_coded_error(tmp_path, text):
    path = tmp_path / "fuzz.cfg"
    path.write_text(text)
    config = _parsed_or_coded(cli.parse_config, str(path))
    if config is None:
        return
    _parsed_or_coded(cli.distribution_from_config, config)
    for name, cast in (("seed", int), ("learning_rate", float), ("plot", cli._parse_bool),
                       ("alphas", cli._float_list), ("n_grid", cli._int_list)):
        _parsed_or_coded(cli._from_config, config, name, cast, None)


SPECS = (VariableSpec.discrete(0, "g0", 3), VariableSpec.continuous(1, "g1", -1.0, 1.0))


@FUZZ
@given(st.lists(st.one_of(TEXT, _joined(","), st.lists(NUMBER, min_size=3, max_size=3)
                          .map(",".join)), max_size=5), st.booleans())
def test_dataset_csv_text_parses_or_raises_coded_error(tmp_path, rows, with_header):
    path = tmp_path / "fuzz.csv"
    path.write_text("\n".join(["g0,g1,y"] * with_header + rows))
    data = _parsed_or_coded(read_dataset_csv, str(path), SPECS, 2)
    if data is not None:
        assert data.values.shape == (data.n, 2)


@FUZZ
@given(st.lists(st.one_of(TEXT, _joined(" ")), max_size=5))
def test_model_file_text_parses_or_raises_coded_error(tmp_path, lines):
    path = tmp_path / "fuzz.model"
    path.write_text("\n".join(lines))
    model = _parsed_or_coded(load_model, str(path))
    if model is not None:
        assert all(math.isfinite(v) for v in model.weights.ravel())


@pytest.mark.parametrize("label", ["99999999999999999999", "2", "-1"])
def test_dataset_csv_label_out_of_range_rejected(tmp_path, label):
    path = tmp_path / "data.csv"
    path.write_text(f"g0,g1,y\n0,0.5,1\n1,0.25,{label}\n")
    with pytest.raises(GvlabError) as err:
        read_dataset_csv(str(path), SPECS, 2)
    assert err.value.code == "bad-csv"
    assert ":3:" in str(err.value)
