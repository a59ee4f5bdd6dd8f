"""Fuzz the user-facing input boundaries: config, dataset-CSV and model-file
text, and the batches given to ``loss_and_gradients``.

Every input either parses or raises a coded ``GvlabError``; no other
exception may escape.  Text is drawn both from arbitrary characters and
from near-valid shapes (known keys, numbers, separators), so that the
examples reach the casts and validators behind the tokenizers.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from gvlab import cli
from gvlab.core import VariableSpec, read_dataset_csv
from gvlab.errors import GvlabError
from gvlab.models import LinearModel, load_model, loss_and_gradients

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


BATCH_DTYPES = st.sampled_from([np.float64, np.float32, np.float16, np.int64, np.int8,
                                np.uint8, np.bool_, np.complex128, np.str_])


@st.composite
def batches(draw):
    """A model and a batch of drawn shape, dtypes and values, near-valid on purpose."""
    k = draw(st.integers(2, 4))
    d = draw(st.integers(1, 4))
    rows = 1 if k == 2 else k
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    model = LinearModel(rng.normal(size=(rows, d)), rng.normal(size=rows),
                        "sigmoid" if k == 2 else "softmax")
    n = draw(st.integers(0, 5))
    x = draw(hnp.arrays(BATCH_DTYPES, st.sampled_from([(n, d), (n, d + 1), (n,), (n, d, 1)])))
    label_shape = draw(st.sampled_from([(n,), (n + 1,), (n, 1)]))
    if draw(st.booleans()):
        y = draw(hnp.arrays(BATCH_DTYPES, label_shape))
    else:  # label values near the valid range
        codes = st.one_of(st.integers(-2, 5), st.floats(-2, 5), st.just(k - 1))
        y = np.array(draw(st.lists(codes, min_size=label_shape[0], max_size=label_shape[0])))
    return model, x, y


@FUZZ
@given(batches())
def test_loss_and_gradients_returns_or_raises_coded_error(batch):
    model, x, y = batch
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a RuntimeWarning escapes as an uncoded exception
        result = _parsed_or_coded(loss_and_gradients, model, x, y)
    if result is not None:
        loss, gw, gb = result
        assert math.isfinite(loss) and loss >= 0.0
        assert gw.shape == model.weights.shape and gb.shape == model.bias.shape


@pytest.mark.parametrize("label", ["99999999999999999999", "2", "-1"])
def test_dataset_csv_label_out_of_range_rejected(tmp_path, label):
    path = tmp_path / "data.csv"
    path.write_text(f"g0,g1,y\n0,0.5,1\n1,0.25,{label}\n")
    with pytest.raises(GvlabError) as err:
        read_dataset_csv(str(path), SPECS, 2)
    assert err.value.code == "bad-csv"
    assert ":3:" in str(err.value)
