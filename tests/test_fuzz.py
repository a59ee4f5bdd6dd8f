"""Fuzz the user-facing input boundaries: config, dataset-CSV and model-file
text, and the batches given to ``loss_and_gradients``.

Every input either parses or raises a coded ``GvlabError``; no other
exception may escape.  Text is drawn both from arbitrary characters and
from near-valid shapes (known keys, numbers, separators), so that the
examples reach the casts and validators behind the tokenizers.
"""

import math
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st
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
    settings = {}
    for key, value in config.items():  # each key through its own cast
        settings.update(_parsed_or_coded(cli._cast, {key: value}) or {})
    _parsed_or_coded(cli.distribution_from_config, settings)


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


# ---------------------------------------------------------------------------
# The CLI end to end: boundary values in flags and config files.
# ---------------------------------------------------------------------------

README = Path(__file__).resolve().parents[1] / "README.md"
ERROR_CODES = set(re.findall(r"^\| `([a-z-]+)` \|", README.read_text().split("## Error codes")[1],
                             re.MULTILINE))

INTS = st.sampled_from(["-1", "0", "1", "2", str(2**63), str(10**30)])  # negative, 0, 1, huge
SIZES = st.sampled_from(["-1", "0", "1", "2", "8"])  # scale knobs stay tiny
FLOATS = st.sampled_from(["nan", "inf", "-inf", "-0.0", "0.0", "5e-324", "2e-308", "0.25",
                          "1.0", "1e308"])  # with subnormals
FLOAT_LISTS = st.one_of(st.sampled_from(["", ","]), st.lists(FLOATS, min_size=1, max_size=2)
                        .map(",".join))
INT_LISTS = st.one_of(st.sampled_from(["", ","]), st.lists(INTS, min_size=1, max_size=2)
                      .map(",".join))
LAWS = st.one_of(st.sampled_from(["", ","]), st.lists(
    st.sampled_from(["uniform", "center_m1", "periphery_m0", "nope"]), min_size=1, max_size=2)
    .map(",".join))
MALFORMED = st.sampled_from(["", "abc", "1e3", "0x10", "1,,2", "a,b", ",", "1,2,3", "true"])

TOY_FLAGS = {"--per-class": SIZES, "--epochs": SIZES}
TOY_KEYS = {"per_class": SIZES, "epochs": SIZES, "batch_size": SIZES, "bins": INTS,
            **{key: FLOATS for key in ("learning_rate", "momentum", "test_mean_lo",
                                       "test_mean_hi", "coupling_var", "residual_var")}}
#: Per subcommand: tiny-scale base flags and config, then the flags and
#: config keys that the examples draw.
COMMANDS = {
    "toy-influence": (["--per-class", "8", "--epochs", "1"], {"batch_size": "4"},
                      TOY_FLAGS, TOY_KEYS),
    "toy-balance": (["--per-class", "8", "--epochs", "1"], {"batch_size": "4"},
                    TOY_FLAGS, TOY_KEYS),
    "bounds": ([], {}, {"--T": INTS, "--K": INTS, "--delta": FLOATS, "--n-grid": INT_LISTS,
                        "--gamma-grid": FLOAT_LISTS},
               {"T": INTS, "K": INTS, "delta": FLOATS, "n_grid": INT_LISTS,
                "gamma_grid": FLOAT_LISTS}),
    "theory-check": (["--tables", "2"], {}, {"--tables": SIZES, "--corrupt": st.sampled_from(
        ["max-prob-bound", "optimal-outputs-closed-form", "", "nope"])}, {"tables": SIZES}),
    "augment-sweep": (["--epochs", "1", "--repeats", "1", "--alphas", "0.5"], {},
                      {"--alphas": FLOAT_LISTS, "--laws": LAWS, "--epochs": SIZES,
                       "--repeats": SIZES},
                      {"alphas": FLOAT_LISTS, "laws": LAWS, "epochs": SIZES, "repeats": SIZES,
                       "position_law": LAWS, "interval_3": FLOAT_LISTS,
                       "interval_9": st.lists(FLOATS, min_size=4, max_size=4).map(",".join),
                       **{key: FLOATS for key in ("alpha", "area_lo", "area_hi", "aspect_lo",
                                                  "aspect_hi")}}),
}
COMMON_FLAGS = {"--seed": INTS, "--datasets": st.sampled_from(["-1", "0", "1"]),
                "--jobs": st.sampled_from(["-1", "0", "1", "2"]),
                "--plot": st.sampled_from(["true", "false"])}
COMMON_KEYS = {"seed": INTS, "datasets": SIZES, "jobs": st.sampled_from(["-1", "0", "1", "2"]),
               "plot": st.sampled_from(["true", "false", "maybe"])}


@st.composite
def cli_runs(draw):
    """A subcommand with drawn flags and config lines, at tiny scale."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    base_flags, base_config, flags, keys = COMMANDS[command]
    argv = [command, "--datasets", "1", "--jobs", "1", "--plot", "false", *base_flags]
    for flag, values in {**COMMON_FLAGS, **flags}.items():
        if draw(st.integers(0, 3)) == 0:
            # "=" so "-inf" is not read as a flag; flags are cast like config
            # lines, so they draw malformed text too
            argv.append(f"{flag}={draw(st.one_of(values, MALFORMED))}")
    config = dict(base_config)
    for key, values in {**COMMON_KEYS, **keys}.items():
        if draw(st.integers(0, 4)) == 0:
            config[key] = draw(st.one_of(values, MALFORMED))
    return argv, config


def _finite_csv_cells(path):
    for line in path.read_text().splitlines()[1:]:
        for cell in line.split(","):
            try:
                value = float(cell)
            except ValueError:
                continue
            assert math.isfinite(value), f"{path.name}: {line}"


def _tiny(command, *flags, **config):
    """One example run: the subcommand's tiny base plus the given flags and config."""
    base_flags, base_config = COMMANDS[command][:2]
    return ([command, "--datasets", "1", "--jobs", "1", "--plot", "false", *base_flags, *flags],
            {**base_config, **config})


@settings(max_examples=120, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cli_runs())
# Holes that random runs of this test found, kept as fixed examples.
@example(_tiny("toy-balance", bins=str(2**63)))
@example(_tiny("toy-balance", residual_var="-0.0"))
@example(_tiny("bounds", "--delta=5e-324"))
@example(_tiny("bounds", f"--n-grid={10**400}"))
@example(_tiny("bounds", "--gamma-grid=1.7e308"))
@example(_tiny("augment-sweep", aspect_lo="1e308", aspect_hi="1e308"))
@example(_tiny("toy-influence", "--per-class=1000000000000000000000000000000"))
@example(_tiny("toy-influence", f"--per-class={2**58}"))
@example(_tiny("augment-sweep", "--epochs=1000000000000000000000000000000"))
@example(_tiny("toy-balance", "--epochs=1000000000000000000000000000000"))
def test_cli_run_succeeds_or_exits_with_coded_error(tmp_path, capsys, run):
    """Exit 0 with finite CSVs, a coded error with exit 1, or theory-check's
    failed-check verdict with exit 1.  Derandomized, so every run tries the
    same examples; raise ``max_examples`` for a longer search."""
    argv, config = run
    root = Path(tempfile.mkdtemp(dir=tmp_path))
    (root / "run.cfg").write_text("".join(f"{key} = {value}\n" for key, value in config.items()))
    # Drawn datasets and jobs stay at most 1 and 2: each run stays in process
    # unless an augment-sweep spreads a few cells over two workers.
    argv = [*argv, "--config", str(root / "run.cfg"), "--out", str(root / "out")]
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = cli.main(argv)
    err = capsys.readouterr().err
    csvs = sorted((root / "out").glob("*.csv"))
    if code == 0:
        assert csvs, argv
    else:
        assert code == 1, argv
        failed_checks = re.fullmatch(r"\d+ check\(s\) failed: [a-z, -]+\n", err)
        if argv[0] == "theory-check" and failed_checks:
            assert csvs, argv  # failed checks are a verdict, written like a pass
        else:
            match = re.match(r"error: ([a-z-]+): ", err)
            assert match and match.group(1) in ERROR_CODES, (argv, config, err)
    for path in csvs:
        _finite_csv_cells(path)


def test_cli_fuzz_pools_draw_every_setting_and_flag():
    """A setting or flag missing from the pools above would escape fuzzing.
    ``--out`` and ``--config`` are given by every run; of the interval
    labels, 3 and 9 stand for the rest."""
    exempt = {"out"} | {f"interval_{label}" for label in (0, 1, 2, 4, 5, 6, 7, 8)}
    drawn = set(COMMON_KEYS).union(*(keys for *_, keys in COMMANDS.values()))
    assert drawn == set(cli._CONFIG_KEYS) - exempt
    assert COMMANDS.keys() == cli._COMMANDS.keys()
    for command, (_, _, flags, _) in COMMANDS.items():
        keys = cli._COMMON_FLAGS + cli._COMMANDS[command][2]
        assert {*COMMON_FLAGS, *flags, "--out", "--config"} == \
            {"--" + key.replace("_", "-") for key in keys}
