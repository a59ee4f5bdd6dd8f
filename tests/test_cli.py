import math
import os
import pickle
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gvlab.augment import AugmentDistribution
from gvlab.cli import (_COMMANDS, _COMMON_FLAGS, _CONFIG_KEYS, _cast, distribution_from_config,
                       main, parse_config)
from gvlab.errors import GvlabError

TOY_ARGS = ["--datasets", "1", "--per-class", "600", "--epochs", "6", "--seed", "5"]


def run(argv):
    return main(argv)


class TestConfigFile:
    def test_parse_and_precedence(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# harness settings\nseed = 7\ndatasets = 3\nplot = false\n")
        values = parse_config(str(cfg))
        assert values == {"seed": "7", "datasets": "3", "plot": "false"}

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("mystery = 1\n")
        with pytest.raises(GvlabError) as err:
            parse_config(str(cfg))
        assert err.value.code == "bad-config"

    def test_readme_lists_every_config_key(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme[readme.index("Config files hold"):]
        section = section[:section.index("\n\n")]
        documented = set(re.findall(r"`([^`= ]+)(?: = [^`]*)?`", section))
        keys = {re.sub(r"^interval_\d+$", "interval_<label>", key) for key in _CONFIG_KEYS}
        assert keys - documented == set()

    def test_flags_override_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("T = 5\nK = 5\nn_grid = 100\nplot = false\n")
        out = tmp_path / "out"
        code = run(["bounds", "--config", str(cfg), "--T", "2", "--K", "2",
                    "--n-grid", "1000", "--delta", "0.05", "--out", str(out)])
        assert code == 0
        body = (out / "bounds.csv").read_text().splitlines()
        assert body[1].startswith("2,2,1000,")

    @pytest.mark.parametrize("flag, key", [(["--T", "abc"], "T"), (["--plot", "maybe"], "plot"),
                                           (["--n-grid", "1,x"], "n_grid")])
    def test_malformed_flag_is_bad_config_naming_the_key(self, tmp_path, capsys, flag, key):
        code = run(["bounds", *flag, "--out", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith(f"error: bad-config: {key} = ")
        assert "usage" not in captured.out + captured.err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, line", [
        ("bounds", "seed = abc"),
        ("augment-sweep", "interval_3 = 0.1,0.2"),
        ("bounds", "alphas = x"),  # cast although bounds never reads it
    ])
    def test_unparsable_value_exits_with_bad_config(self, tmp_path, capsys, command, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        code = run([command, "--config", str(cfg), "--out", str(tmp_path / "out"),
                    "--datasets", "1", "--plot", "false"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: bad-config:")
        assert line.split(" =")[0] in err
        assert "Traceback" not in err

    def test_non_utf8_config_is_bad_config(self, tmp_path, capsys):
        cfg = tmp_path / "utf16.cfg"
        cfg.write_bytes(b"\xff\xfes\x00e\x00e\x00d\x00")
        code = run(["theory-check", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: bad-config:")
        assert str(cfg) in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_readme_lists_every_error_code(self):
        root = Path(__file__).resolve().parents[1]
        raised = set()
        for module in (root / "src" / "gvlab").glob("*.py"):
            raised |= set(re.findall(r'GvlabError\(\s*"([^"]+)"', module.read_text()))
        readme = (root / "README.md").read_text()
        section = readme[readme.index("## Error codes"):]
        section = section[:section.index("\n## ", 1)]
        documented = set(re.findall(r"^\| `([^`]+)` \|", section, re.MULTILINE))
        assert len(raised) >= 19
        assert raised - documented == set()
        assert documented - raised == set()

    def test_readme_outputs_table_lists_every_csv_header(self, tmp_path):
        out = tmp_path / "out"
        for argv in (["toy-influence", "--per-class", "600", "--epochs", "1"],
                     ["toy-balance", "--per-class", "600", "--epochs", "1"],
                     ["bounds", "--gamma-grid", "0.1"],
                     ["theory-check", "--tables", "1"],
                     ["augment-sweep", "--alphas", "0", "--laws", "uniform",
                      "--epochs", "1", "--repeats", "1"]):
            run([*argv, "--datasets", "1", "--plot", "false", "--out", str(out)])
        written = {path.name: path.read_text().splitlines()[0] for path in out.glob("*.csv")}
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme[readme.index("## Outputs"):]
        section = section[:section.index("\n## ", 1)]
        documented = dict(re.findall(r"^\| `([^`]+\.csv)` \| `[^`]+` \| `([^`]+)` \|$",
                                     section, re.MULTILINE))
        assert len(written) == 5
        assert written == documented

    def test_distribution_from_config_overrides(self):
        config = {"alpha": "0.4", "position_law": "center_m1", "area_lo": "0.0",
                  "area_hi": "0.5", "aspect_hi": "2.0", "interval_0": "0.1,0.2,0.3,0.4"}
        dist = distribution_from_config(_cast(config))
        default = AugmentDistribution()
        assert dist.alpha == 0.4
        assert dist.position_law == "center_m1"
        assert dist.area_range == (0.0, 0.5)
        assert dist.aspect_range == (default.aspect_range[0], 2.0)
        assert dist.label_intervals[0] == ((0.1, 0.2), (0.3, 0.4))
        assert dist.label_intervals[9] == default.label_intervals[9] == ((0.0, 0.0), (0.0, 0.0))
        assert distribution_from_config({}) == default


class TestBoundsCommand:
    def test_single_point_matches_closed_form(self, tmp_path):
        out = tmp_path / "out"
        assert run(["bounds", "--T", "2", "--K", "2", "--n-grid", "1000",
                    "--delta", "0.05", "--out", str(out), "--plot", "false"]) == 0
        line = (out / "bounds.csv").read_text().splitlines()[1]
        gap = float(line.split(",")[5])
        assert gap == pytest.approx(0.107409, abs=1e-6)

    def test_empty_gamma_grid_gives_gap_only_rows(self, tmp_path):
        out = tmp_path / "out"
        run(["bounds", "--n-grid", "100,400", "--out", str(out)])
        lines = (out / "bounds.csv").read_text().splitlines()
        assert len(lines) == 3
        assert all(line.endswith(",") for line in lines[1:])  # thm2_excess empty

    def test_gamma_grid_and_monotone_columns(self, tmp_path):
        out = tmp_path / "out"
        run(["bounds", "--n-grid", "100,400,1600", "--gamma-grid", "0.0,0.1",
             "--out", str(out)])
        lines = (out / "bounds.csv").read_text().splitlines()[1:]
        assert len(lines) == 6
        gaps = [float(line.split(",")[5]) for line in lines[::2]]
        assert gaps == sorted(gaps, reverse=True)


class TestToyCommands:
    def test_influence_outputs_and_determinism(self, tmp_path, capsys):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run(["toy-influence", *TOY_ARGS, "--out", str(out1)]) == 0
        assert run(["toy-influence", *TOY_ARGS, "--out", str(out2)]) == 0
        csv1 = (out1 / "influence.csv").read_bytes()
        assert csv1 == (out2 / "influence.csv").read_bytes()
        header = csv1.decode().splitlines()[0]
        assert header == "dataset,dim,h_cond,abs_weight,rank_est,rank_true"
        assert (out1 / "influence_rank.svg").exists()
        assert "mean rank correlation" in capsys.readouterr().out

    def test_plot_flag_suppresses_svg(self, tmp_path):
        out = tmp_path / "out"
        run(["toy-influence", *TOY_ARGS, "--out", str(out), "--plot", "false"])
        assert (out / "influence.csv").exists()
        assert not (out / "influence_rank.svg").exists()

    def test_balance_outputs(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(["toy-balance", *TOY_ARGS, "--out", str(out), "--plot", "true"]) == 0
        lines = (out / "balance.csv").read_text().splitlines()
        assert lines[0] == "dataset,dim,w_before,w_after,acc_before,acc_after"
        assert len(lines) == 1 + 10
        assert (out / "balance_weights.svg").exists()
        assert (out / "balance_accuracy.svg").exists()


class TestTheoryCheckCommand:
    def test_reports_known_violation_and_exits_nonzero(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = run(["theory-check", "--seed", "0", "--tables", "40", "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 1  # the addition-rule sweep finds genuine counterexamples
        assert "addition-rule-inequality" in captured.err
        lines = (out / "theory_report.csv").read_text().splitlines()
        assert lines[0] == "check,passed,max_deviation"
        assert len(lines) >= 7
        rows = {line.split(",")[0]: line.split(",")[1] for line in lines[1:]}
        assert rows["addition-rule-inequality"] == "false"
        assert all(v == "true" for name, v in rows.items()
                   if name != "addition-rule-inequality")

    def test_corrupt_hook_names_failing_check(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = run(["theory-check", "--seed", "0", "--tables", "10", "--out", str(out),
                    "--corrupt", "max-prob-bound"])
        captured = capsys.readouterr()
        assert code == 1
        assert "max-prob-bound" in captured.err

    def test_corrupt_name_without_hook_exits_nonzero(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = run(["theory-check", "--out", str(out), "--corrupt", "gap-bound-grid"])
        assert code == 1
        assert "gap-bound-grid" in capsys.readouterr().err
        assert not (out / "theory_report.csv").exists()

    def test_fewer_than_one_table_exits_nonzero(self, tmp_path, capsys):
        for tables in ("0", "-1"):
            out = tmp_path / tables
            assert run(["theory-check", "--tables", tables, "--out", str(out)]) == 1
            assert "bad-config" in capsys.readouterr().err
            assert not (out / "theory_report.csv").exists()

    def test_help_says_tables_sizes_only_the_optimal_outputs_check(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            run(["theory-check", "--help"])
        assert exit_.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        assert ("--tables TABLES random tables for optimal-outputs-closed-form (default 200); "
                "training-error-equality always uses 500 and strict-invariance 100 product "
                "and 100 dependent tables") in text

    def test_deterministic_report(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run(["theory-check", "--seed", "3", "--tables", "25", "--out", str(out1)])
        run(["theory-check", "--seed", "3", "--tables", "25", "--out", str(out2)])
        assert (out1 / "theory_report.csv").read_bytes() == \
            (out2 / "theory_report.csv").read_bytes()


AUG_ARGS = ["--datasets", "2", "--alphas", "0.0,1.0", "--laws", "uniform",
            "--epochs", "5", "--repeats", "5", "--seed", "11"]


class TestAugmentSweepCommand:
    def test_grid_rows_and_determinism(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run(["augment-sweep", *AUG_ARGS, "--out", str(out1)]) == 0
        assert run(["augment-sweep", *AUG_ARGS, "--out", str(out2)]) == 0
        csv1 = (out1 / "augment.csv").read_bytes()
        assert csv1 == (out2 / "augment.csv").read_bytes()
        lines = csv1.decode().splitlines()
        assert lines[0] == "alpha,law,changing_ratio,test_error,seed"
        assert len(lines) == 1 + 2 * 2 * 1  # seeds x alphas x laws
        assert (out1 / "augment_ratio.svg").exists()
        assert (out1 / "augment_error.svg").exists()

    def test_unknown_law_rejected(self, tmp_path):
        code = run(["augment-sweep", "--laws", "sideways", "--out", str(tmp_path)])
        assert code == 1

    def test_config_area_range_reaches_the_sweep(self, tmp_path):
        """A zero-area erasing law from the config file must make every
        changing ratio exactly zero (identity augmentation end to end)."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text("area_lo = 0.0\narea_hi = 0.0\n")
        out = tmp_path / "out"
        assert run(["augment-sweep", "--config", str(cfg), "--datasets", "1",
                    "--alphas", "0.0", "--laws", "uniform", "--epochs", "4",
                    "--repeats", "4", "--out", str(out), "--plot", "false"]) == 0
        line = (out / "augment.csv").read_text().splitlines()[1]
        assert float(line.split(",")[2]) == 0.0


def test_python_dash_m_runs_the_cli(tmp_path):
    """``python -m gvlab.cli`` runs a subcommand and writes what ``main`` writes."""
    argv = ["bounds", "--n-grid", "100,400", "--gamma-grid", "0.1", "--plot", "false"]
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run([sys.executable, "-m", "gvlab.cli", *argv, "--out",
                           str(tmp_path / "module")], env=env, capture_output=True)
    assert done.returncode == 0, done.stderr
    assert run([*argv, "--out", str(tmp_path / "main")]) == 0
    assert (tmp_path / "module" / "bounds.csv").read_bytes() == \
        (tmp_path / "main" / "bounds.csv").read_bytes()


def test_unwritable_output_reports_path(tmp_path, capsys):
    target = tmp_path / "blocked"
    target.write_text("file, not a directory")
    code = run(["bounds", "--out", str(target), "--n-grid", "100"])
    assert code == 1
    assert "blocked" in capsys.readouterr().err


def test_missing_config_file_exits_cleanly(tmp_path, capsys):
    (tmp_path / "folder").mkdir()
    for path in (tmp_path / "nope.cfg", tmp_path / "folder"):
        code = run(["bounds", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: bad-config: cannot read {path}: ")
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()


def assert_bad_config(code, capsys):
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: bad-config:")
    assert "Traceback" not in err


@pytest.mark.parametrize("flags, line", [
    pytest.param(["--per-class", "-5"], None, id="negative-per-class"),
    pytest.param(["--per-class", "0"], None, id="zero-per-class"),
    pytest.param([], "test_mean_lo = 2", id="reversed-test-means"),
    pytest.param([], "test_mean_lo = nan", id="nan-test-mean"),
    pytest.param([], "test_mean_hi = inf", id="infinite-test-mean"),
    pytest.param([], "coupling_var = -1", id="negative-coupling-var"),
    pytest.param([], "residual_var = -1", id="negative-residual-var"),
    pytest.param([], "residual_var = nan", id="nan-residual-var"),
])
@pytest.mark.parametrize("command", ["toy-influence", "toy-balance"])
def test_bad_toy_protocol_values_are_bad_config(tmp_path, capsys, command, flags, line):
    argv = [command, "--datasets", "1", "--out", str(tmp_path / "out"), *flags]
    if line is not None:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        argv += ["--config", str(cfg)]
    assert_bad_config(run(argv), capsys)
    assert not (tmp_path / "out").exists()


def test_worker_errors_keep_their_code(tmp_path, capsys):
    """A GvlabError raised in a worker process reaches the CLI with its code."""
    argv = ["toy-influence", "--datasets", "2", "--jobs", "2", "--per-class", "-5",
            "--out", str(tmp_path)]
    assert_bad_config(run(argv), capsys)


def test_errors_survive_pickling():
    err = pickle.loads(pickle.dumps(GvlabError("bad-config", "jobs must be >= 1")))
    assert (err.code, str(err)) == ("bad-config", "bad-config: jobs must be >= 1")


@pytest.mark.parametrize("argv, line", [
    pytest.param(["augment-sweep", "--alphas="], None, id="alphas-flag"),
    pytest.param(["augment-sweep", "--laws="], None, id="laws-flag"),
    pytest.param(["augment-sweep", "--laws", ","], None, id="laws-flag-commas"),
    pytest.param(["bounds", "--n-grid="], None, id="n-grid-flag"),
    pytest.param(["augment-sweep"], "alphas =", id="alphas-key"),
    pytest.param(["augment-sweep"], "laws =", id="laws-key"),
    pytest.param(["bounds"], "n_grid = ,", id="n-grid-key"),
])
def test_empty_sweep_lists_are_bad_config(tmp_path, capsys, argv, line):
    if line is not None:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        argv = [*argv, "--config", str(cfg)]
    assert_bad_config(run([*argv, "--datasets", "1", "--out", str(tmp_path / "out")]), capsys)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_fewer_than_one_job_rejected(tmp_path, capsys, jobs):
    assert_bad_config(run(["bounds", "--jobs", jobs, "--out", str(tmp_path / "out")]), capsys)
    assert not (tmp_path / "out").exists()
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"jobs = {jobs}\n")
    assert_bad_config(run(["bounds", "--config", str(cfg), "--out", str(tmp_path / "out")]),
                      capsys)


@pytest.mark.parametrize("command", ["toy-influence", "theory-check", "augment-sweep"])
def test_negative_seed_rejected(tmp_path, capsys, command):
    assert_bad_config(run([command, "--seed", "-1", "--datasets", "1",
                           "--out", str(tmp_path / "out")]), capsys)
    assert not (tmp_path / "out").exists()
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = -5\n")
    assert_bad_config(run([command, "--config", str(cfg), "--datasets", "1",
                           "--out", str(tmp_path / "out")]), capsys)


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_learning_rate_rejected(tmp_path, capsys, value):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"learning_rate = {value}\n")
    assert_bad_config(run(["toy-influence", "--config", str(cfg), "--per-class", "600",
                           "--epochs", "2", "--datasets", "1", "--out", str(tmp_path / "out")]),
                      capsys)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("grid", ["nan", "inf", "0.1,-inf", "nan,inf"])
def test_non_finite_gamma_rejected(tmp_path, capsys, grid):
    code = run(["bounds", "--gamma-grid", grid, "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: bad-gamma:")
    assert "Traceback" not in err
    assert not (tmp_path / "out" / "bounds.csv").exists()


def test_nonpositive_datasets_rejected(tmp_path, capsys):
    code = run(["toy-influence", "--datasets", "0", "--out", str(tmp_path)])
    assert code == 1
    assert "datasets" in capsys.readouterr().err


def test_plot_flag_never_changes_csv_bytes(tmp_path):
    """Charts are derived artifacts; toggling them must not touch the CSV."""
    with_plot, without = tmp_path / "w", tmp_path / "wo"
    run(["toy-influence", *TOY_ARGS, "--out", str(with_plot), "--plot", "true"])
    run(["toy-influence", *TOY_ARGS, "--out", str(without), "--plot", "false"])
    assert (with_plot / "influence.csv").read_bytes() == \
        (without / "influence.csv").read_bytes()


#: One tiny-scale text per setting that a flag can give; each differs from
#: its default where the outputs can show it.
TINY = {"seed": "3", "datasets": "1", "jobs": "1", "plot": "false", "per_class": "40",
        "epochs": "2", "T": "3", "K": "4", "delta": "0.1", "n_grid": "50,60",
        "gamma_grid": "0.1", "tables": "2", "alphas": "0.5", "laws": "center_m1",
        "repeats": "1"}


@pytest.mark.parametrize("command, key", [
    (command, key) for command, (_, _, keys) in _COMMANDS.items()
    for key in _COMMON_FLAGS + keys if key in _CONFIG_KEYS])
def test_flag_and_config_line_write_the_same_csvs(tmp_path, capsys, command, key):
    """A flag and a config line share one cast, so the same text gives the
    same exit status and CSV bytes either way."""
    keys = _COMMON_FLAGS + _COMMANDS[command][2]
    written = []
    for source in ("flag", "config"):
        text = {k: TINY[k] for k in keys if k in TINY} | {"out": str(tmp_path / source)}
        line = f"{key} = {text.pop(key)}" if source == "config" else ""
        cfg = tmp_path / f"{source}.cfg"
        cfg.write_text(f"batch_size = 8\n{line}\n")
        code = run([command, "--config", str(cfg),
                    *(f"--{k.replace('_', '-')}={v}" for k, v in text.items())])
        written.append((code, {path.name: path.read_bytes()
                               for path in (tmp_path / source).glob("*.csv")}))
    assert written[0][1], capsys.readouterr().err
    assert written[0] == written[1]
