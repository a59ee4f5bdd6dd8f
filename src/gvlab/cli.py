"""Command-line experiment harness.

Subcommands: ``toy-influence``, ``toy-balance``, ``bounds``,
``theory-check``, ``augment-sweep``.  Common flags: ``--seed``,
``--datasets``, ``--out``, ``--jobs``, ``--plot``, ``--config``.

All CSV outputs are written by ``core.rows_csv`` and are deterministic
byte-for-byte given (seed, flags); SVG charts are derived artifacts and
never alter CSV contents.  Config files hold one ``key = value`` per line
with ``#`` comments.  A flag and a config line give the same key as text,
the flag winning, and ``_CONFIG_KEYS`` holds the one cast of each key.  A
value that does not cast is ``bad-config`` with exit status 1, whichever
source it came from and whether or not the subcommand reads the key.  A key
given nowhere keeps its owner's default: ``ToyProtocol``, ``GridProtocol``,
``AugmentDistribution`` and ``theory_check_run`` own theirs, and
``_DEFAULTS`` holds the harness's own.
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import sys
from pathlib import Path
from typing import Callable, Hashable, Mapping, Sequence

import numpy as np

from . import experiments, svgplot, theory
from .augment import AugmentDistribution, POSITION_LAWS
from .core import rows_csv
from .errors import GvlabError


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise ValueError(f"expected true/false, got {text!r}")


def _list_of(cast: Callable[[str], object]) -> Callable[[str], tuple]:
    """The cast of comma-separated text: each non-blank item through ``cast``."""
    return lambda text: tuple(cast(v.strip()) for v in text.split(",") if v.strip())


def _interval_pair(text: str) -> tuple[tuple[float, float], tuple[float, float]]:
    values = _list_of(float)(text)
    if len(values) != 4:
        raise ValueError(f"expected a1,b1,a2,b2, got {len(values)} values")
    return (values[0], values[1]), (values[2], values[3])


#: Every key a config file or a flag may give, with the one cast of its text.
_CONFIG_KEYS: dict[str, Callable[[str], object]] = {
    "seed": int, "datasets": int, "out": Path, "jobs": int, "plot": _parse_bool,
    "per_class": int, "epochs": int, "batch_size": int, "learning_rate": float,
    "momentum": float, "bins": int, "test_mean_lo": float, "test_mean_hi": float,
    "coupling_var": float, "residual_var": float,
    "T": int, "K": int, "delta": float, "n_grid": _list_of(int), "gamma_grid": _list_of(float),
    "alphas": _list_of(float), "laws": _list_of(str), "repeats": int, "tables": int,
    "alpha": float, "position_law": str, "area_lo": float, "area_hi": float,
    "aspect_lo": float, "aspect_hi": float,
    **{f"interval_{label}": _interval_pair for label in range(10)},
}
#: Defaults of the settings that only the CLI reads.
_DEFAULTS = {"seed": 20240501, "datasets": 100, "out": Path("out"), "jobs": 1, "plot": True,
             "T": 2, "K": 2, "delta": 0.05, "n_grid": (1000,), "gamma_grid": (),
             "alphas": (0.0, 0.5, 1.0), "laws": ("uniform",)}
#: Every setting named like a ``ToyProtocol`` field sets that field.
_TOY_KEYS = tuple(f.name for f in dataclasses.fields(experiments.ToyProtocol))
#: The only ``GridProtocol`` fields that are settings; the toy training knobs
#: of the same names stay out of the grid task.
_GRID_KEYS = ("epochs", "repeats")


def parse_config(path: str) -> dict[str, str]:
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as err:
        raise GvlabError("bad-config", f"{path} is not UTF-8 text: {err}") from None
    except OSError as err:
        raise GvlabError("bad-config", f"cannot read {path}: {err}") from None
    values: dict[str, str] = {}
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise GvlabError("bad-config", f"{path}:{lineno}: expected key = value")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise GvlabError("bad-config", f"{path}:{lineno}: unknown key {key!r}")
        values[key] = value
    return values


def _cast(text: Mapping[str, str]) -> dict[str, object]:
    """Each value cast by its key's cast; a value that does not cast raises
    ``bad-config``.  ``--corrupt``, the one flag that is not a setting, stays
    text."""
    settings = {}
    for key, value in text.items():
        try:
            settings[key] = _CONFIG_KEYS.get(key, str)(value)
        except ValueError as err:
            raise GvlabError("bad-config", f"{key} = {value!r}: {err}") from None
    return settings


def _given(settings: Mapping[str, object], keys: Sequence[str]) -> dict[str, object]:
    """The settings among ``keys`` that a flag or the config file gave."""
    return {key: settings[key] for key in keys if key in settings}


def _nonempty(settings: Mapping[str, object], name: str) -> tuple:
    if not settings[name]:
        raise GvlabError("bad-config", f"{name} must list at least one value")
    return settings[name]


def distribution_from_config(settings: Mapping[str, object]) -> AugmentDistribution:
    """The erasing-parameter law with the cast settings given; every other
    value keeps its ``AugmentDistribution`` default."""
    base = AugmentDistribution()
    return dataclasses.replace(
        base, **_given(settings, ("alpha", "position_law")),
        label_intervals={label: settings.get(f"interval_{label}", pair)
                         for label, pair in base.label_intervals.items()},
        area_range=(settings.get("area_lo", base.area_range[0]),
                    settings.get("area_hi", base.area_range[1])),
        aspect_range=(settings.get("aspect_lo", base.aspect_range[0]),
                      settings.get("aspect_hi", base.aspect_range[1])),
    )


def _write(path: Path, text: str) -> None:
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    except OSError as err:
        raise GvlabError("io-error", f"cannot write {path}: {err}") from err


def _group_means(rows: Sequence, key: Callable[[object], Hashable],
                 fields: Sequence[str]) -> dict[Hashable, tuple[float, ...]]:
    """Mean of each named row field per group, groups keyed by ``key(row)``."""
    groups: dict[Hashable, list] = {}
    for r in rows:
        groups.setdefault(key(r), []).append(r)
    return {k: tuple(float(np.mean([getattr(r, f) for r in group])) for f in fields)
            for k, group in groups.items()}


def _cmd_toy_influence(settings: Mapping[str, object]) -> int:
    result = experiments.toy_influence_run(
        settings["seed"], settings["datasets"],
        experiments.ToyProtocol(**_given(settings, _TOY_KEYS)), settings["jobs"])
    _write(settings["out"] / "influence.csv",
           rows_csv("dataset,dim,h_cond,abs_weight,rank_est,rank_true", result.rows))
    if settings["plot"]:
        by_true = _group_means(result.rows, lambda r: r.rank_true, ("rank_est",))
        xs = sorted(by_true)
        ys = [by_true[x][0] for x in xs]
        _write(settings["out"] / "influence_rank.svg",
               svgplot.chart([("estimated rank", xs, ys)], "Influence rank agreement",
                             "ground-truth rank (|weight|)", "estimated rank (cond. entropy)",
                             mode="scatter", diagonal=True))
    print(f"mean rank correlation over {settings['datasets']} datasets: "
          f"{result.mean_spearman:.4f}")
    print(f"mean |label-MI - prediction-MI| per dimension: {result.mean_mi_gap:.6f}")
    return 0


def _cmd_toy_balance(settings: Mapping[str, object]) -> int:
    out = settings["out"]
    rows = experiments.toy_balance_run(
        settings["seed"], settings["datasets"],
        experiments.ToyProtocol(**_given(settings, _TOY_KEYS)), settings["jobs"])
    _write(out / "balance.csv",
           rows_csv("dataset,dim,w_before,w_after,acc_before,acc_after", rows))
    by_rank = _group_means(rows, lambda r: r.rank_true,
                           ("w_before", "w_after", "acc_before", "acc_after"))
    ranks = sorted(by_rank)
    w_before, w_after, a_before, a_after = ([by_rank[r][i] for r in ranks] for i in range(4))
    if settings["plot"]:
        _write(out / "balance_weights.svg",
               svgplot.chart([("before", ranks, w_before), ("after", ranks, w_after)],
                             "Absolute weight before/after balancing",
                             "ground-truth influence rank", "mean |weight|"))
        _write(out / "balance_accuracy.svg",
               svgplot.chart([("before", ranks, a_before), ("after", ranks, a_after)],
                             "Test accuracy before/after balancing",
                             "ground-truth influence rank", "mean test accuracy"))
    for rank in ranks[:3]:
        wb, wa, ab, aa = by_rank[rank]
        print(f"rank {rank}: mean |w| {wb:.4f} -> {wa:.4f}, mean accuracy {ab:.4f} -> {aa:.4f}")
    return 0


def _cmd_bounds(settings: Mapping[str, object]) -> int:
    path = settings["out"] / "bounds.csv"
    reports = [theory.BoundReport.evaluate(settings["T"], settings["K"], n, settings["delta"],
                                           gamma)
               for n in _nonempty(settings, "n_grid")
               for gamma in settings["gamma_grid"] or (None,)]
    _write(path, rows_csv("T,K,n,delta,gamma,thm1_gap,thm2_excess", reports))
    print(f"wrote {len(reports)} bound rows to {path}")
    return 0


def _cmd_theory_check(settings: Mapping[str, object]) -> int:
    results = experiments.theory_check_run(settings["seed"], corrupt=settings.get("corrupt"),
                                           **_given(settings, ("tables",)))
    _write(settings["out"] / "theory_report.csv", rows_csv("check,passed,max_deviation", results))
    failed = [r for r in results if not r.passed]
    for r in results:
        status = "pass" if r.passed else "FAIL"
        print(f"{status}  {r.name}  max_deviation={r.max_deviation:.3e}  ({r.detail})")
    if failed:
        print(f"{len(failed)} check(s) failed: {', '.join(r.name for r in failed)}",
              file=sys.stderr)
        return 1
    return 0


def _cmd_augment_sweep(settings: Mapping[str, object]) -> int:
    out = settings["out"]
    alphas, laws = _nonempty(settings, "alphas"), _nonempty(settings, "laws")
    for law in laws:
        if law not in POSITION_LAWS:
            raise GvlabError("bad-variable", f"unknown position law {law!r}")
    rows = experiments.augment_sweep_run(
        settings["seed"], settings["datasets"], alphas, laws,
        experiments.GridProtocol(**_given(settings, _GRID_KEYS)), settings["jobs"],
        base_dist=distribution_from_config(settings))
    _write(out / "augment.csv", rows_csv("alpha,law,changing_ratio,test_error,seed", rows))
    by_cell = _group_means(rows, lambda r: (r.law, r.alpha), ("changing_ratio", "test_error"))
    if settings["plot"]:
        xs = list(alphas)
        ratio_series = [(law, xs, [by_cell[law, a][0] for a in xs]) for law in laws]
        error_series = [(law, xs, [by_cell[law, a][1] for a in xs]) for law in laws]
        _write(out / "augment_ratio.svg",
               svgplot.chart(ratio_series, "Prediction changing ratio vs mixture weight",
                             "alpha", "changing ratio"))
        _write(out / "augment_error.svg",
               svgplot.chart(error_series, "Test error vs mixture weight",
                             "alpha", "test error"))
    for law in laws:
        for a in alphas:
            ratio, error = by_cell[law, a]
            print(f"alpha={a} law={law}: changing_ratio={ratio:.4f} test_error={error:.4f}")
    return 0


_TABLES_DEFAULT = inspect.signature(experiments.theory_check_run).parameters["tables"].default
_FLAG_HELP = {
    "seed": "base RNG seed", "datasets": "dataset / seed replication count",
    "out": "output directory", "jobs": "worker process count",
    "plot": "emit SVG charts (true/false)", "config": "key = value config file",
    "tables": f"random tables for optimal-outputs-closed-form (default {_TABLES_DEFAULT}); "
              "training-error-equality always uses 500 and strict-invariance "
              "100 product and 100 dependent tables",
    "corrupt": "test hook: corrupt the named check's closed form",
}
_COMMON_FLAGS = ("seed", "datasets", "out", "jobs", "plot", "config")
#: Per subcommand: its handler, its help line and the keys of its own flags.
_COMMANDS = {
    "toy-influence": (_cmd_toy_influence, "influence-rank agreement experiment",
                      ("per_class", "epochs")),
    "toy-balance": (_cmd_toy_balance, "balance-and-retrain sweep", ("per_class", "epochs")),
    "bounds": (_cmd_bounds, "evaluate generalization bounds over grids",
               ("T", "K", "delta", "n_grid", "gamma_grid")),
    "theory-check": (_cmd_theory_check, "run the closed-form verification sweeps",
                     ("tables", "corrupt")),
    "augment-sweep": (_cmd_augment_sweep, "random-erasing law sweep on the grid task",
                      ("alphas", "laws", "epochs", "repeats")),
}


def build_parser() -> argparse.ArgumentParser:
    """Flags keep their text; ``main`` casts it together with the config file's."""
    parser = argparse.ArgumentParser(prog="gvlab",
                                     description="generative-variable experiment harness")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, text, keys) in _COMMANDS.items():
        p = sub.add_parser(name, help=text)
        for key in _COMMON_FLAGS + keys:
            p.add_argument("--" + key.replace("_", "-"), dest=key, help=_FLAG_HELP.get(key))
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    flags = vars(build_parser().parse_args(argv))
    handler, path = _COMMANDS[flags.pop("command")][0], flags.pop("config")
    try:
        text = parse_config(path) if path else {}
        text.update((key, value) for key, value in flags.items() if value is not None)
        settings = {**_DEFAULTS, **_cast(text)}
        if settings["seed"] < 0:
            raise GvlabError("bad-config", f"seed must be >= 0, got {settings['seed']}")
        if settings["datasets"] < 1:
            raise GvlabError("bad-config", "datasets must be >= 1")
        if settings["jobs"] < 1:
            raise GvlabError("bad-config", f"jobs must be >= 1, got {settings['jobs']}")
        return handler(settings)
    except (GvlabError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


def entry() -> None:  # console-script shim
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
