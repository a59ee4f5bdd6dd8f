"""Command-line experiment harness.

Subcommands: ``toy-influence``, ``toy-balance``, ``bounds``,
``theory-check``, ``augment-sweep``.  Common flags: ``--seed``,
``--datasets``, ``--out``, ``--jobs``, ``--plot``, ``--config``.

All CSV outputs are written by ``core.rows_csv`` and are deterministic
byte-for-byte given (seed, flags); SVG charts are derived artifacts and
never alter CSV contents.  Config files hold one ``key = value`` per line
with ``#`` comments; explicit flags override file values, which override
built-in defaults.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path
from typing import Callable, Hashable, Mapping, Sequence

import numpy as np

from . import experiments, svgplot, theory
from .augment import LABEL_INTERVALS, AugmentDistribution, POSITION_LAWS
from .core import rows_csv
from .errors import GvlabError

_CONFIG_KEYS = {
    "seed", "datasets", "out", "jobs", "plot",
    "per_class", "epochs", "batch_size", "learning_rate", "momentum", "bins",
    "test_mean_lo", "test_mean_hi", "coupling_var", "residual_var",
    "T", "K", "delta", "n_grid", "gamma_grid",
    "alphas", "laws", "repeats", "tables",
    "alpha", "position_law", "area_lo", "area_hi", "aspect_lo", "aspect_hi",
} | {f"interval_{label}" for label in range(10)}


def parse_config(path: str) -> dict[str, str]:
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as err:
        raise GvlabError("bad-config", f"{path} is not UTF-8 text: {err}") from None
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


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise argparse.ArgumentTypeError(f"expected true/false, got {text!r}")


def _float_list(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(",") if v.strip() != "")


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(",") if v.strip() != "")


def _str_list(text: str) -> tuple[str, ...]:
    return tuple(v.strip() for v in text.split(",") if v.strip() != "")


def _from_config(config: Mapping[str, str], name: str, cast, default):
    """Config value cast to its type, else default; a value that does not
    cast raises ``bad-config``."""
    if name not in config:
        return default
    try:
        return cast(config[name])
    except (ValueError, argparse.ArgumentTypeError) as err:
        raise GvlabError("bad-config", f"{name} = {config[name]!r}: {err}") from None


def _resolved(args: argparse.Namespace, config: Mapping[str, str], name: str,
              cast, default):
    """Flag value if given, else config value, else default."""
    flag = getattr(args, name, None)
    return flag if flag is not None else _from_config(config, name, cast, default)


def _nonempty(values: tuple, name: str) -> tuple:
    if not values:
        raise GvlabError("bad-config", f"{name} must list at least one value")
    return values


def _interval_pair(text: str) -> tuple[tuple[float, float], tuple[float, float]]:
    values = _float_list(text)
    if len(values) != 4:
        raise ValueError(f"expected a1,b1,a2,b2, got {len(values)} values")
    return (values[0], values[1]), (values[2], values[3])


def distribution_from_config(config: Mapping[str, str], alpha: float | None = None,
                             position_law: str | None = None) -> AugmentDistribution:
    """Build an erasing-parameter law from config keys, with overrides."""
    intervals = {label: _from_config(config, f"interval_{label}", _interval_pair, pair)
                 for label, pair in LABEL_INTERVALS.items()}
    return AugmentDistribution(
        alpha=_from_config(config, "alpha", float, 0.0) if alpha is None else alpha,
        label_intervals=intervals,
        position_law=(config.get("position_law", "uniform")
                      if position_law is None else position_law),
        area_range=(_from_config(config, "area_lo", float, 0.02),
                    _from_config(config, "area_hi", float, 0.40)),
        aspect_range=(_from_config(config, "aspect_lo", float, 1 / 3),
                      _from_config(config, "aspect_hi", float, 3.0)),
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


def _toy_protocol(args: argparse.Namespace, config: Mapping[str, str]) -> experiments.ToyProtocol:
    base = experiments.ToyProtocol()
    return replace(
        base,
        per_class=_resolved(args, config, "per_class", int, base.per_class),
        epochs=_resolved(args, config, "epochs", int, base.epochs),
        batch_size=_from_config(config, "batch_size", int, base.batch_size),
        learning_rate=_from_config(config, "learning_rate", float, base.learning_rate),
        momentum=_from_config(config, "momentum", float, base.momentum),
        bins=_from_config(config, "bins", int, base.bins),
        test_mean_lo=_from_config(config, "test_mean_lo", float, base.test_mean_lo),
        test_mean_hi=_from_config(config, "test_mean_hi", float, base.test_mean_hi),
        coupling_var=_from_config(config, "coupling_var", float, base.coupling_var),
        residual_var=_from_config(config, "residual_var", float, base.residual_var),
    )


def _cmd_toy_influence(args: argparse.Namespace, config: Mapping[str, str]) -> int:
    result = experiments.toy_influence_run(
        args.seed, args.datasets, _toy_protocol(args, config), args.jobs)
    _write(args.out / "influence.csv",
           rows_csv("dataset,dim,h_cond,abs_weight,rank_est,rank_true", result.rows))
    if args.plot:
        by_true = _group_means(result.rows, lambda r: r.rank_true, ("rank_est",))
        xs = sorted(by_true)
        ys = [by_true[x][0] for x in xs]
        _write(args.out / "influence_rank.svg",
               svgplot.chart([("estimated rank", xs, ys)], "Influence rank agreement",
                             "ground-truth rank (|weight|)", "estimated rank (cond. entropy)",
                             mode="scatter", diagonal=True))
    print(f"mean rank correlation over {args.datasets} datasets: {result.mean_spearman:.4f}")
    print(f"mean |label-MI - prediction-MI| per dimension: {result.mean_mi_gap:.6f}")
    return 0


def _cmd_toy_balance(args: argparse.Namespace, config: Mapping[str, str]) -> int:
    rows = experiments.toy_balance_run(
        args.seed, args.datasets, _toy_protocol(args, config), args.jobs)
    _write(args.out / "balance.csv",
           rows_csv("dataset,dim,w_before,w_after,acc_before,acc_after", rows))
    by_rank = _group_means(rows, lambda r: r.rank_true,
                           ("w_before", "w_after", "acc_before", "acc_after"))
    ranks = sorted(by_rank)
    w_before, w_after, a_before, a_after = ([by_rank[r][i] for r in ranks] for i in range(4))
    if args.plot:
        _write(args.out / "balance_weights.svg",
               svgplot.chart([("before", ranks, w_before), ("after", ranks, w_after)],
                             "Absolute weight before/after balancing",
                             "ground-truth influence rank", "mean |weight|"))
        _write(args.out / "balance_accuracy.svg",
               svgplot.chart([("before", ranks, a_before), ("after", ranks, a_after)],
                             "Test accuracy before/after balancing",
                             "ground-truth influence rank", "mean test accuracy"))
    for rank in ranks[:3]:
        wb, wa, ab, aa = by_rank[rank]
        print(f"rank {rank}: mean |w| {wb:.4f} -> {wa:.4f}, mean accuracy {ab:.4f} -> {aa:.4f}")
    return 0


def _cmd_bounds(args: argparse.Namespace, config: Mapping[str, str]) -> int:
    t = _resolved(args, config, "T", int, 2)
    k = _resolved(args, config, "K", int, 2)
    delta = _resolved(args, config, "delta", float, 0.05)
    n_grid = _nonempty(_resolved(args, config, "n_grid", _int_list, (1000,)), "n_grid")
    gamma_grid = _resolved(args, config, "gamma_grid", _float_list, ())
    reports = [theory.BoundReport.evaluate(t, k, n, delta, gamma)
               for n in n_grid for gamma in gamma_grid or (None,)]
    _write(args.out / "bounds.csv", rows_csv("T,K,n,delta,gamma,thm1_gap,thm2_excess", reports))
    print(f"wrote {len(reports)} bound rows to {args.out / 'bounds.csv'}")
    return 0


def _cmd_theory_check(args: argparse.Namespace, config: Mapping[str, str]) -> int:
    results = experiments.theory_check_run(
        args.seed, corrupt=args.corrupt,
        tables=_resolved(args, config, "tables", int, 200))
    _write(args.out / "theory_report.csv", rows_csv("check,passed,max_deviation", results))
    failed = [r for r in results if not r.passed]
    for r in results:
        status = "pass" if r.passed else "FAIL"
        print(f"{status}  {r.name}  max_deviation={r.max_deviation:.3e}  ({r.detail})")
    if failed:
        print(f"{len(failed)} check(s) failed: {', '.join(r.name for r in failed)}",
              file=sys.stderr)
        return 1
    return 0


def _cmd_augment_sweep(args: argparse.Namespace, config: Mapping[str, str]) -> int:
    alphas = _nonempty(_resolved(args, config, "alphas", _float_list, (0.0, 0.5, 1.0)), "alphas")
    laws = _nonempty(_resolved(args, config, "laws", _str_list, ("uniform",)), "laws")
    for law in laws:
        if law not in POSITION_LAWS:
            raise GvlabError("bad-variable", f"unknown position law {law!r}")
    protocol = experiments.GridProtocol()
    protocol = replace(
        protocol,
        epochs=_resolved(args, config, "epochs", int, protocol.epochs),
        repeats=_resolved(args, config, "repeats", int, protocol.repeats),
    )
    rows = experiments.augment_sweep_run(args.seed, args.datasets, alphas, laws,
                                         protocol, args.jobs,
                                         base_dist=distribution_from_config(config))
    _write(args.out / "augment.csv", rows_csv("alpha,law,changing_ratio,test_error,seed", rows))
    by_cell = _group_means(rows, lambda r: (r.law, r.alpha), ("changing_ratio", "test_error"))
    if args.plot:
        xs = list(alphas)
        ratio_series = [(law, xs, [by_cell[law, a][0] for a in xs]) for law in laws]
        error_series = [(law, xs, [by_cell[law, a][1] for a in xs]) for law in laws]
        _write(args.out / "augment_ratio.svg",
               svgplot.chart(ratio_series, "Prediction changing ratio vs mixture weight",
                             "alpha", "changing ratio"))
        _write(args.out / "augment_error.svg",
               svgplot.chart(error_series, "Test error vs mixture weight",
                             "alpha", "test error"))
    for law in laws:
        for a in alphas:
            ratio, error = by_cell[law, a]
            print(f"alpha={a} law={law}: changing_ratio={ratio:.4f} test_error={error:.4f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gvlab",
                                     description="generative-variable experiment harness")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--seed", type=int, default=None, help="base RNG seed")
        p.add_argument("--datasets", type=int, default=None,
                       help="dataset / seed replication count")
        p.add_argument("--out", type=str, default=None, help="output directory")
        p.add_argument("--jobs", type=int, default=None, help="worker process count")
        p.add_argument("--plot", type=_parse_bool, default=None,
                       help="emit SVG charts (true/false)")
        p.add_argument("--config", type=str, default=None, help="key = value config file")

    for name, text in (("toy-influence", "influence-rank agreement experiment"),
                       ("toy-balance", "balance-and-retrain sweep")):
        p = sub.add_parser(name, help=text)
        common(p)
        p.add_argument("--per-class", dest="per_class", type=int, default=None)
        p.add_argument("--epochs", type=int, default=None)

    p = sub.add_parser("bounds", help="evaluate generalization bounds over grids")
    common(p)
    p.add_argument("--T", dest="T", type=int, default=None)
    p.add_argument("--K", dest="K", type=int, default=None)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--n-grid", dest="n_grid", type=_int_list, default=None)
    p.add_argument("--gamma-grid", dest="gamma_grid", type=_float_list, default=None)

    p = sub.add_parser("theory-check", help="run the closed-form verification sweeps")
    common(p)
    p.add_argument("--tables", type=int, default=None,
                   help="random tables for optimal-outputs-closed-form (default 200); "
                        "training-error-equality always uses 500 and strict-invariance "
                        "100 product and 100 dependent tables")
    p.add_argument("--corrupt", type=str, default=None,
                   help="test hook: corrupt the named check's closed form")

    p = sub.add_parser("augment-sweep", help="random-erasing law sweep on the grid task")
    common(p)
    p.add_argument("--alphas", type=_float_list, default=None)
    p.add_argument("--laws", type=_str_list, default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--repeats", type=int, default=None)
    return parser


_HANDLERS = {
    "toy-influence": _cmd_toy_influence,
    "toy-balance": _cmd_toy_balance,
    "bounds": _cmd_bounds,
    "theory-check": _cmd_theory_check,
    "augment-sweep": _cmd_augment_sweep,
}


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = parse_config(args.config) if args.config else {}
        args.seed = _resolved(args, config, "seed", int, 20240501)
        args.datasets = _resolved(args, config, "datasets", int, 100)
        args.jobs = _resolved(args, config, "jobs", int, 1)
        args.plot = _resolved(args, config, "plot", _parse_bool, True)
        args.out = Path(_resolved(args, config, "out", str, "out"))
        if args.seed < 0:
            raise GvlabError("bad-config", f"seed must be >= 0, got {args.seed}")
        if args.datasets < 1:
            raise GvlabError("bad-config", "datasets must be >= 1")
        if args.jobs < 1:
            raise GvlabError("bad-config", f"jobs must be >= 1, got {args.jobs}")
        return _HANDLERS[args.command](args, config)
    except (GvlabError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


def entry() -> None:  # console-script shim
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
