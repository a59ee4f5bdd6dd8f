"""Output checks for benchmark units and the per-run acceptance verdicts.

No bytes are compared: a unit passes when its exit status, CSV header, row
count and value ranges are right, so the checks survive a new float
summation order or RNG stream layout.  ``check_unit`` returns a failure
reason (``None`` when the unit passed) and the facts the run verdict needs.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

THEORY_CHECKS = frozenset({
    "max-prob-bound", "optimal-outputs-closed-form", "training-error-equality",
    "strict-invariance", "addition-rule-inequality", "gap-bound-grid",
    "excess-risk-composition"})
#: Criterion 05, false under synergy and kept failing on purpose.
DELIBERATE_FAILURE = "addition-rule-inequality"
NUISANCE_DIMS = list(range(10, 20))
LN2 = math.log(2.0)


class Bad(Exception):
    """A unit output that breaks a check."""


def _read(path: Path, header: str, rows: int) -> list[dict[str, str]]:
    if not path.is_file():
        raise Bad(f"{path.name} missing")
    with path.open(newline="") as fh:
        reader = csv.DictReader(fh)
        if ",".join(reader.fieldnames or ()) != header:
            raise Bad(f"{path.name} header {reader.fieldnames}")
        records = list(reader)
    if len(records) != rows:
        raise Bad(f"{path.name} has {len(records)} rows, expected {rows}")
    return records


def _num(text: str, lo: float = -math.inf, hi: float = math.inf) -> float:
    value = float(text)
    if not (math.isfinite(value) and lo <= value <= hi):
        raise Bad(f"value {text} outside [{lo}, {hi}]")
    return value


def _dims(records: list[dict[str, str]]) -> None:
    if sorted(int(r["dim"]) for r in records) != NUISANCE_DIMS:
        raise Bad("rows do not cover the nuisance dimensions 10..19")
    if any(r["dataset"] != "0" for r in records):
        raise Bad("dataset index is not 0")


def _toy_influence(status: int, out: Path, unit: dict) -> dict:
    if status != 0:
        raise Bad(f"exit status {status}")
    rows = _read(out / "influence.csv", "dataset,dim,h_cond,abs_weight,rank_est,rank_true", 10)
    _dims(rows)
    ranks = {}
    for column in ("rank_est", "rank_true"):
        ranks[column] = [int(r[column]) for r in rows]
        if sorted(ranks[column]) != list(range(1, 11)):
            raise Bad(f"{column} is not a permutation of 1..10")
    for r in rows:
        _num(r["h_cond"], 0.0, LN2 + 1e-12)
        _num(r["abs_weight"], 0.0)
    n = len(rows)
    d2 = sum((a - b) ** 2 for a, b in zip(ranks["rank_est"], ranks["rank_true"]))
    return {"spearman": 1.0 - 6.0 * d2 / (n * (n * n - 1))}


def _toy_balance(status: int, out: Path, unit: dict) -> dict:
    if status != 0:
        raise Bad(f"exit status {status}")
    rows = _read(out / "balance.csv", "dataset,dim,w_before,w_after,acc_before,acc_after", 10)
    _dims(rows)
    for r in rows:
        _num(r["w_before"], 0.0)
        _num(r["w_after"], 0.0)
        _num(r["acc_before"], 0.0, 1.0)
        _num(r["acc_after"], 0.0, 1.0)
    if len({r["acc_before"] for r in rows}) != 1:
        raise Bad("acc_before differs between rows of one dataset")
    # balance.csv carries no rank column; rank 1 is the largest trained |w|.
    top = max(rows, key=lambda r: float(r["w_before"]))
    return {"rank1_w_before": float(top["w_before"]), "rank1_w_after": float(top["w_after"])}


def _augment_sweep(status: int, out: Path, unit: dict) -> dict:
    if status != 0:
        raise Bad(f"exit status {status}")
    (row,) = _read(out / "augment.csv", "alpha,law,changing_ratio,test_error,seed", 1)
    if float(row["alpha"]) != unit["alpha"] or row["law"] != unit["law"]:
        raise Bad(f"cell {row['alpha']}/{row['law']} is not the requested one")
    if row["seed"] != "0":
        raise Bad("seed index is not 0")
    _num(row["changing_ratio"], 0.0, 1.0)
    _num(row["test_error"], 0.0, 1.0)
    return {}


def _theory_check(status: int, out: Path, unit: dict) -> dict:
    rows = _read(out / "theory_report.csv", "check,passed,max_deviation", len(THEORY_CHECKS))
    if {r["check"] for r in rows} != THEORY_CHECKS:
        raise Bad("unexpected check names")
    if any(r["passed"] not in ("true", "false") for r in rows):
        raise Bad("passed column is not true/false")
    for r in rows:
        _num(r["max_deviation"], 0.0)
    failed = sorted(r["check"] for r in rows if r["passed"] == "false")
    if status != (1 if failed else 0):
        raise Bad(f"exit status {status} with failed checks {failed}")
    if failed != [DELIBERATE_FAILURE]:
        raise Bad(f"failed checks {failed}, expected only {DELIBERATE_FAILURE}")
    return {}


CHECKERS = {
    "toy-influence": _toy_influence,
    "toy-balance": _toy_balance,
    "augment-sweep": _augment_sweep,
    "theory-check": _theory_check,
}


def check_unit(workload: str, status: int, out: Path, unit: dict) -> tuple[str | None, dict]:
    try:
        return None, CHECKERS[workload](status, out, unit)
    except (Bad, KeyError, ValueError) as err:
        return f"{type(err).__name__}: {err}", {}


def run_verdicts(workload: str, facts: list[dict]) -> dict[str, bool]:
    """Acceptance verdicts over the passing units of one run."""
    if workload == "toy-influence":
        mean = sum(f["spearman"] for f in facts) / len(facts) if facts else math.nan
        return {"criterion-07 mean Spearman >= 0.6": mean >= 0.6}
    if workload == "toy-balance":
        before = sum(f["rank1_w_before"] for f in facts)
        after = sum(f["rank1_w_after"] for f in facts)
        return {"criterion-08 mean rank-1 |w| ratio < 1": bool(facts) and after < before}
    return {}
