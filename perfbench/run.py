#!/usr/bin/env python3
"""gvlab benchmark: closed-loop CLI units with end-to-end and per-layer metrics.

One process runs units back to back for ``--seconds`` (a closed loop with
one client).  A unit is one in-process ``gvlab.cli.main(argv)`` call with
``--jobs 1``, the protocol defaults, stdout captured and ``--out`` in a
per-run scratch directory; its ``--seed`` is drawn from ``--seed``.  Each
unit's outputs are checked (see checks.py).

``--trace 0`` times units from outside and reports the end-to-end metrics,
with unit times adjusted for the machine's current speed (see
REFERENCE_LOOP_S).
``--trace 1`` alternates an untraced and a traced unit on the same input,
records spans around gvlab's layer functions (see spans.py) and reports
the per-layer metrics and the tracing overhead.

The last stdout line is the result object; the line before it holds the
run record (versions, thread settings, unit count, import path, verdicts).

    python3 perfbench/run.py --workload toy-balance --seed 1 --seconds 25 --trace 0
"""

import argparse
import contextlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import checks
import loader
import spans

# One BLAS thread keeps all work on one core of a shared machine; an
# explicit setting in the environment wins and is recorded.  It must be
# set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
ALPHAS = (0.0, 0.5, 1.0)
LAWS = ("uniform", "periphery_m0", "center_m1")
SETUP_PROBES = 5
# A shared machine runs at speeds up to 2x apart for minutes at a time.  A
# fixed pure-Python loop, timed right before and after each unit, tracks
# that speed.  Each unit's time is divided by its speed factor (the median of
# those loop times over REFERENCE_LOOP_S), so unit times and rates read as
# seconds of a machine on which the loop takes REFERENCE_LOOP_S.  Set-up
# time, spent in process start and imports, does not track the loop and is
# reported raw.  Raw figures stay in the run record.
REFERENCE_LOOP_S = 0.010
REFERENCE_SHARE = 0.05  # loop time after each unit, as a share of the unit's time
TAIL_BEYOND = 10  # units that must lie above the reported tail percentile
WORK_METRICS = {name: work[0] for name, _, _, work in spans.TARGETS if work}
# Only max-prob-bound and optimal-outputs-closed-form honour --corrupt; the
# CLI accepts the other check names but perturbs nothing for them.
SELF_TEST = ["theory-check", "--corrupt", "max-prob-bound"]


def unit_input(workload: str, index: int, rng: random.Random) -> tuple[list[str], dict]:
    """CLI arguments of unit ``index`` and the facts its check needs."""
    argv = [workload, "--seed", str(rng.randrange(2 ** 31)), "--jobs", "1"]
    if workload in ("toy-balance", "toy-influence"):
        return argv + ["--datasets", "1"], {}
    if workload == "augment-sweep":
        alpha, law = ALPHAS[index // 3 % 3], LAWS[index % 3]
        return argv + ["--datasets", "1", "--alphas", repr(alpha), "--laws", law], \
            {"alpha": alpha, "law": law}
    return argv, {}


def call_cli(gvlab, argv: list[str]) -> tuple[int | None, str | None]:
    """Run the CLI in-process; return its exit status and any escaped error."""
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return gvlab.cli.main(argv), None
    except SystemExit as exc:
        return None, f"SystemExit({exc.code}): {sink.getvalue()[-300:]}"
    except Exception as exc:  # a unit that raises is counted as failed
        return None, "".join(traceback.format_exception_only(exc)).strip()


class Runner:
    """Runs and checks units; collects wall times, facts and failures."""

    def __init__(self, gvlab, workload: str, scratch: Path) -> None:
        self.gvlab, self.workload, self.scratch = gvlab, workload, scratch
        self.attempted = 0
        self.failures: list[str] = []
        self.facts: list[dict] = []

    def run(self, argv: list[str], unit: dict, tracer: spans.Tracer | None = None
            ) -> tuple[float, str | None]:
        out = self.scratch / f"unit{self.attempted}"
        full = argv + ["--out", str(out)]
        if tracer is None:
            start = time.perf_counter()
            status, error = call_cli(self.gvlab, full)
            wall = time.perf_counter() - start
        else:
            tracer.install()
            try:
                (status, error), wall = tracer.run_unit(self.attempted, call_cli, self.gvlab, full)
            finally:
                tracer.uninstall()
        self.attempted += 1
        reason, facts = error, {}
        if reason is None:
            reason, facts = checks.check_unit(self.workload, status, out, unit)
        shutil.rmtree(out, ignore_errors=True)
        if reason is None:
            self.facts.append(facts)
        else:
            self.failures.append(f"{' '.join(argv)}: {reason}")
        return wall, reason


def reference_loops(budget: float) -> list[float]:
    """Times of a fixed pure-Python loop that does not touch gvlab, repeated
    until ``budget`` seconds are spent (at least once)."""
    times: list[float] = []
    while not times or sum(times) < budget:
        start = time.perf_counter()
        total = 0
        for i in range(100_000):
            total += i * i % 7
        times.append(time.perf_counter() - start)
    return times


def setup_probes(count: int) -> list[float]:
    """Seconds from spawning a fresh interpreter until gvlab is ready."""
    times = []
    for _ in range(count):
        spawned = time.perf_counter()
        done = subprocess.run([sys.executable, str(HERE / "probe.py"), repr(spawned)],
                              capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def tail(times: list[float]) -> tuple[float, float]:
    """Highest percentile with ``TAIL_BEYOND`` units above it, and its value.

    With fewer than ``2 * TAIL_BEYOND`` units no percentile at or above the
    median has that many units beyond it, and the median is reported.
    """
    pct = max(50.0, 100.0 * (1.0 - TAIL_BEYOND / len(times)))
    return pct, float(np.percentile(times, pct))


def layer_metrics(tracer: spans.Tracer, overhead: float) -> dict[str, float]:
    """Per traced unit averages of every layer's counts and self times."""
    totals, units, self_sum_err = tracer.layer_totals()
    empty = {"calls": 0, "self_ns": 0, "errors": 0, "work": 0}
    metrics = {"trace.overhead_ratio": overhead, "trace.self_sum_max_err_s": self_sum_err,
               "experiments.self_s": 0.0}
    for name, *_ in spans.TARGETS:
        t = totals.get(name, empty)
        metrics[f"{name}.calls"] = t["calls"] / units
        metrics[f"{name}.self_s"] = t["self_ns"] / 1e9 / units
        metrics[f"{name}.errors"] = t["errors"] / units
        if name.startswith("experiments."):
            metrics["experiments.self_s"] += t["self_ns"] / 1e9 / units
        if name in WORK_METRICS:
            metrics[f"{name}.{WORK_METRICS[name]}"] = t["work"] / units
    for name, per in (("models.train", "us_per_step"), ("augment.erase_batch", "us_per_grid")):
        work = totals.get(name, empty)["work"]
        metrics[f"{name}.{per}"] = totals[name]["self_ns"] / 1e3 / work if work else 0.0
    return metrics


def run_record(gvlab, how: str, args, units: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy < 1.25 has no dict mode
        blas = "unknown"
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "units": units,
        "python": platform.python_version(), "numpy": np.__version__, "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "machine": platform.machine(), "gvlab_version": getattr(gvlab, "__version__", None),
        "import_path": how,
    }


def select(declared: list[dict], measured: dict[str, float], missing: set[str]) -> dict:
    """The declared metrics with their units; an untraceable one reads 0."""
    out = {}
    for entry in declared:
        name = entry["name"]
        gone = any(name == m or name.startswith(m + ".") for m in missing)
        out[name] = {"value": 0.0 if gone else measured[name], "unit": entry["unit"]}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(checks.CHECKERS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        gvlab, how = loader.load(ROOT / "src")
    except loader.LoadError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        probes = [] if args.trace else setup_probes(SETUP_PROBES)
        verdicts = {}
        if args.workload == "theory-check":
            _, reason = Runner(gvlab, args.workload, scratch).run(SELF_TEST, {})
            verdicts["self-test: corrupted max-prob-bound unit counted as failed"] = \
                reason is not None
        runner = Runner(gvlab, args.workload, scratch)
        rng = random.Random(args.seed)
        tracer = spans.Tracer() if args.trace else None
        plain, traced, speeds, loop_s = [], [], [], 0.0
        before = [] if tracer else reference_loops(3 * REFERENCE_LOOP_S)
        index = 0
        start = time.perf_counter()
        while time.perf_counter() - start < args.seconds:
            argv, unit = unit_input(args.workload, index, rng)
            index += 1
            for tracing in ((None, tracer) if tracer else (None,)):
                wall, _ = runner.run(argv, unit, tracing)
                (traced if tracing else plain).append(wall)
            if tracer is None:
                after = reference_loops(REFERENCE_SHARE * wall)
                speeds.append(statistics.median(before + after) / REFERENCE_LOOP_S)
                loop_s += sum(after)
                before = after
        elapsed = time.perf_counter() - start - loop_s
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    verdicts.update(checks.run_verdicts(args.workload, runner.facts))
    record = run_record(gvlab, how, args, len(plain))
    record["fail_ratio"] = len(runner.failures) / runner.attempted
    record["failures"] = runner.failures[:5]
    record["verdicts"] = verdicts
    record["unit_s"] = plain
    if tracer:
        overhead = sum(traced) / sum(plain)
        measured = layer_metrics(tracer, overhead)
        spans_file = WORK / f"spans-{args.workload}-seed{args.seed}.csv.gz"
        tracer.write(spans_file)
        record["spans_file"] = str(spans_file.relative_to(ROOT))
        record["missing"] = sorted(tracer.missing)
        metrics = select(declared["per_layer"], measured, tracer.missing)
    else:
        adjusted = [wall / speed for wall, speed in zip(plain, speeds)]
        pct, tail_s = tail(adjusted)
        measured = {
            "units_per_s": len(plain) / (elapsed * sum(adjusted) / sum(plain)),
            "unit_p50_s": statistics.median(adjusted),
            "unit_tail_s": tail_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": statistics.median(probes),
        }
        record.update(tail_percentile=pct, setup_probes_s=probes, unit_speed=speeds, raw={
            "units_per_s": len(plain) / elapsed,
            "unit_p50_s": statistics.median(plain),
            "unit_tail_s": tail(plain)[1],
        })
        metrics = select(declared["end_to_end"], measured, set())
    correct = not runner.failures and all(verdicts.values())
    for failure in runner.failures[:5]:
        print(f"perfbench: failed unit: {failure}", file=sys.stderr)
    for verdict, held in verdicts.items():
        if not held:
            print(f"perfbench: verdict broken: {verdict}", file=sys.stderr)
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": len(runner.failures), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
