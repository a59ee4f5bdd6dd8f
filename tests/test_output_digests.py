"""Output digests: reruns each pinned command in-process through ``cli.main``
and compares the sha256 of every file it writes (CSVs and SVGs), of stdout
and the exit status with the committed ones.

The digests hold for the numpy version stored next to them.  A change that
moves output on purpose rewrites them in the same commit and names the moved
bytes: ``python tests/test_output_digests.py theory-check`` reruns only the
cases of the named commands and keeps every other entry as it is; with no
command named, every case is rerun.
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from gvlab import cli

DIGESTS = Path(__file__).with_name("output_digests.json")

#: ``theory-check``: two seeds, no hook and each hook, at a small and the
#: default table count.
THEORY_CASES = [["theory-check", "--seed", str(seed), "--tables", str(tables)] + hook
                for seed in (0, 20240501)
                for hook in ([], ["--corrupt", "max-prob-bound"],
                             ["--corrupt", "optimal-outputs-closed-form"])
                for tables in (7, 200)]
#: The toy protocols: two seeds at a reduced scale, and one run over two workers.
TOY_SCALE = ["--datasets", "12", "--per-class", "300", "--epochs", "5"]
TOY_CASES = [[command, "--seed", str(seed), *TOY_SCALE]
             for command in ("toy-influence", "toy-balance")
             for seed in (0, 20240501)]
TOY_CASES.append(["toy-balance", "--seed", "20240501", *TOY_SCALE, "--jobs", "2"])
#: ``bounds``: two n and two gamma values, at the default and at a second (T, K, delta).
BOUNDS_GRID = ["--n-grid", "100,1000", "--gamma-grid", "0,0.5"]
BOUNDS_CASES = [["bounds", *BOUNDS_GRID],
                ["bounds", "--T", "4", "--K", "3", "--delta", "0.01", *BOUNDS_GRID]]
#: ``augment-sweep``: two seeds at a reduced scale.
AUGMENT_SCALE = ["--datasets", "1", "--alphas", "0,1", "--laws", "uniform,center_m1",
                 "--epochs", "5", "--repeats", "3"]
AUGMENT_CASES = [["augment-sweep", "--seed", str(seed), *AUGMENT_SCALE] for seed in (0, 20240501)]
CASES = THEORY_CASES + TOY_CASES + BOUNDS_CASES + AUGMENT_CASES


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest(argv: list[str], out: Path) -> dict:
    """Exit status and sha256 of each written file and of stdout for one in-process run;
    stdout names the output directory as ``<out>`` (``bounds`` prints its path)."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        status = cli.main([*argv, "--out", str(out)])
    return {"status": status,
            **{path.name: sha256(path.read_bytes()) for path in sorted(out.iterdir())},
            "stdout": sha256(stdout.getvalue().replace(str(out), "<out>").encode())}


def moved_names(got: dict, pinned: dict) -> list[str]:
    """The entries of two digests that differ, a file written or missing on
    one side included: file names, ``status`` and ``stdout``."""
    return [name for name in {**got, **pinned} if got.get(name) != pinned.get(name)]


def test_outputs_match_the_committed_digests(tmp_path):
    pinned = json.loads(DIGESTS.read_text())
    assert [case["argv"] for case in pinned["cases"]] == CASES
    moved = []
    for i, case in enumerate(pinned["cases"]):
        got = digest(case["argv"], tmp_path / str(i))
        if got != case["digests"]:
            moved.append(f"{' '.join(case['argv'])} ({', '.join(moved_names(got, case['digests']))})")
    assert not moved, (f"output moved for {moved}; digests were taken with numpy "
                       f"{pinned['numpy']}, this run has numpy {np.__version__}")


if __name__ == "__main__":
    only = set(sys.argv[1:])
    if only - {argv[0] for argv in CASES}:
        sys.exit(f"no pinned case runs {sorted(only - {argv[0] for argv in CASES})}")
    kept = {}
    if only:
        pinned = json.loads(DIGESTS.read_text())
        if pinned["numpy"] != np.__version__:
            sys.exit(f"digests were taken with numpy {pinned['numpy']}, this is {np.__version__}: "
                     "rerun every case")
        kept = {tuple(case["argv"]): case["digests"] for case in pinned["cases"]}
    with tempfile.TemporaryDirectory() as scratch:
        cases = [{"argv": argv,
                  "digests": (digest(argv, Path(scratch) / str(i)) if not only or argv[0] in only
                              else kept[tuple(argv)])}
                 for i, argv in enumerate(CASES)]
    DIGESTS.write_text(json.dumps({"numpy": np.__version__, "cases": cases}, indent=1) + "\n")
    rerun = sum(not only or argv[0] in only for argv in CASES)
    print(f"reran {rerun} of {len(cases)} digests in {DIGESTS}", file=sys.stderr)
