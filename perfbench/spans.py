"""In-memory span tracer installed around gvlab's public layer functions.

Each traced function is replaced, at every gvlab module attribute that
holds it, by a wrapper that records one span: the unit id, its own id,
its parent span, the qualified name, start and end in nanoseconds,
whether it raised, and a work count read from the call's arguments.
Self time is a span's duration minus the time its child spans cover, so
the self times of one unit sum to the unit's root span exactly.
"""

from __future__ import annotations

import csv
import functools
import gzip
import inspect
import sys
import time
from collections import defaultdict
from pathlib import Path


def _rows(x) -> int:
    shape = getattr(x, "shape", None)
    return 1 if shape is None or len(shape) < 2 else int(shape[0])


def _train_steps(a) -> int:
    batches = -(-a["data"].n // a["config"].batch_size)
    return a["config"].epochs * batches


#: (span name, module, attribute path, work metric and its count from the
#: bound arguments).
#: Intra-layer helpers called tens of thousands of times per unit, such as
#: ``augment.sample_params`` and ``augment.apply_erasing``, are left out so
#: that tracing does not distort the layer it measures.
TARGETS = (
    ("models.train", "gvlab.models", "train", ("steps", _train_steps)),
    ("models.forward", "gvlab.models", "LinearModel.forward", ("rows", lambda a: _rows(a["x"]))),
    ("models.risk", "gvlab.models", "risk", None),
    ("synth.generate_toy", "gvlab.synth", "generate_toy", None),
    ("synth.influence_rank", "gvlab.synth", "influence_rank", None),
    ("synth.balance_substitute", "gvlab.synth", "balance_substitute", None),
    ("core.build_table", "gvlab.core", "build_table", ("rows", lambda a: a["dataset"].n)),
    ("core.marginalize", "gvlab.core", "marginalize", None),
    ("info.entropy", "gvlab.info", "entropy", None),
    ("info.conditional_entropy", "gvlab.info", "conditional_entropy", None),
    ("theory.pgd_conditionals", "gvlab.theory", "pgd_conditionals",
     ("iterations", lambda a: int(a["iterations"]))),
    ("theory.addition_rule", "gvlab.theory", "addition_rule", None),
    ("theory.optimal_outputs", "gvlab.theory", "optimal_outputs", None),
    ("theory.check_strict_invariance", "gvlab.theory", "check_strict_invariance", None),
    ("augment.erase_batch", "gvlab.augment", "erase_batch", ("grids", lambda a: len(a["grids"]))),
    ("augment.prediction_changing_ratio", "gvlab.augment", "prediction_changing_ratio", None),
    ("experiments.toy_influence_run", "gvlab.experiments", "toy_influence_run", None),
    ("experiments.toy_balance_run", "gvlab.experiments", "toy_balance_run", None),
    ("experiments.augment_sweep_run", "gvlab.experiments", "augment_sweep_run", None),
    ("experiments.theory_check_run", "gvlab.experiments", "theory_check_run", None),
    ("cli.main", "gvlab.cli", "main", None),
    ("svgplot.chart", "gvlab.svgplot", "chart", None),
)
ROOT = "unit"


class Tracer:
    """Records spans while installed; ``uninstall`` restores every attribute."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (unit, id, parent, name, start_ns, end_ns, raised, work)
        self.missing: set[str] = set()  # targets or work counts that could not be traced
        self.unit = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, work):
        count_of = work[1] if work else None
        signature = inspect.signature(fn) if work else None
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            count = None
            if count_of is not None:
                try:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    count = count_of(bound.arguments)
                except (AttributeError, KeyError, TypeError, ValueError):
                    self.missing.add(name + ".work")
            span_id = len(spans) + len(stack)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            raised = True
            start = clock()
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                end = clock()
                stack.pop()
                spans.append((self.unit, span_id, parent, name, start, end, raised, count))

        return traced

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "gvlab" or n.startswith("gvlab."))]
        for name, module_name, path, work in TARGETS:
            owner = sys.modules.get(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None)
            if not callable(original):
                self.missing.add(name)
                continue
            traced = self._wrap(name, original, work)
            holders = [owner] if parents else modules
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._patches.append((holder, key, value))
                        setattr(holder, key, traced)

    def uninstall(self) -> None:
        for holder, key, value in reversed(self._patches):
            setattr(holder, key, value)
        self._patches.clear()

    def run_unit(self, unit: int, fn, *args):
        """Call ``fn(*args)`` inside the root span of unit ``unit``; return
        its result and the root span's duration in seconds."""
        self.unit = unit
        root = self._wrap(ROOT, fn, None)
        result = root(*args)
        _, _, _, _, start, end, _, _ = self.spans[-1]
        return result, (end - start) / 1e9

    def write(self, path: Path) -> None:
        """Write the spans as gzipped CSV, one row per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1, newline="") as fh:
            out = csv.writer(fh)
            out.writerow(("unit", "span", "parent", "name", "start_ns", "end_ns",
                          "raised", "work"))
            out.writerows(self.spans)

    def layer_totals(self) -> tuple[dict[str, dict[str, float]], int, float]:
        """Per-name totals over all traced units, the unit count, and the
        largest gap between a unit's summed self times and its root span."""
        child_ns: dict[tuple[int, int], int] = defaultdict(int)
        for unit, _, parent, _, start, end, _, _ in self.spans:
            if parent is not None:
                child_ns[unit, parent] += end - start
        totals: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "self_ns": 0, "errors": 0, "work": 0})
        self_sum: dict[int, int] = defaultdict(int)
        root_ns: dict[int, int] = {}
        for unit, span_id, parent, name, start, end, raised, work in self.spans:
            own = end - start - child_ns[unit, span_id]
            entry = totals[name]
            entry["calls"] += 1
            entry["self_ns"] += own
            entry["errors"] += raised
            entry["work"] += work or 0
            self_sum[unit] += own
            if parent is None:
                root_ns[unit] = end - start
        worst = max((abs(self_sum[u] - root_ns[u]) for u in root_ns), default=0)
        return totals, len(root_ns), worst / 1e9
