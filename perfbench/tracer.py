"""Spans around the public functions of each weylmax layer, recorded
from outside the package.

The tracer replaces each target function with a wrapper in the module
that defines it and in every weylmax module that bound it with
``from .x import y``; ``DivergenceSet.ball_list`` is wrapped on the
class. A span is ``(id, name, start, end, parent)`` with times from
``time.perf_counter``. Spans stay in memory until the process writes
them out. Private stages (``_montecarlo_measure``, ``_read_xn``, CSV
writing) show up as the self time of their public parent.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
from collections import defaultdict

# (defining module, attribute, span name). The span name's prefix is the
# layer: the module's name inside the package.
TARGETS = [
    ("weylmax.experiment", "ratio_experiment", "experiment.ratio_experiment"),
    ("weylmax.experiment", "solution_scan", "experiment.solution_scan"),
    ("weylmax.decomp", "fold_axis", "decomp.fold_axis"),
    ("weylmax.divset", "build_divergence_set", "divset.build_divergence_set"),
    ("weylmax.divset", "DivergenceSet.ball_list", "divset.ball_list"),
    ("weylmax.divset", "measure", "divset.measure"),
    ("weylmax.divset", "overlap_pair_count", "divset.overlap_pair_count"),
    ("weylmax.divset", "from_balls", "divset.from_balls"),
    ("weylmax.weyl", "good_set_for", "weyl.good_set_for"),
    ("weylmax.datum", "datum_coefficients", "datum.datum_coefficients"),
    ("weylmax.datum", "sobolev_norm_sq", "datum.sobolev_norm_sq"),
    ("weylmax.numtheory", "close_fraction_pairs", "numtheory.close_fraction_pairs"),
    ("weylmax.poly", "parse_polynomial", "poly.parse_polynomial"),
    ("weylmax.cli", "dispatch", "cli.dispatch"),
    ("weylmax.cli", "cmd_build_xn", "cli.build_xn"),
    ("weylmax.cli", "cmd_measure_xn", "cli.measure_xn"),
]


def _observe_scan(tracer, args, kwargs, result):
    tracer.counters["experiment.scan.balls"] += result.n_sampled


def _observe_build(tracer, args, kwargs, result):
    tracer.counters["divset.J"] += result.ball_count


def _observe_measure(tracer, args, kwargs, result):
    tracer.events["divset.measure"].append({
        "overlap_pairs": result.overlap_pairs,
        "upper_bound": result.upper_bound,
        "lower_bound": result.lower_bound,
    })


def _observe_good_set(tracer, args, kwargs, result):
    # computed, not measured: the Weyl table has q^d entries
    tracer.counters["weyl.table_entries"] += result.q**result.d
    tracer.counters["weyl.good_members"] += int(result.members.shape[0])


OBSERVERS = {
    "experiment.solution_scan": _observe_scan,
    "divset.build_divergence_set": _observe_build,
    "divset.measure": _observe_measure,
    "weyl.good_set_for": _observe_good_set,
}


class Tracer:
    """Span recorder for one process. ``install`` patches the package;
    ``uninstall`` puts every original back."""

    def __init__(self):
        self.spans: list[tuple[int, str, float, float, int | None]] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.events: dict[str, list] = defaultdict(list)
        self._ids = itertools.count()
        self._main_stack: list[int] = []
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        observe = OBSERVERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            # A worker thread's first span belongs to whatever the main
            # thread has open: the pool is started from inside it.
            if stack:
                parent = stack[-1]
            elif tracer._main_stack:
                parent = tracer._main_stack[-1]
            else:
                parent = None
            sid = next(tracer._ids)
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                tracer.spans.append((sid, name, t0, t1, parent))
            if observe is not None:
                observe(tracer, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target. Raises LookupError naming a target that no
        longer exists, so a rename cannot silently drop a layer."""
        resolved = []
        for modname, attr, span in TARGETS:
            module = importlib.import_module(modname)
            owner_name, _, fname = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, fname, None)
            if original is None or not callable(original):
                raise LookupError(f"traced function {modname}.{attr} no longer exists")
            resolved.append((module, owner, fname, original, span))
        package = [m for name, m in sys.modules.items()
                   if m is not None and (name == "weylmax" or name.startswith("weylmax."))]
        for module, owner, fname, original, span in resolved:
            wrapped = self.wrap(span, original)
            if owner is not module:
                self._patch(owner, fname, original, wrapped)
                continue
            for m in package:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, key, original, wrapped)

    def _patch(self, owner, key, original, wrapped) -> None:
        setattr(owner, key, wrapped)
        self._patched.append((owner, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def _clip(intervals, lo: float, hi: float) -> list[tuple[float, float]]:
    return [(max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi]


def summarize(spans) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, ``s`` (summed duration) and ``self_s``
    (duration minus the union of its children's intervals, so children
    running in parallel threads are not counted twice)."""
    children: dict[int | None, list[tuple[float, float]]] = defaultdict(list)
    for _, _, t0, t1, parent in spans:
        children[parent].append((t0, t1))
    out: dict[str, dict[str, float]] = {}
    for sid, name, t0, t1, _ in spans:
        agg = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        agg["calls"] += 1
        agg["s"] += t1 - t0
        agg["self_s"] += (t1 - t0) - _union_length(_clip(children.get(sid, []), t0, t1))
    return out


def op_coverage(spans) -> list[float]:
    """Share of each operation's wall time that layer spans cover.

    An operation is a ladder row or a CLI command. Rows are cut out of
    the ``ratio_experiment`` span at the start of each row's first stage,
    ``datum_coefficients``; a command is one ``cli.dispatch`` span.
    """
    kids: dict[int, list] = defaultdict(list)
    for span in spans:
        if span[4] is not None:
            kids[span[4]].append(span)
    out = []
    for sid, name, t0, t1, _ in spans:
        if name == "experiment.ratio_experiment":
            own = sorted(kids[sid], key=lambda s: s[2])
            starts = [s[2] for s in own if s[1] == "datum.datum_coefficients"]
            intervals = [(s[2], s[3]) for s in own]
            for lo, hi in zip(starts, starts[1:] + [t1]):
                out.append(_union_length(_clip(intervals, lo, hi)) / (hi - lo))
        elif name == "cli.dispatch":
            intervals = [(s[2], s[3]) for s in kids[sid]]
            out.append(_union_length(_clip(intervals, t0, t1)) / (t1 - t0))
    return out
