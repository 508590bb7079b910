"""Span tracer that wraps cavityent's public functions from outside the package.

Each layer of the package is a named set of functions.  ``install`` replaces
every binding of those functions in the loaded ``cavityent`` modules, including
names a caller imported into its own namespace (``blocks.check_identities``),
with a wrapper that records one span per call: name, start, end, parent span
on the same thread, thread, thread CPU time and a per-layer note.  Spans stay
in memory until ``Tracer.write`` dumps them as JSON.

``layer_metrics`` turns the span files of one operation (one file per process)
into the per-layer figures the benchmark reports.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict

STATE_BUILDERS = (
    "boson_vacuum_state",
    "boson_particle_state",
    "fermion_vacuum_state",
    "fermion_particle_state",
    "fermion_pair_state",
)

# layer name -> dotted targets below the cavityent package
LAYERS = {
    "oracles.overlaps": ("oracles.boson_overlaps", "oracles.fermion_overlaps"),
    "oracles.extract": ("oracles.extract_orders_mirrored",),
    "blocks.junction": ("blocks.junction",),
    "blocks.build_junction": ("blocks.build_junction",),
    "blocks.one_way_trip": ("blocks.one_way_trip",),
    "bogoliubov.check_identities": ("bogoliubov.check_identities",),
    "series.matmul": ("series.H2Matrix.__matmul__",),
    "negativity.closed": ("sweep.CurveSpec.series",),
    "states.expand": tuple(f"states.{name}" for name in STATE_BUILDERS),
    "states.reduce": ("states.reduce_to_pair",),
    "negativity.leading_order": ("negativity.leading_order",),
    "sweep.run_sweep": ("sweep.run_sweep",),
    "sweep.emit": ("sweep.emit",),
}

# real floating-point operations in one complex multiply-add
COMPLEX_MAC_FLOP = 8
# complex matrix products in one truncated second-order series product
SERIES_PRODUCTS = 6


def _n_max_note(args, kwargs):
    return args[1] if len(args) > 1 else kwargs.get("n_max")


def _sweep_note(args, kwargs):
    request = args[0] if args else kwargs["request"]
    return request.n_max


def _matmul_note(args, kwargs):
    _, n, k = args[0].data.shape
    m = args[1].data.shape[2]
    return SERIES_PRODUCTS * COMPLEX_MAC_FLOP * n * k * m


NOTES = {
    "blocks.junction": _n_max_note,
    "blocks.one_way_trip": _n_max_note,
    "sweep.run_sweep": _sweep_note,
    "series.matmul": _matmul_note,
}


class Tracer:
    """In-memory span recorder; spans are (id, name, start, end, parent,
    thread, cpu, note) with times in seconds."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def wrap(self, name: str, fn, note=None):
        spans, ids, local = self.spans, self._ids, self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            parent = stack[-1] if stack else None
            extra = note(args, kwargs) if note else None
            stack.append(sid)
            cpu0 = time.thread_time()
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                cpu = time.thread_time() - cpu0
                stack.pop()
                spans.append(
                    (sid, name, t0, t1, parent, threading.get_ident(), cpu, extra)
                )

        return traced

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def _resolve(target: str):
    module_name, _, rest = target.partition(".")
    owner = importlib.import_module(f"cavityent.{module_name}")
    *outer, attr = rest.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


def install(tracer: Tracer) -> list[str]:
    """Wrap every layer target; return the targets that no longer exist."""
    importlib.import_module("cavityent.cli")
    modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "cavityent"]
    missing = []
    for layer, targets in LAYERS.items():
        for target in targets:
            try:
                owner, attr = _resolve(target)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                missing.append(target)
                continue
            wrapped = tracer.wrap(layer, original, NOTES.get(layer))
            if isinstance(owner, type):
                setattr(owner, attr, wrapped)
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, name, wrapped)
    return missing


# ---------------------------------------------------------------------------
# aggregation

TIMED = (
    "oracles.overlaps",
    "blocks.build_junction",
    "blocks.one_way_trip",
    "bogoliubov.check_identities",
    "series.matmul",
    "negativity.closed",
    "states.expand",
    "states.reduce",
    "negativity.leading_order",
)
COUNTED = TIMED + ("blocks.junction",)
REFINE_LAYERS = ("blocks.junction", "blocks.one_way_trip")

UNITS = {
    **{f"{name}.calls": "count" for name in COUNTED},
    **{f"{name}.s": "s" for name in TIMED},
    "oracles.extract.s": "s",
    "blocks.junction.hit_ratio": "ratio",
    "blocks.one_way_trip.wait_s": "s",
    "series.matmul.gflop": "GFLOP",
    "series.matmul.gflop_per_s": "GFLOP/s",
    "sweep.refine.s": "s",
    "sweep.trip_parallelism": "ratio",
    "sweep.emit.s": "s",
    "trace.overhead_frac": "ratio",
}


def layer_metrics(processes: list[list]) -> dict[str, float]:
    """Per-layer figures of one operation from the span lists of its processes.

    ``.s`` is self time (span minus its child spans, which always run on the
    same thread); ``wait_s`` is span wall time minus the thread's CPU time.
    ``trace.overhead_frac`` needs untraced timings and is left to the caller.
    """
    calls = defaultdict(int)
    self_s = defaultdict(float)
    wait_s = defaultdict(float)
    junction_hits = 0
    flop = 0
    refine_s = trip_s = sweep_s = 0.0
    for spans in processes:
        by_id = {s[0]: s for s in spans}
        child_s = defaultdict(float)
        builds = set()
        for sid, name, t0, t1, parent, _, _, _ in spans:
            if parent is not None:
                child_s[parent] += t1 - t0
                if name == "blocks.build_junction":
                    builds.add(parent)
        refine_n = {2 * s[7] for s in spans if s[1] == "sweep.run_sweep"}
        for sid, name, t0, t1, parent, _, cpu, note in spans:
            dur = t1 - t0
            calls[name] += 1
            self_s[name] += dur - child_s[sid]
            wait_s[name] += dur - cpu
            if name == "blocks.junction" and sid not in builds:
                junction_hits += 1
            elif name == "series.matmul":
                flop += note
            elif name == "blocks.one_way_trip":
                trip_s += dur
            elif name == "sweep.run_sweep":
                sweep_s += dur
            if name in REFINE_LAYERS and note in refine_n:
                outer = by_id.get(parent)
                if outer is None or outer[1] not in REFINE_LAYERS or outer[7] != note:
                    refine_s += dur

    out = {f"{name}.calls": float(calls[name]) for name in COUNTED}
    out.update({f"{name}.s": self_s[name] for name in TIMED})
    junction_calls = calls["blocks.junction"]
    matmul_s = self_s["series.matmul"]
    out.update({
        "oracles.extract.s": self_s["oracles.extract"],
        "blocks.junction.hit_ratio": junction_hits / junction_calls if junction_calls else 0.0,
        "blocks.one_way_trip.wait_s": wait_s["blocks.one_way_trip"],
        "series.matmul.gflop": flop / 1e9,
        "series.matmul.gflop_per_s": flop / 1e9 / matmul_s if matmul_s > 0 else 0.0,
        "sweep.refine.s": refine_s,
        "sweep.trip_parallelism": trip_s / sweep_s if sweep_s > 0 else 0.0,
        "sweep.emit.s": self_s["sweep.emit"],
    })
    return out
