"""Spans around calls into synspec's public functions, kept in memory.

The benchmark calls the library only through :class:`Runner.task`, which
times one public call (a *task*).  In a traced pass the public functions
listed in ``TRACED`` are additionally wrapped wherever a synspec module
holds a reference to them, so calls the library makes internally (for
example ``index_hypothesis_check`` calling ``region_topology``) become
child spans of the task.  Nothing inside ``src/`` is edited: the wrappers
are installed for the traced pass and removed afterwards.

Work counters are read from the objects the wrapped calls return, so they
repeat exactly for the same inputs and code.
"""
from __future__ import annotations

import importlib
import os
import sys
import time

import numpy as np

# (module, public function) pairs that get a span in a traced pass.
TRACED = (
    ("synthetic_spectrum", "synthetic_spectrum"),
    ("synthetic_spectrum", "containment_check"),
    ("synthetic_spectrum", "hausdorff_distance"),
    ("synthetic_spectrum", "near_spectrum_witness"),
    ("obstructions", "joint_diagonalize"),
    ("obstructions", "bott_index"),
    ("obstructions", "certified_distance_bound"),
    ("obstructions", "index_hypothesis_check"),
    ("obstructions", "scalar_synthetic_spectrum"),
    ("region_geometry", "region_topology"),
    ("region_geometry", "brick_cover"),
    ("symbol_models", "fredholm_index"),
    ("operator_core", "pairwise_commutator_norms"),
    ("operator_core", "joint_eigensystem"),
    ("verify", "run_suite"),
    ("cli", "main"),
    ("io_json", "dump_canonical"),
)


def module(name: str):
    return importlib.import_module("synspec." + name)


def span_name(qualname: str, args, kwargs) -> str:
    """Span name; suites and CLI commands get one name each."""
    if qualname == "verify.run_suite":
        return "verify.run_suite." + str(kwargs.get("suite", args[0] if args else ""))
    if qualname == "cli.main":
        argv = kwargs.get("argv", args[0] if args else None) or [""]
        return "cli." + str(argv[0])
    return qualname


def _raster_cells(region, resolution: float) -> int:
    # same axis as region_geometry.region_topology builds
    r = region.eta if hasattr(region, "eta") else 1.0 / region.k
    lo, hi = -1.0 - 2 * r, 1.0 + 2 * r
    return int(np.arange(lo, hi + resolution / 2, resolution).size) ** 2


def counts_of(qualname: str, args, kwargs, result) -> dict:
    """Exact work counters read from a call's inputs and returned object."""
    if qualname == "synthetic_spectrum.synthetic_spectrum":
        return {"grid_points": result.grid.point_count,
                "centers": int(result.centers.shape[0])}
    if qualname == "obstructions.joint_diagonalize":
        max_sweeps = kwargs.get("max_sweeps", args[2] if len(args) > 2 else 200)
        return {"sweeps": result.sweeps,
                "capped": int(result.sweeps >= max_sweeps),
                "max_distance": float(result.max_distance)}
    if qualname == "region_geometry.region_topology":
        res = kwargs.get("resolution", args[1] if len(args) > 1 else None)
        return {"raster_cells": _raster_cells(args[0], res),
                "components": result.component_count,
                "holes": len(result.holes)}
    if qualname == "region_geometry.brick_cover":
        return {"bricks": int(result.corners.shape[0])}
    if qualname == "symbol_models.fredholm_index":
        cap = module("symbol_models").MAX_WINDING_SAMPLES
        return {"samples": result.samples, "capped": int(result.samples >= cap)}
    if qualname == "io_json.dump_canonical":
        path = kwargs.get("path", args[1] if len(args) > 1 else None)
        return {"bytes": os.path.getsize(path)}
    return {}


class Tracer:
    """In-memory span store: (name, start, end, parent, task, counts, error)."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._task = None
        self._patched = []

    def call(self, qualname: str, fn, args, kwargs):
        """Run ``fn`` inside a span; only records while a task is open."""
        if self._task is None:
            return fn(*args, **kwargs)
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        rec = {"id": sid, "name": span_name(qualname, args, kwargs),
               "parent": parent, "task": self._task, "start": 0.0,
               "end": 0.0, "counts": {}, "error": None}
        self.spans.append(rec)
        self._stack.append(sid)
        rec["start"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            rec["end"] = time.perf_counter()
            rec["error"] = type(exc).__name__
            raise
        finally:
            self._stack.pop()
        rec["end"] = time.perf_counter()
        rec["counts"] = counts_of(qualname, args, kwargs, result)
        return result

    def open_task(self, task_id: int):
        self._task = task_id

    def close_task(self):
        self._task = None

    def install(self):
        """Route every synspec reference to a TRACED function through a span."""
        for mod_name, fn_name in TRACED:
            orig = getattr(module(mod_name), fn_name)
            qualname = "%s.%s" % (mod_name, fn_name)

            def wrapper(*args, _q=qualname, _f=orig, **kwargs):
                return self.call(_q, _f, args, kwargs)

            for name, mod in list(sys.modules.items()):
                if not name.startswith("synspec"):
                    continue
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, orig))

    def uninstall(self):
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched = []


def layer_totals(spans) -> dict:
    """Per-pass totals: busy seconds, calls and summed counters per name."""
    out = {}
    for s in spans:
        agg = out.setdefault(s["name"], {"calls": 0, "busy_s": 0.0})
        agg["calls"] += 1
        agg["busy_s"] += s["end"] - s["start"]
        for key, val in s["counts"].items():
            if key == "max_distance":
                agg[key] = max(agg.get(key, 0.0), val)
            else:
                agg[key] = agg.get(key, 0) + val
    return out
