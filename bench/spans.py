"""Spans around the public functions of eitkit's layer modules.

``Tracer.install`` replaces every public function of the layer modules with
a recording wrapper, in every namespace that holds a reference to it: the
defining module, modules that imported it by name (``pipeline`` imports
from ``mesh`` and ``phantom``, ``cli`` from ``pipeline``) and module-level
dispatch tables such as ``pipeline._ITERATIVE``. Replacing only the module
attribute would miss those calls.

Spans are kept in memory as (id, name, start, end, parent, thread, pass,
attrs) and written out when the run ends. A span opened on a thread with no
open span of its own (a sweep cell on a pool thread) takes as parent the
innermost open span of the thread that installed the tracer, i.e. the
``cmd_sweep`` span.

A span's self time is its duration minus the union of its children's
intervals. Self times are summed over threads, so on the sweep they are
thread-seconds and can exceed the pass's wall time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import statistics
import threading
import time
from typing import NamedTuple

LAYERS = ("mesh", "forward", "phantom", "inverse", "metrics", "pipeline", "cli")

VERBS = ("mesh", "simulate", "reconstruct", "evaluate", "render", "sweep")

# the ADMM solvers, whose ReconResult carries per-iteration wall times
RECONSTRUCTORS = (
    "inverse.reconstruct_nwatv",
    "inverse.reconstruct_fotv",
    "inverse.reconstruct_tv_isotropic",
)

# metric prefix -> traced functions whose self time (and calls) it sums
GROUPS = {
    "mesh.rasterize": ("mesh.rasterize",),
    "mesh.generate": ("mesh.generate_disk_mesh",),
    "mesh.diffops": ("mesh.build_difference_operators",),
    "mesh.io": ("mesh.save_mesh", "mesh.load_mesh",
                "mesh.save_element_values", "mesh.load_element_values"),
    "forward.solve": ("forward.solve_potentials",),
    "forward.assemble": ("forward.assemble_stiffness",),
    "forward.sensitivity": ("forward.sensitivity_matrix",),
    "forward.io": ("forward.save_frames", "forward.load_frames"),
    "phantom.assign": ("phantom.assign_conductivity", "phantom.inclusion_mask"),
    "inverse.shrink": ("inverse.z_update", "inverse.soft_threshold", "inverse.group_shrink"),
    "inverse.reweight": ("inverse.nwatv_weights",),
    "metrics.score": ("metrics.relative_error", "metrics.psnr", "metrics.profile"),
    "metrics.pgm": ("metrics.write_image_pgm", "metrics.read_image_pgm"),
    "pipeline.series_io": ("pipeline.save_field_series", "pipeline.load_field_series"),
    "pipeline.truth": ("pipeline.phantom_truth_image",),
    **{f"pipeline.{verb}": (f"pipeline.cmd_{verb}",) for verb in VERBS},
}
COUNTED = ("mesh.rasterize", "mesh.generate", "forward.solve")


def _annotate_recon(result) -> dict:
    return {
        "iterations": result.n_iterations,
        "termination": result.termination,
        "wall_ms": result.wall_ms.tolist(),
    }


ANNOTATE = {
    "forward.solve_potentials": lambda r: {"drives": r.n_drives},
    **{name: _annotate_recon for name in RECONSTRUCTORS},
}


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    pass_index: int
    attrs: dict | None


class Tracer:
    """Records spans only while ``pass_index`` is set; otherwise the wrappers
    call straight through."""

    def __init__(self):
        self.spans: list[Span] = []
        self.pass_index: int | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self.home = threading.get_ident()
        self._home_stack: list[int] = []
        self._restore: list[tuple[dict, object, object]] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self.home:
            return self._home_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        annotate = ANNOTATE.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            pass_index = self.pass_index
            if pass_index is None:
                return fn(*args, **kwargs)
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                home = self._home_stack
                parent = home[-1] if home else None
            span_id = next(self._ids)
            stack.append(span_id)
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                attrs = annotate(result) if annotate and result is not None else None
                self.spans.append(Span(span_id, name, start, end, parent,
                                       threading.get_ident(), pass_index, attrs))

        return traced

    def install(self, package) -> int:
        """Wrap the public functions of every layer module; returns how many."""
        modules = [importlib.import_module(f"{package.__name__}.{layer}") for layer in LAYERS]
        wrappers = {}
        for layer, module in zip(LAYERS, modules):
            for attr, value in vars(module).items():
                if (inspect.isfunction(value) and value.__module__ == module.__name__
                        and not attr.startswith("_")):
                    wrappers[value] = self.wrap(f"{layer}.{attr}", value)
        for module in (package, *modules):
            namespace = vars(module)
            for key, value in list(namespace.items()):
                self._swap(namespace, key, value, wrappers)
                if isinstance(value, dict) and not key.startswith("__"):
                    for k, v in list(value.items()):
                        self._swap(value, k, v, wrappers)
        return len(wrappers)

    def _swap(self, table: dict, key, value, wrappers: dict) -> None:
        if inspect.isfunction(value) and value in wrappers:
            table[key] = wrappers[value]
            self._restore.append((table, key, value))

    def uninstall(self) -> None:
        while self._restore:
            table, key, value = self._restore.pop()
            table[key] = value

    def write(self, path) -> None:
        with open(path, "w") as f:
            for span in self.spans:
                f.write(json.dumps(span._asdict()) + "\n")


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of it covered by its children, on any
    thread."""
    children: dict[int, list[tuple[float, float]]] = {}
    by_id = {s.id: s for s in spans}
    for s in spans:
        if s.parent in by_id:
            p = by_id[s.parent]
            children.setdefault(s.parent, []).append((max(s.start, p.start), min(s.end, p.end)))
    return {s.id: (s.end - s.start) - _covered(children.get(s.id, [])) for s in spans}


def pass_metrics(spans: list[Span], home_thread: int) -> dict[str, float]:
    """Per-layer metrics of the spans of one pass."""
    own = self_times(spans)
    m: dict[str, float] = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(own[s.id] for s in spans if s.name.startswith(layer + "."))
    for group, names in GROUPS.items():
        hits = [s for s in spans if s.name in names]
        m[f"{group}.self_s"] = sum(own[s.id] for s in hits)
        if group in COUNTED:
            m[f"{group}.calls"] = len(hits)
    m["forward.drive_solves"] = sum(
        s.attrs["drives"] for s in spans if s.name == "forward.solve_potentials" and s.attrs)

    recon = [s for s in spans if s.name in RECONSTRUCTORS]
    iterative = [s for s in recon if s.attrs]
    walls = [w for s in iterative for w in s.attrs["wall_ms"]]
    m["inverse.solves"] = len(recon)
    m["inverse.iterations"] = sum(s.attrs["iterations"] for s in iterative)
    m["inverse.tol_stops"] = (
        sum(s.attrs["termination"] == "tol" for s in iterative) / len(recon) if recon else 0.0)
    m["inverse.setup_s"] = sum(
        (s.end - s.start) - sum(s.attrs["wall_ms"]) / 1e3 for s in iterative)
    m["inverse.iter_ms"] = statistics.median(walls) if walls else 0.0

    sweeps = {s.id: s for s in spans if s.name == "pipeline.cmd_sweep"}
    busy = sum(s.end - s.start for s in spans
               if s.parent in sweeps and s.thread != home_thread)
    sweep_wall = sum(s.end - s.start for s in sweeps.values())
    m["pipeline.sweep.busy_s"] = busy
    m["pipeline.sweep.concurrency"] = busy / sweep_wall if sweep_wall else 0.0
    return m
