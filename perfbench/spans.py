"""Span tracing of artipose's public functions, installed from outside.

``Tracer.install`` wraps every public module-level function of the
listed artipose modules, plus ``RenderEstimator.__call__``, and rebinds
each name wherever a module imported it, so calls between modules go
through the wrappers too.  Each wrapper records one span per call: its
name, its parent (the innermost wrapped call still open), its duration
and its self time (duration minus the time its child spans cover).
Spans are aggregated in memory per (parent, name) edge and per name, and
read out once at the end.
"""

import functools
import importlib
import inspect
import os
import statistics
from time import perf_counter

MODULES = (
    "camera",
    "meshes",
    "raster",
    "pnp",
    "losses",
    "metrics",
    "simulate",
    "tracking",
    "adaptation",
    "formats",
    "cli",
)


def _scene_triangles(args, kwargs):
    return sum(len(mesh.faces) for mesh, _ in args[0])


def _mesh_triangles(args, kwargs):
    return len(args[0].faces)


def _file_size(index):
    return lambda args, kwargs: os.path.getsize(args[index])


# Work counted from a call's arguments: triangles handed to the
# rasterizer and bytes moved through the file formats.
ARG_WORK = {
    "raster.rasterize_scene": _scene_triangles,
    "raster.rasterize_crop": _scene_triangles,
    "raster.render_amodal": _mesh_triangles,
    "raster.render_correspondence": _mesh_triangles,
    "formats.read_fmap": _file_size(0),
    "formats.write_fmap": _file_size(1),
    "formats.read_mask_pgm": _file_size(0),
    "formats.write_mask_pgm": _file_size(1),
}
# Work counted from a call's result: correspondences extracted.
RESULT_WORK = {"pnp.pairs_from_map": lambda result: result.n}
# Functions whose per-call durations are kept for a median.
KEEP_DURATIONS = {"pnp.pnp_ransac"}


class Stat:
    __slots__ = ("calls", "total", "self", "failed", "work", "durations")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self = 0.0
        self.failed = 0
        self.work = 0
        self.durations = []


class Tracer:
    def __init__(self):
        self.stack = []  # open spans as [name, time covered by children]
        self.stats = {}
        self.edges = {}  # (parent name or None, name) -> calls

    def stat(self, name):
        return self.stats.setdefault(name, Stat())

    def wrap(self, name, fn):
        stat = self.stat(name)
        stack = self.stack
        edges = self.edges
        arg_work = ARG_WORK.get(name)
        result_work = RESULT_WORK.get(name)
        keep = name in KEEP_DURATIONS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0]
            stack.append(span)
            ok = False
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                duration = perf_counter() - start
                stack.pop()
                parent = None
                if stack:
                    stack[-1][1] += duration
                    parent = stack[-1][0]
                edges[(parent, name)] = edges.get((parent, name), 0) + 1
                stat.calls += 1
                stat.total += duration
                stat.self += duration - span[1]
                if keep:
                    stat.durations.append(duration)
                if not ok:
                    stat.failed += 1
                elif arg_work is not None:
                    stat.work += arg_work(args, kwargs)
                elif result_work is not None:
                    stat.work += result_work(result)

        return traced

    def install(self):
        """Wrap and rebind every traced function."""
        mods = {name: importlib.import_module(f"artipose.{name}") for name in MODULES}
        wrapped = {}
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                ):
                    wrapped[obj] = self.wrap(f"{short}.{attr}", obj)
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, attr, wrapped[obj])
        estimator = mods["adaptation"].RenderEstimator
        estimator.__call__ = self.wrap("adaptation.RenderEstimator.__call__", estimator.__call__)

    def get(self, name):
        return self.stats.get(name) or Stat()

    def median_ms(self, name):
        durations = self.get(name).durations
        return 1000.0 * statistics.median(durations) if durations else 0.0

    def module_self(self, module):
        return sum(s.self for n, s in self.stats.items() if n.split(".", 1)[0] == module)

    def self_total(self):
        return sum(s.self for s in self.stats.values())
