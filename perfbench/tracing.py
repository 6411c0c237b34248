"""Spans and counters recorded around calls into the sidonpds layers.

The program itself carries no instrumentation, so the tracer replaces
library functions with timing wrappers for the length of a traced run and
puts the originals back afterwards.  A `from .x import y` binding is a
separate name in the importing module, so each target is wrapped in every
sidonpds module that binds it, not only where it is defined; otherwise
calls made through the imported name would go unrecorded.

Spans stay in memory as (id, name, start, end, parent) and are written out
with the run id once, when the run ends.  Self time is a span's duration
minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict


def _count_kernel_outcome(counters, args, kwargs, result, dt):
    kind = result.kind
    if kind == "extends":
        counters["orbit.fast_extends_at_q.extends"] += 1
    elif kind == "no_image":
        counters["orbit.fast_extends_at_q.no_image"] += 1
    else:
        counters["orbit.fast_extends_at_q.skip"] += 1


def _count_jsonl_bytes(counters, args, kwargs, result, dt):
    counters["cache.jsonl_bytes"] += os.path.getsize(args[1])


def _count_dfs_search(counters, args, kwargs, result, dt):
    v = args[1]
    counters[f"dfs.nodes.v{v}"] += result.nodes
    counters[f"dfs.search_s.v{v}"] += dt
    counters[f"dfs.{result.status}"] += 1


def _count_enumeration(counters, args, kwargs, result, dt):
    v = args[0]
    counters[f"dfs.enumerate_all_pds.v{v}.s"] += dt
    counters[f"dfs.pds_found.v{v}"] += result[1]


# (defining module, function, hook run on each return).  Hooks only read
# arguments and results; they never change what the caller sees.
TARGETS = (
    ("fields", "find_primitive_element", None),
    ("singer", "singer_pds_trace", None),
    ("singer", "affine_equivalent", None),
    ("sidon", "is_sidon", None),
    ("sidon", "sidon_distinct_mod", None),
    ("sidon", "verify_pds", None),
    ("orbit", "fast_check", None),
    ("orbit", "fast_extends_at_q", _count_kernel_outcome),
    ("orbit", "coset_path", None),
    ("orbit", "brute_force_at_q", None),
    ("cache", "load_pds", None),
    ("cache", "write_pds", None),
    ("cache", "build_pds_cache", None),
    ("cache", "write_enumeration", _count_jsonl_bytes),
    ("dfs", "find_pds_extension", _count_dfs_search),
    ("dfs", "independent_check", None),
    ("dfs", "enumerate_all_pds", _count_enumeration),
    ("dfs", "all_in_singer_orbit", None),
    ("pipeline", "require_cache", None),
    ("pipeline", "classify", None),
    ("pipeline", "enumerate_sidon", None),
)

PACKAGE = "sidonpds"


class Tracer:
    """Installs span-recording wrappers on the sidonpds layer functions."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple[int, str, float, float, int]] = []
        self.counters: defaultdict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []

    def span(self, name: str):
        """Context manager recording one span from the benchmark's own code."""
        return _Span(self, name)

    def _open(self) -> tuple[int, int]:
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        return sid, parent

    def _close(self, sid, parent, name, start, end):
        self._stack.pop()
        self.spans.append((sid, name, start, end, parent))

    def _wrap(self, name, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid, parent = tracer._open()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._close(sid, parent, name, start, end)
            if hook is not None:
                hook(tracer.counters, args, kwargs, result, end - start)
            return result

        return wrapper

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = {
            name: mod for name, mod in sys.modules.items()
            if name == PACKAGE or name.startswith(PACKAGE + ".")
        }
        for mod_name, fn_name, hook in TARGETS:
            original = getattr(modules[f"{PACKAGE}.{mod_name}"], fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original, hook)
            for mod in modules.values():
                bound = [attr for attr, value in vars(mod).items() if value is original]
                for attr in bound:
                    self._patched.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        # Spans run on one thread and nest, so a parent's children never
        # overlap and their summed durations are the time they cover.
        child_time: defaultdict[int, float] = defaultdict(float)
        for _sid, _name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for sid, name, start, end, _parent in self.spans:
            agg = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["s"] += end - start
            agg["self_s"] += end - start - child_time[sid]
        return out

    def write_spans(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for sid, name, start, end, parent in sorted(self.spans):
                fh.write(json.dumps({
                    "id": sid, "name": name, "start": start, "end": end,
                    "parent": parent, "run": self.run_id,
                }) + "\n")


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.sid, self.parent = self.tracer._open()
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.sid, self.parent, self.name, self.start, time.perf_counter())
        return False
