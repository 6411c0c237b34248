"""Contracts with the benchmark: tracer targets and hooks, and pinned cache bytes.

perfbench/tracing.py lists (module, function) pairs in TARGETS and looks
each one up with getattr when a traced run starts, so renaming or deleting
one of them makes every traced benchmark run fail.  Its hooks read the
results of the calls they wrap, so those results keep their shape.
perfbench/pins.json holds the sha256 of every cache file that
`build-cache 317` writes.  Both files are loaded by path and only read.
"""

import hashlib
import importlib
import importlib.util
import json
from collections import defaultdict
from pathlib import Path

import pytest

from sidonpds.cache import load_pds
from sidonpds.dfs import EXHAUSTED, FOUND, TIMEOUT, DfsBudget, DfsRun, enumerate_all_pds, find_pds_extension
from sidonpds.singer import singer_pds_trace

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"
PINS = PERFBENCH / "pins.json"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _targets():
    return [(m, f) for m, f, _hook in _tracing().TARGETS]


@pytest.mark.parametrize("module, name", _targets())
def test_tracer_target_resolves(module, name):
    fn = getattr(importlib.import_module(f"sidonpds.{module}"), name, None)
    assert callable(fn), f"sidonpds.{module}.{name}"


def test_dfs_results_have_the_shape_the_tracer_hooks_read():
    hooks = {(m, f): hook for m, f, hook in _tracing().TARGETS}
    counters = defaultdict(float)
    for seed, v, n, budget in [((0, 1, 3), 13, 4, None), ((0, 1, 4, 11), 57, 8, None),
                               ((0, 1, 3, 11), 133, 12, DfsBudget(time_limit_s=60, node_limit=1))]:
        run = find_pds_extension(seed, v, n, budget)
        assert isinstance(run, DfsRun)
        assert type(run.nodes) is int and run.status in (FOUND, EXHAUSTED, TIMEOUT)
        hooks["dfs", "find_pds_extension"](counters, (seed, v, n), {}, run, 0.0)
    sols, total = enumerate_all_pds(13)
    assert type(sols) is list and total == 52
    hooks["dfs", "enumerate_all_pds"](counters, (13,), {}, (sols, total), 0.0)
    assert counters["dfs.found"] == counters["dfs.exhausted"] == counters["dfs.timeout"] == 1
    assert counters["dfs.pds_found.v13"] == 52


def test_cached_pds_is_the_trace_record(data_root):
    for q in (2, 3, 4, 5):
        assert load_pds(q, data_root) == singer_pds_trace(q)


def test_built_cache_matches_the_pinned_bytes(data_root):
    # every file of the session cache (q <= 317), q = 128, 243, 256 and 289 included
    pinned = json.loads(PINS.read_text())["pds_cache"]
    built = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in (Path(data_root) / "pds_cache").glob("pds_q*.json")
    }
    assert len(built) == 83
    assert built == pinned
