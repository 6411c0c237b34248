"""Contracts with the benchmark: tracer target names and pinned cache bytes.

perfbench/tracing.py lists (module, function) pairs in TARGETS and looks
each one up with getattr when a traced run starts, so renaming or deleting
one of them makes every traced benchmark run fail.  perfbench/pins.json
holds the sha256 of every cache file that `build-cache 317` writes.  Both
files are loaded by path and only read.
"""

import hashlib
import importlib
import importlib.util
import json
from pathlib import Path

import pytest

from sidonpds.cache import load_pds
from sidonpds.singer import singer_pds_trace

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"
PINS = PERFBENCH / "pins.json"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return [(m, f) for m, f, _hook in mod.TARGETS]


@pytest.mark.parametrize("module, name", _targets())
def test_tracer_target_resolves(module, name):
    fn = getattr(importlib.import_module(f"sidonpds.{module}"), name, None)
    assert callable(fn), f"sidonpds.{module}.{name}"


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
