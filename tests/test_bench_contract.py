"""The benchmark's tracer wraps library functions by name; keep those names resolvable.

perfbench/tracing.py lists (module, function) pairs in TARGETS and looks
each one up with getattr when a traced run starts, so renaming or deleting
one of them makes every traced benchmark run fail.  The file is loaded by
path and only read.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from sidonpds.cache import load_pds
from sidonpds.singer import singer_pds_trace

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


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
