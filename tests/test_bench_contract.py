"""Contracts with the benchmark: library calls, tracer targets and hooks, and pinned cache bytes.

perfbench/workloads.py calls the public sidonpds functions; each call must
still bind to the signature of the function it names, so that a signature
change fails here and not only in a benchmark run.  perfbench/tracing.py lists (module, function) pairs in TARGETS and looks
each one up with getattr when a traced run starts, so renaming or deleting
one of them makes every traced benchmark run fail.  Its hooks read the
results of the calls they wrap, so those results keep their shape.
perfbench/pins.json holds the sha256 of every cache file that
`build-cache 317` writes and of the N = 20 and N = 30 density JSONL.  Both
files are loaded by path and only read.
"""

import ast
import hashlib
import importlib
import inspect
import importlib.util
import json
from collections import defaultdict
from pathlib import Path

import pytest

from sidonpds.cache import enumeration_path, load_pds, write_enumeration
from sidonpds.dfs import EXHAUSTED, FOUND, TIMEOUT, DfsBudget, DfsRun, enumerate_all_pds, find_pds_extension
from sidonpds.pipeline import enumerate_sidon
from sidonpds.singer import singer_pds_trace

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"
WORKLOADS = PERFBENCH / "workloads.py"
PINS = PERFBENCH / "pins.json"


def _workload_calls():
    """(function, positional count, keyword names, line) for each sidonpds call in workloads.py."""
    tree = ast.parse(WORKLOADS.read_text())
    modules: dict[str, str] = {}  # local name -> sidonpds module
    names: dict[str, tuple[str, str]] = {}  # local name -> (sidonpds module, attribute)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("sidonpds"):
            for alias in node.names:
                local = alias.asname or alias.name
                if node.module == "sidonpds":
                    modules[local] = f"sidonpds.{alias.name}"
                else:
                    names[local] = (node.module, alias.name)
    calls = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) and func.value.id in modules:
            target = (modules[func.value.id], func.attr)
        elif isinstance(func, ast.Name) and func.id in names:
            target = names[func.id]
        else:
            continue
        assert not any(isinstance(a, ast.Starred) for a in node.args), node.lineno
        assert all(k.arg is not None for k in node.keywords), node.lineno
        calls.append((target, len(node.args), tuple(k.arg for k in node.keywords), node.lineno))
    return calls


def test_workloads_call_the_library_entry_points():
    called = {f"{mod}.{attr}" for (mod, attr), *_ in _workload_calls()}
    assert {
        "sidonpds.pipeline.enumerate_sidon",
        "sidonpds.orbit.fast_check",
        "sidonpds.dfs.all_in_singer_orbit",
        "sidonpds.dfs.independent_check",
    } <= called


@pytest.mark.parametrize(
    "target, n_args, keywords",
    [pytest.param(target, n, kw, id=f"{target[0]}.{target[1]}@{line}") for target, n, kw, line in _workload_calls()],
)
def test_workload_call_binds_to_the_signature(target, n_args, keywords):
    module, attr = target
    fn = getattr(importlib.import_module(module), attr)
    inspect.signature(fn).bind(*[None] * n_args, **dict.fromkeys(keywords))


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
    for seed, v, budget in [((0, 1, 3), 13, None), ((0, 1, 4, 11), 57, None),
                            ((0, 1, 3, 11), 133, DfsBudget(time_limit_s=60, node_limit=1))]:
        run = find_pds_extension(seed, v, budget)
        assert isinstance(run, DfsRun)
        assert type(run.nodes) is int and run.status in (FOUND, EXHAUSTED, TIMEOUT)
        hooks["dfs", "find_pds_extension"](counters, (seed, v, budget), {}, run, 0.0)
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


@pytest.mark.parametrize("n_max", [20, 30])
def test_density_jsonl_matches_the_pinned_bytes(source, tmp_path, n_max):
    # the records the density workload writes and checks, byte for byte
    _, records = enumerate_sidon(n_max, 4, 250, source=source)
    path = enumeration_path(n_max, 4, 250, tmp_path)
    write_enumeration(records, path)
    pinned = json.loads(PINS.read_text())["jsonl"][f"size4_N{n_max}_qmax250"]
    assert hashlib.sha256(path.read_bytes()).hexdigest() == pinned
