"""Benchmark of the sidonpds library: four workloads, timed from outside the package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a source tree; the package is imported from its
`src/`.  Every data root is passed explicitly and lives under
`.perfbench_work/` in that tree: `./data` and $SIDONPDS_DATA_ROOT are never
read.  With `--trace 0` the last stdout line is a JSON object carrying the
end-to-end metrics; with `--trace 1` it carries the per-layer metrics of a
traced run.  The lines before it are a readable report with the provenance.
End-to-end times are in reference seconds, wall time corrected for the
machine's speed (see clock.py); the report gives wall seconds beside them.
See perfbench/README.md for the workloads and the metric definitions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from importlib import metadata
from pathlib import Path

import clock

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 5
DFS_V = (7, 13, 21, 31, 43, 57, 73, 91, 111, 133)
ENUM_V = (13, 21, 31, 57)

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("orbit.fast_extends_at_q.calls", "count"),
    ("orbit.fast_extends_at_q.s", "s"),
    ("orbit.fast_extends_at_q.us_per_call", "us"),
    ("orbit.fast_extends_at_q.extends", "count"),
    ("orbit.fast_extends_at_q.no_image", "count"),
    ("orbit.fast_extends_at_q.skip", "count"),
    ("orbit.fast_check.calls", "count"),
    ("orbit.fast_check.self_s", "s"),
    ("orbit.orders_per_set", "orders/set"),
    ("orbit.coset_path.calls", "count"),
    ("orbit.coset_path.s", "s"),
    ("orbit.brute_force_at_q.calls", "count"),
    ("orbit.brute_force_at_q.s", "s"),
    ("cache.load_pds.calls", "count"),
    ("cache.load_pds.s", "s"),
    ("cache.load_pds.self_s", "s"),
    ("cache.write_pds.calls", "count"),
    ("cache.write_pds.s", "s"),
    ("cache.write_enumeration.s", "s"),
    ("cache.jsonl_bytes", "bytes"),
    ("sidon.verify_pds.calls", "count"),
    ("sidon.verify_pds.s", "s"),
    ("sidon.sidon_distinct_mod.calls", "count"),
    ("sidon.sidon_distinct_mod.s", "s"),
    ("sidon.is_sidon.calls", "count"),
    ("sidon.is_sidon.s", "s"),
    ("dfs.find_pds_extension.calls", "count"),
    ("dfs.find_pds_extension.s", "s"),
    ("dfs.nodes", "count"),
    *((f"dfs.nodes.v{v}", "count") for v in DFS_V),
    *((f"dfs.nodes_per_s.v{v}", "1/s") for v in DFS_V),
    ("dfs.exhausted", "count"),
    ("dfs.found", "count"),
    ("dfs.timeout", "count"),
    *((f"dfs.enumerate_all_pds.v{v}.s", "s") for v in ENUM_V),
    *((f"dfs.pds_found.v{v}", "count") for v in ENUM_V),
    ("dfs.all_in_singer_orbit.s", "s"),
    ("singer.singer_pds_trace.calls", "count"),
    ("singer.singer_pds_trace.s", "s"),
    ("singer.singer_pds_trace.self_s", "s"),
    ("singer.affine_equivalent.s", "s"),
    ("fields.find_primitive_element.calls", "count"),
    ("fields.find_primitive_element.s", "s"),
    ("pipeline.enumerate_sidon.self_s", "s"),
    ("pipeline.require_cache.s", "s"),
    ("pipeline.classify.calls", "count"),
    ("trace.overhead_s", "s"),
)


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def quartiles(xs):
    """(q1, q3); a single sample is both."""
    if len(xs) == 1:
        return xs[0], xs[0]
    q1, _median, q3 = statistics.quantiles(xs, n=4)
    return q1, q3


def tail(xs):
    """Highest percentile with at least 10 samples beyond it, as (percentile, value)."""
    n = len(xs)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(xs)[n - 11]


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except OSError:
        return None
    return out.stdout.strip() or None


def provenance(args, sidonpds_file: str) -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy_version,
        "platform": platform.platform(), "git_commit": git_commit(),
        "src_sha256": src_digest(), "sidonpds_file": sidonpds_file,
    }


_SETUP_CHILD = """
import sys, time
sys.path.insert(0, {src!r})
sys.path.insert(0, {bench!r})
from clock import reference_loop
before = reference_loop()
t0 = time.perf_counter()
import sidonpds
from sidonpds import orbit, pipeline
if {q_max!r} is not None:
    pipeline.require_cache(orbit.PdsSource({root!r}), {q_max!r})
elapsed = time.perf_counter() - t0
print(elapsed, before, reference_loop(), sidonpds.__file__)
"""


def measure_setup(q_max, data_root) -> tuple[list[float], list[float]]:
    """Import plus cache load/verify in fresh interpreters: what every invocation pays.

    Returns (wall seconds, reference seconds) per interpreter.
    """
    env = {k: v for k, v in os.environ.items() if k != "SIDONPDS_DATA_ROOT"}
    code = _SETUP_CHILD.format(src=str(SRC), bench=str(BENCH), q_max=q_max, root=str(data_root))
    wall, ref = [], []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=120, check=True)
        seconds, before, after, path = out.stdout.split(maxsplit=3)
        if not Path(path.strip()).resolve().is_relative_to(SRC):
            raise RuntimeError(f"set-up child imported sidonpds from {path.strip()}")
        wall.append(float(seconds))
        ref.append(float(seconds) * clock.REF_LOOP_S / ((float(before) + float(after)) / 2))
    return wall, ref


class Passes:
    """Timed passes of one workload, with their outputs checked off the clock."""

    def __init__(self):
        self.items: list = []
        self.wall_s: list[float] = []
        self.ref_s: list[float] = []
        self.loop_s: list[float] = []
        self.ops = 0
        self.failed = 0

    def run(self, wl, item, steps: bool = True) -> None:
        timer = clock.Clock(steps)
        try:
            with timer:
                result = wl.run(item)
        except Exception:  # a crashing op is a failed op, reported, not fatal
            traceback.print_exc()
            planned = wl.planned_ops(item)
            self.ops += planned
            self.failed += planned
        else:
            outcome = wl.check(item, result)
            self.ops += outcome.ops
            self.failed += outcome.failed
        self.items.append(item)
        self.wall_s.append(timer.wall_s)
        self.ref_s.append(timer.ref_s)
        self.loop_s.extend(timer.loop_s)


def measure(wl, seconds: float) -> Passes:
    """Closed loop, one client: start another pass while one is expected to fit in `seconds`.

    The budget counts everything the passes take, reference loops and output
    checks included.
    """
    passes = Passes()
    t0 = time.perf_counter()
    for item in wl.items():
        passes.run(wl, item)
        elapsed = time.perf_counter() - t0
        if elapsed * (1 + 1 / len(passes.items)) > seconds:
            return passes


def end_to_end(workload: str, passes: Passes, setup_wall, setup_ref, report) -> dict:
    timed = sum(passes.ref_s)
    ops_per_s = passes.ops / timed
    values = {
        "wall_s": statistics.median(passes.ref_s),
        "setup_s": statistics.median(setup_ref),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    q1, q3 = quartiles(passes.ref_s)
    report(f"wall_s        {values['wall_s']:.4f} s    median of {len(passes.ref_s)} passes"
           f" (q1 {q1:.4f}, q3 {q3:.4f}), reference seconds;"
           f" wall clock {statistics.median(passes.wall_s):.4f} s")
    q1, q3 = quartiles(setup_ref)
    report(f"setup_s       {values['setup_s']:.4f} s    median of {len(setup_ref)} fresh"
           f" processes (q1 {q1:.4f}, q3 {q3:.4f}), reference seconds;"
           f" wall clock {statistics.median(setup_wall):.4f} s")
    report(f"peak_rss_mb   {values['peak_rss_mb']:.3f} MB")
    report(f"ops_per_s     {ops_per_s:.4f} 1/s  {passes.ops} ops in {timed:.3f} reference s")
    if workload in ("density", "nonext"):
        report(f"sets_per_s    {ops_per_s:.4f} 1/s  (= ops_per_s: one op is one set)")
    if workload == "nonext":
        ms = [s * 1000.0 for s in passes.ref_s]
        report(f"check_ms.p50  {statistics.median(ms):.2f} ms   n={len(ms)}")
        t = tail(ms)
        report("check_ms.tail n/a (fewer than 11 checks)" if t is None else
               f"check_ms.tail {t[1]:.2f} ms   p{t[0]:.0f} of n={len(ms)}")
    report(f"fail_frac     {passes.failed / passes.ops:.6f}    {passes.failed} of {passes.ops} ops")
    loop_q1, loop_q3 = quartiles(passes.loop_s)
    report(f"reference loop median {statistics.median(passes.loop_s) * 1000:.2f} ms over"
           f" {len(passes.loop_s)} timings (q1 {loop_q1 * 1000:.2f}, q3 {loop_q3 * 1000:.2f});"
           f" reference {clock.REF_LOOP_S * 1000:.0f} ms")
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def per_layer(tracer, untraced: Passes, traced: Passes, report) -> dict:
    totals = tracer.totals()
    counters = tracer.counters

    def span(name, stat):
        return totals.get(name, {}).get(stat, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    values = dict(counters)
    for name, agg in totals.items():
        for stat, value in agg.items():
            values[f"{name}.{stat}"] = value
    kernel_calls = span("orbit.fast_extends_at_q", "calls")
    values["orbit.fast_extends_at_q.us_per_call"] = ratio(
        span("orbit.fast_extends_at_q", "s") * 1e6, kernel_calls)
    values["orbit.orders_per_set"] = ratio(kernel_calls, span("orbit.fast_check", "calls"))
    values["dfs.nodes"] = sum(counters.get(f"dfs.nodes.v{v}", 0) for v in DFS_V)
    for v in DFS_V:
        values[f"dfs.nodes_per_s.v{v}"] = ratio(counters.get(f"dfs.nodes.v{v}", 0),
                                               counters.get(f"dfs.search_s.v{v}", 0))
    values["trace.overhead_s"] = statistics.median(traced.ref_s) - statistics.median(untraced.ref_s)
    metrics = {}
    for name, unit in PER_LAYER:
        value = values.get(name, 0)
        metrics[name] = {"value": value, "unit": unit}
        if value:
            report(f"{name:<40} {value:.6g} {unit}")
    report(f"tracing overhead: traced median pass {statistics.median(traced.ref_s):.4f} s minus"
           f" untraced {statistics.median(untraced.ref_s):.4f} s, reference seconds"
           f" (traced passes are corrected only from loops before and after them);"
           f" {len(tracer.spans)} spans")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="every workload at its smallest size, to check the plumbing")
    args = parser.parse_args(argv)

    if not (SRC / "sidonpds" / "__init__.py").is_file():
        log(f"error: no sidonpds source tree at {SRC}")
        return 2
    os.environ.pop("SIDONPDS_DATA_ROOT", None)
    sys.path.insert(0, str(SRC))
    import sidonpds

    if not Path(sidonpds.__file__).resolve().is_relative_to(SRC):
        log(f"error: imported sidonpds from {sidonpds.__file__}, not from {SRC}")
        return 2
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        log(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
        return 2
    if args.seconds <= 0:
        log("error: --seconds must be positive")
        return 2

    lines = [f"sidonpds benchmark: workload={args.workload} seed={args.seed} "
             f"seconds={args.seconds:g} trace={args.trace}",
             "provenance " + json.dumps(provenance(args, sidonpds.__file__))]
    WORK.mkdir(exist_ok=True)
    sizes = workloads.SMOKE if args.smoke else workloads.FULL
    wl = workloads.WORKLOADS[args.workload](args.seed, sizes, WORK, log)
    try:
        if args.trace:
            tracer = tracing.Tracer(f"{args.workload}-seed{args.seed}-{os.getpid()}-{time.time_ns()}")
            with tracer:
                with tracer.span("bench.setup"):
                    wl.setup()
            untraced = measure(wl, args.seconds)
            traced = Passes()
            with tracer:
                for item in untraced.items:
                    with tracer.span("bench.pass"):
                        traced.run(wl, item, steps=False)
            tracer.write_spans(WORK / "spans" / f"{args.workload}-seed{args.seed}.jsonl")
            metrics = per_layer(tracer, untraced, traced, lines.append)
            ops = untraced.ops + traced.ops
            failed = untraced.failed + traced.failed
        else:
            setup_wall, setup_ref = measure_setup(wl.setup_q_max, wl.data_root)
            wl.setup()
            passes = measure(wl, args.seconds)
            metrics = end_to_end(args.workload, passes, setup_wall, setup_ref, lines.append)
            ops, failed = passes.ops, passes.failed
    finally:
        wl.close()
    for line in lines:
        print(line)
    print(json.dumps({"correct": failed == 0, "attempted": ops, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
