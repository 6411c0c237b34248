"""Smoke run: every workload at its smallest size, traced and untraced.

    python3 perfbench/smoke.py

Asserts that each run exits 0, that its outputs check out, and that the last
stdout line carries exactly the metric names BENCHMARK.json declares, with
their units.  It takes about a minute once the shared cache exists.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            cmd = [*spec["command"], "--workload", workload, "--seed", "1", "--seconds", "1",
                   "--trace", str(trace), "--smoke"]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
            label = f"{workload} trace={trace}"
            if out.returncode != 0:
                failures.append(f"{label}: exit {out.returncode}\n{out.stderr}")
                continue
            result = json.loads(out.stdout.strip().splitlines()[-1])
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            if units != expected[trace]:
                failures.append(f"{label}: metric names or units differ from BENCHMARK.json")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                failures.append(f"{label}: {result['failed']} of {result['attempted']} ops failed")
            print(f"ok {label}: {result['attempted']} ops, {len(units)} metrics", flush=True)
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
