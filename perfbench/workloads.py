"""The four benchmark workloads: what each pass runs and how its output is checked.

Each workload drives the public sidonpds functions the way the matching CLI
handler does with `--jobs 1`.  A pass is the workload's unit of work; it is
timed as a whole, and its outputs are checked after the clock stops.  A
failed op is one whose verdict, count or bytes differ from the reference,
or that raised.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
import tempfile
from dataclasses import dataclass
from itertools import combinations
from math import isqrt
from pathlib import Path

from sidonpds import cache, dfs, orbit, pipeline, singer
from sidonpds.fields import is_prime_power
from sidonpds.sidon import is_sidon, normalize

PINS = json.loads((Path(__file__).parent / "pins.json").read_text())

SHARED_Q_MAX = 317
DENSITY_Q_MAX = 250
NONEXT_BASE = (0, 1, 3, 11)
NONEXT_RANGE = 50
# Verified count of size-6 Sidon supersets of NONEXT_BASE in [0, 50]
# (tests/test_pipeline.py::test_superset_counts_ground_truth method).  The
# pinned 30 in pipeline.REFERENCE_SUPERSET_COUNTS is known to be wrong.
NONEXT_SUPERSETS = 335
NONEXT_DILATIONS = 10
DFS_RANGE = 50
# Find-all enumeration totals over Z_v (the paper's cross-check moduli plus 57).
ENUMERATION_TOTALS = {13: 52, 21: 42, 31: 310, 57: 684}
# No timeout is expected: the slowest seeded search takes a few seconds.
DFS_BUDGET = dfs.DfsBudget(time_limit_s=120.0)

# Sizes of the full runs, and of the smoke run that only checks the plumbing.
# v=73 (about 20 s) is left out of the enumeration so that a dfs pass stays
# near 5 s and a full comparison of about 90 runs fits in an hour.
FULL = {"density_n": 30, "enum_v": (13, 21, 31, 57), "dfs_q_hi": 11, "cold_q": 317}
SMOKE = {"density_n": 20, "enum_v": (13, 21, 31), "dfs_q_hi": 9, "cold_q": 64}


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def prime_powers(q_max: int) -> list[int]:
    return [q for q in range(2, q_max + 1) if is_prime_power(q)]


def cache_mismatches(data_root, q_max: int) -> int:
    """Cache files under data_root that are missing, extra, or differ from the pins."""
    present = {p.name for p in (Path(data_root) / "pds_cache").glob("pds_q*.json")}
    expected = {f"pds_q{q}.json" for q in prime_powers(q_max)}
    bad = len(present ^ expected)
    for name in present & expected:
        if sha256_file(Path(data_root) / "pds_cache" / name) != PINS["pds_cache"][name]:
            bad += 1
    return bad


def shared_cache(work: Path, log) -> Path:
    """The PDS cache to q=317 that density and nonext read, built once per checkout."""
    root = work / "shared"
    if not root.exists():
        build = Path(tempfile.mkdtemp(dir=work, prefix="shared-build-"))
        try:
            log(f"building the shared PDS cache to q={SHARED_Q_MAX} (untimed)")
            cache.build_pds_cache(SHARED_Q_MAX, build)
            build.rename(root)
        finally:
            shutil.rmtree(build, ignore_errors=True)
    if cache_mismatches(root, SHARED_Q_MAX):
        raise RuntimeError(f"{root} does not match the pinned cache digests")
    return root


@dataclass
class Outcome:
    ops: int
    failed: int


class Workload:
    """Defaults: nothing to load before the first op, nothing to clean up."""

    setup_q_max: int | None = None  # cache range every invocation loads first
    data_root: Path | None = None

    def setup(self):
        pass

    def close(self):
        pass


class Density(Workload):
    """One density row: classify every normalized size-4 Sidon set in [0, N], write the JSONL."""

    setup_q_max = DENSITY_Q_MAX

    def __init__(self, seed: int, sizes: dict, work: Path, log):
        self.n_max = sizes["density_n"]  # the paper's table: fixed, the seed is unused
        self.data_root = shared_cache(work, log)
        self.out_root = Path(tempfile.mkdtemp(dir=work, prefix="density-"))
        self.family = pipeline.family_members(self.n_max)

    def setup(self):
        self.src = orbit.PdsSource(self.data_root)
        pipeline.require_cache(self.src, DENSITY_Q_MAX)

    def items(self):
        while True:
            yield self.n_max

    def run(self, n_max):
        row, records = pipeline.enumerate_sidon(n_max, 4, DENSITY_Q_MAX, source=self.src, jobs=1)
        path = cache.enumeration_path(n_max, 4, DENSITY_Q_MAX, self.out_root)
        cache.write_enumeration(records, path)
        return row, records, path

    def check(self, n_max, result) -> Outcome:
        row, records, path = result
        failed = sum(1 for r in records if r.extends == (normalize(r.elems) in self.family))
        ref = pipeline.REFERENCE_DENSITY.get(n_max)
        if ref is not None and (row.total, row.extending, row.non_extending) != ref:
            failed += 1
        if not pipeline.completeness_check(n_max, records).ok:
            failed += 1
        if sha256_file(path) != PINS["jsonl"][f"size4_N{n_max}_qmax{DENSITY_Q_MAX}"]:
            failed += 1
        return Outcome(max(len(records), 1), failed)

    def planned_ops(self, n_max) -> int:
        return pipeline.REFERENCE_DENSITY.get(n_max, (1,))[0]

    def close(self):
        shutil.rmtree(self.out_root, ignore_errors=True)


def nonext_pool() -> list[tuple[int, ...]]:
    """Size-6 Sidon supersets of {0,1,3,11} in [0,50], then the dilation family k=1..10."""
    extras = [x for x in range(NONEXT_RANGE + 1) if x not in NONEXT_BASE]
    supersets = []
    for extra in combinations(extras, 2):
        s = tuple(sorted(NONEXT_BASE + extra))
        if is_sidon(s):
            supersets.append(s)
    if len(supersets) != NONEXT_SUPERSETS:
        raise RuntimeError(f"superset pool has {len(supersets)} sets, expected {NONEXT_SUPERSETS}")
    family = [s for k in range(1, NONEXT_DILATIONS + 1) for s in pipeline.family_dilations(k)]
    return supersets + family


class Nonext(Workload):
    """`sidonpds check S --q-max 317` on non-extending sets: every order is scanned."""

    setup_q_max = SHARED_Q_MAX

    def __init__(self, seed: int, sizes: dict, work: Path, log):
        pool = nonext_pool()
        self.order = random.Random(seed).sample(pool, len(pool))
        self.data_root = shared_cache(work, log)

    def setup(self):
        self.src = orbit.PdsSource(self.data_root)
        pipeline.require_cache(self.src, SHARED_Q_MAX)

    def items(self):
        while True:
            yield from self.order

    def run(self, s):
        return orbit.fast_check(s, SHARED_Q_MAX, self.src)

    def check(self, s, report) -> Outcome:
        q_lo = max(2, len(s) - 1)
        covered = {q for q, _v in report.checked} | {q for q, _why in report.skipped}
        ok = not report.extends and covered == set(range(q_lo, SHARED_Q_MAX + 1))
        return Outcome(1, 0 if ok else 1)

    def planned_ops(self, s) -> int:
        return 1


class Dfs(Workload):
    """Unconditional layer: find-all enumeration and a seeded DFS proof to v=133."""

    def __init__(self, seed: int, sizes: dict, work: Path, log):
        family = sorted(pipeline.family_members(DFS_RANGE))
        self.order = random.Random(seed).sample(family, len(family))
        self.enum_v = sizes["enum_v"]
        self.q_hi = sizes["dfs_q_hi"]

    def items(self):
        """Each pass takes the next dilation-family set in the seeded order."""
        while True:
            for s in self.order:
                yield self.enum_v, s

    def run(self, item):
        enum_v, s = item
        enumerations = []
        for v in enum_v:
            q = (isqrt(4 * v - 3) - 1) // 2
            sols, total = dfs.enumerate_all_pds(v)
            enumerations.append((v, total, dfs.all_in_singer_orbit(v, sols, singer.singer_pds_trace(q))))
        report = dfs.independent_check([s], 2, self.q_hi, DFS_BUDGET)[0]
        return enumerations, [report]

    def check(self, item, result) -> Outcome:
        enumerations, reports = result
        ops = failed = 0
        for v, total, in_orbit in enumerations:
            ops += 1
            if total != ENUMERATION_TOTALS[v] or not in_orbit:
                failed += 1
        searched = (dfs.FOUND, dfs.EXHAUSTED, dfs.TIMEOUT)
        for rep in reports:
            runs = [r for r in rep.runs if r.status in searched]
            bad = sum(1 for r in runs if r.status != dfs.EXHAUSTED)
            ops += len(runs)
            failed += bad if bad or rep.no_extension_proven else 1
        return Outcome(ops, failed)

    def planned_ops(self, item) -> int:
        enum_v, _s = item
        return len(enum_v) + 1


class ColdCache(Workload):
    """`sidonpds build-cache 317` into an empty data root, then reload and re-verify it."""

    def __init__(self, seed: int, sizes: dict, work: Path, log):
        self.q_max = sizes["cold_q"]  # fixed input, the seed is unused
        self.work = work

    def items(self):
        while True:
            yield self.q_max

    def run(self, q_max):
        root = Path(tempfile.mkdtemp(dir=self.work, prefix="cold-"))
        try:
            cache.build_pds_cache(q_max, root)
            pipeline.require_cache(orbit.PdsSource(root), q_max)
        except BaseException:
            shutil.rmtree(root, ignore_errors=True)
            raise
        return root

    def check(self, q_max, root) -> Outcome:
        try:
            return Outcome(len(prime_powers(q_max)), cache_mismatches(root, q_max))
        finally:
            shutil.rmtree(root, ignore_errors=True)

    def planned_ops(self, q_max) -> int:
        return len(prime_powers(q_max))


WORKLOADS = {"density": Density, "nonext": Nonext, "dfs": Dfs, "cold-cache": ColdCache}
