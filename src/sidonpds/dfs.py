"""Unconditional search: DFS extension of a seed set, and full PDS enumeration.

These searches make no use of the Singer construction or of any uniqueness
assumption: they look for arbitrary perfect difference sets in Z_v directly,
so an exhausted search is a proof of non-extension at that modulus, valid
even at non-prime-power orders.

The kernel carries six v-bit masks, each a Python int, down the recursion:
the used directed differences D (bit 0 is a sentinel, so chosen residues
read as "difference zero in use"), the allowed residues, and four views of
the chosen set C: C itself, -C, C/2 (2 is a unit because v = q^2+q+1 is
odd) and the sumset C + C.  A residue y is allowed when y - c lies outside
D for every c in C and y is not the midpoint (c1 + c2)/2 of two chosen
elements; the midpoint is the one collision between two fresh differences,
x - c1 = c2 - x.  Adding x is a handful of rotations: the fresh differences
are (x - C) | (C - x), and the newly forbidden residues are D' + x,
(C + C) - x and the new midpoints (C' + x)/2.  So every allowed candidate
extends the set, and no node loops over C.  Every leaf still passes
`verify_pds` or raises.  Non-seed elements are added in strictly increasing
order, which removes permutation duplicates without losing any solution and
fixes the first witness.  The test suite keeps the older search, which
rechecks each candidate pair by pair, as the oracle for this one.

Timeouts are tracked per search and reported as their own outcome: a timed
out search proves nothing and is never folded into "exhausted".
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from math import isqrt

from .sidon import SKIP_COLLISION, SKIP_SIZE, Pds, sidon_distinct_mod, verify_pds
from .singer import affine_equivalent

FOUND = "found"
EXHAUSTED = "exhausted"
TIMEOUT = "timeout"

_TIME_CHECK_QUANTUM = 2048
_ENUMERATION_V_LIMIT = 73


@dataclass(frozen=True)
class DfsBudget:
    time_limit_s: float = 60.0
    node_limit: int | None = None

    def __post_init__(self):
        if self.time_limit_s <= 0:
            raise ValueError("time_limit_s must be positive")


@dataclass(frozen=True)
class DfsRun:
    """One seeded search at order q, v = q^2+q+1; pds is the witness when found."""

    q: int
    v: int
    status: str  # found / exhausted / timeout / skip_size / skip_collision
    elapsed: float
    nodes: int
    pds: tuple[int, ...] | None


class _Stop(Exception):
    pass


def _search(v: int, n: int, seed, *, find_all: bool, budget: DfsBudget | None):
    """Core DFS; returns (solutions, status, nodes). Solutions contain the seed."""
    full = (1 << v) - 1
    half = (v + 1) // 2  # the inverse of 2 mod v; v = q^2+q+1 is odd

    def grow(x: int, used: int, allowed: int, members: int, negs: int, halves: int, sums: int):
        """The masks after adding x, for x in allowed and 0 <= x < v."""
        y = v - x
        used |= ((negs << x | negs >> y) | (members << y | members >> x)) & full  # x - C, C - x
        members |= 1 << x
        hx = x * half % v
        halves |= 1 << hx
        # used + x, (C + C) - x and the new midpoints (C + x) / 2
        bad = used << x | used >> y | sums << y | sums >> x | halves << hx | halves >> (v - hx)
        return (used, allowed & ~bad, members, negs | 1 << (y % v), halves,
                sums | ((members << x | members >> y) & full))

    # bit 0 of used: residues already taken read as "difference zero in use"
    state = (1, full, 0, 0, 0, 0)
    base = sorted({x % v for x in seed})
    for x in base:
        if not state[1] >> x & 1:
            raise ValueError("seed has difference collisions mod v")
        state = grow(x, *state)
    if len(base) == n:
        sol = tuple(base)
        if not verify_pds(sol, v):
            raise AssertionError("full-size seed with distinct differences must be a PDS")
        return [sol], FOUND, 0
    t0 = time.monotonic()
    deadline = None if budget is None else t0 + budget.time_limit_s
    node_limit = None if budget is None else budget.node_limit
    nodes = 0
    solutions: list[tuple[int, ...]] = []

    def recurse(slots: int, last: int, used, allowed, members, negs, halves, sums):
        nonlocal nodes
        nodes += 1
        if nodes % _TIME_CHECK_QUANTUM == 0:
            if deadline is not None and time.monotonic() > deadline:
                raise _Stop
            if node_limit is not None and nodes > node_limit:
                raise _Stop
        cand = allowed >> (last + 1) << (last + 1)
        if cand.bit_count() < slots:
            return False
        while cand:
            bit = cand & (-cand)
            cand ^= bit
            x = bit.bit_length() - 1
            if slots == 1:
                sol = tuple(y for y in range(v) if (members | bit) >> y & 1)
                if not verify_pds(sol, v):
                    raise AssertionError(f"DFS leaf is not a perfect difference set: {sol}")
                solutions.append(sol)
                if not find_all:
                    return True
                continue
            if recurse(slots - 1, x, *grow(x, used, allowed, members, negs, halves, sums)):
                return True
        return False

    status = EXHAUSTED
    try:
        found = recurse(n - len(base), -1, *state)
        if found:
            status = FOUND
    except _Stop:
        status = TIMEOUT
    if find_all and status == EXHAUSTED and solutions:
        status = FOUND  # enumeration that ran to completion and found sets
    return solutions, status, nodes


def find_pds_extension(s, v: int, n: int, budget: DfsBudget | None = None) -> DfsRun:
    """Search for a perfect difference set of size n in Z_v containing s mod v.

    Returns found (with a verified witness), exhausted (a completed search:
    no extension exists at this modulus), or timeout (no conclusion).
    """
    if n * (n - 1) != v - 1:
        raise ValueError(f"size {n} does not match modulus {v}: need n(n-1) = v-1")
    s = tuple(s)
    if len(s) > n:
        raise ValueError(f"seed larger than target size: {len(s)} > {n}")
    if not sidon_distinct_mod(s, v):
        raise ValueError(f"seed has difference collisions mod {v}")
    if budget is None:
        budget = DfsBudget()
    t0 = time.monotonic()
    solutions, status, nodes = _search(v, n, s, find_all=False, budget=budget)
    elapsed = time.monotonic() - t0
    if status == FOUND:
        sol = solutions[0]
        if not set(x % v for x in s) <= set(sol):
            raise AssertionError("found set does not contain the seed")
        return DfsRun(n - 1, v, FOUND, elapsed, nodes, sol)
    return DfsRun(n - 1, v, status, elapsed, nodes, None)


def enumerate_all_pds(v: int, *, force: bool = False) -> tuple[list[tuple[int, ...]], int]:
    """All perfect difference sets in Z_v containing 0, plus the total count over Z_v.

    The search is anchored at {0, 1}.  Difference 1 occurs exactly once in a
    PDS, so (B, b) -> B - b is a bijection from the pairs with B containing
    {0, 1} and b in B onto the PDSs through 0.  The list through 0 is
    therefore n = q+1 times the anchored list, and since exactly n of the v
    translates of a PDS pass through 0, the total over Z_v is
    v * (count through {0, 1}) = v * (count through 0) / n.
    """
    q = (isqrt(4 * v - 3) - 1) // 2
    if q < 2 or q * q + q + 1 != v:
        raise ValueError(f"{v} is not of the form q^2+q+1 with q >= 2")
    if v > _ENUMERATION_V_LIMIT and not force:
        raise ValueError(f"v={v} above the default enumeration bound {_ENUMERATION_V_LIMIT}; pass force=True")
    n = q + 1
    anchored, _status, _nodes = _search(v, n, (0, 1), find_all=True, budget=None)
    solutions = sorted(tuple(sorted((x - b) % v for x in s)) for s in anchored for b in s)
    if len(set(solutions)) != len(solutions):
        raise AssertionError("translates of the sets through {0, 1} are not distinct")
    count0 = len(solutions)
    if (count0 * v) % n:
        raise AssertionError("translate counting identity violated")
    return solutions, count0 * v // n


def all_in_singer_orbit(v: int, pds_list, singer: Pds) -> bool:
    """True iff every listed PDS is an affine image of the given Singer PDS."""
    if singer.v != v:
        raise ValueError(f"Singer PDS is for v={singer.v}, not {v}")
    return all(affine_equivalent(v, b, singer.elems) is not None for b in pds_list)


@dataclass(frozen=True)
class IndependentReport:
    """Per-seed aggregate over a modulus range, with the proof status made explicit."""

    seed: tuple[int, ...]
    runs: tuple[DfsRun, ...]
    extends: bool
    witness: tuple[int, ...] | None
    no_extension_proven: bool  # every applicable modulus exhausted, none found


def independent_check(candidates, q_lo: int = 2, q_hi: int = 11,
                      budget: DfsBudget | None = None) -> list[IndependentReport]:
    """Seeded DFS over every q in [q_lo, q_hi], prime power or not.

    A seed too large for the target size or colliding mod v is recorded as a
    skip; those moduli cannot host an embedding in the first place.  The
    aggregate only claims a proof of non-extension when every applicable
    modulus was exhausted; timeouts disqualify the claim but are still
    reported run by run.
    """
    if q_lo < 2 or q_hi < q_lo:
        raise ValueError(f"bad q range [{q_lo}, {q_hi}]")
    if budget is None:
        budget = DfsBudget()
    reports = []
    for s in candidates:
        s = tuple(sorted(s))
        runs: list[DfsRun] = []
        witness = None
        for q in range(q_lo, q_hi + 1):
            v = q * q + q + 1
            n = q + 1
            if len(s) > n:
                runs.append(DfsRun(q, v, SKIP_SIZE, 0.0, 0, None))
                continue
            if not sidon_distinct_mod(s, v):
                runs.append(DfsRun(q, v, SKIP_COLLISION, 0.0, 0, None))
                continue
            run = find_pds_extension(s, v, n, budget)
            runs.append(run)
            if run.status == FOUND:
                witness = run.pds
                break
        extends = witness is not None
        applicable = [r for r in runs if r.status in (FOUND, EXHAUSTED, TIMEOUT)]
        proven = (not extends) and bool(applicable) and all(
            r.status == EXHAUSTED for r in applicable
        )
        reports.append(IndependentReport(s, tuple(runs), extends, witness, proven))
    return reports
