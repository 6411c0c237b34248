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
`verify_pds` or raises.

Each node branches on how the smallest difference d outside D gets covered
(exact cover; Knuth, Dancing Links, 2000).  In a PDS every nonzero
difference occurs exactly once, so exactly one pair of the final set has
difference d.  Either it holds one chosen element, and the new element is
x in (C + d) | (C - d), never both since x would be a midpoint; or it holds
two new elements y and z = y + d.  The branches are disjoint and together
cover every extension, so each solution is reached once, in any order.
A pair branch is ruled out without building its state.  With y and z both
allowed, adding y forbids z in exactly three cases, each one bit of a mask
the node holds: y - d in C (d would be taken, as y - (y - d)), z + d in C
(z would be the midpoint of y and z + d) or y + z in C + C (z - c1 = c2 - y
for chosen c1, c2).  Nothing else forbids z: d itself is uncovered, and z is
allowed, so it is not in C.  A child is kept only when it has at least as
many allowed residues as slots to fill.

Most children that fail that count are ruled out before their state is
built.  Adding x only adds to D and to C + C, so the child's allowed set
lies inside allowed & ~((D + x) | ((C + C) - x)), read from the parent's
masks with four shifts.  When that holds too few residues, `grow` stops
there; otherwise it adds the fresh differences and the new midpoints and
counts again.  The allowed set of a pair child (y, z) lies inside the
same set taken for y and z together.  It also has at most |allowed_y| - 1
residues, where allowed_y is the allowed set after adding y alone: z is
in allowed_y, since the pair was not ruled out, and adding z takes z out.
So y's child must keep one residue more than the pair child's slots.
Each test only drops a child that the full count would drop, so the tree
is unchanged.

Find-first returns the least solution, in lex order of the sorted sets.
That is the set the older search met first, as it added non-seed elements
in increasing order: for two extensions of one seed the least element of
their symmetric difference is not in the seed, so the lex order of the full
sets is the lex order of the added elements.  It tries the children in the
order of a lower bound on the sets below them and drops a child whose bound
does not beat the least solution found so far.  The bound is computed only
to order two or more children or to prune once a solution is known; a lone
child before then is entered directly.  Until a solution is known the bound
prunes nothing, so a subtree that holds no solution has the same nodes in
any order: each node's children depend only on its state.  So a ranked
node first searches each child's subtree with no bound, the way find-all
does.  When that pass ends, the subtree holds no solution and its count
stands.  When it meets a leaf, its count is dropped and the child is
searched a second time, ranked, with the same rule at each of its own
children.  The tree and the node count are those of the ranked
search alone, and a proof that exhausts computes the bound only down to
the first node with two children.  The test suite keeps the older search,
and the one before it that rechecks each candidate pair by pair, as oracles
for this one.

A search stops one way: at its deadline, read every 256 nodes.  A deadline
stop returns the least extension met so far, by a pass or by the ranked
search, and otherwise TIMEOUT: a timed out search proves nothing and is
never folded into "exhausted".
"""

from __future__ import annotations

import time
from math import isqrt
from typing import NamedTuple

from .sidon import SKIP_COLLISION, SKIP_SIZE, Pds, sidon_distinct_mod, verify_pds
from .singer import affine_equivalent

FOUND = "found"
EXHAUSTED = "exhausted"
TIMEOUT = "timeout"

_TIME_CHECK_QUANTUM = 256


# a NamedTuple body may not define __new__, so the validating class extends it
class _DfsBudgetFields(NamedTuple):
    time_limit_s: float


class DfsBudget(_DfsBudgetFields):
    __slots__ = ()

    def __new__(cls, time_limit_s: float = 60.0):
        if not time_limit_s > 0:  # NaN too: it would never pass the deadline
            raise ValueError("time_limit_s must be positive")
        return super().__new__(cls, time_limit_s)


class DfsRun(NamedTuple):
    """One seeded search at order q, v = q^2+q+1; pds is the witness when found."""

    q: int
    v: int
    status: str  # found / exhausted / timeout / skip_size / skip_collision
    elapsed: float
    nodes: int
    pds: tuple[int, ...] | None


class _Stop(Exception):
    """The deadline passed.  _search then returns the least extension met so
    far, by a pass or by the ranked search, and otherwise TIMEOUT."""


class _Met(Exception):
    """A bound-free pass of find-first reached a leaf."""


def _search(v: int, n: int, seed, *, find_all: bool, budget: DfsBudget | None):
    """Core DFS; returns (solutions, status, nodes). Solutions contain the seed.

    The seed is the only gate: each of its residues mod v, repeats
    included, must be allowed when it is added, and a chosen residue never
    is again.  So a seed with a repeated residue or with colliding
    differences mod v is a ValueError; for an odd v that is exactly
    not sidon_distinct_mod(seed, v).  The solutions come back sorted.
    Find-first runs the tree to the end, or to the deadline, and keeps only
    the least solution.

    Each node rules out a pair branch (y, y + d) by three bit tests on its
    own masks, with no grow (the three cases in the module docstring), so
    at two slots a pair goes straight to `leaf`.  A child is kept only when
    its allowed residues can fill its slots; `grow` tests that on the
    parent's masks first (the bound in the module docstring), and builds
    the child only when it passes.  Find-first computes the lex
    bound only to order two or more children or to prune against a known
    solution; the tree, and so the node count, is the same as when every
    child is built and bounded.  While no solution is known, a ranked node
    enters each child through `visit`: a bound-free pass over the subtree,
    which keeps its count when it ends, since the ranked search would visit
    the same nodes in another order, and is dropped for a second, ranked
    search of the child when it meets a leaf.  A deadline stop returns the
    least solution met so far, by a pass or by the ranked search, and
    otherwise TIMEOUT.
    """
    full = (1 << v) - 1
    half = (v + 1) // 2  # the inverse of 2 mod v; v = q^2+q+1 is odd

    def grow(x: int, used: int, allowed: int, members: int, negs: int, halves: int, sums: int,
             need: int = 0):
        """The masks after adding x, for x in allowed and 0 <= x < v, or None
        when fewer than need residues stay allowed."""
        y = v - x
        allowed &= ~(used << x | used >> y | sums << y | sums >> x)  # D + x, (C + C) - x
        if allowed.bit_count() < need:
            return None
        fresh = ((negs << x | negs >> y) | (members << y | members >> x)) & full  # x - C, C - x
        members |= 1 << x
        hx = x * half % v
        halves |= 1 << hx
        # the fresh differences + x and the new midpoints (C + x) / 2
        allowed &= ~(fresh << x | fresh >> y | halves << hx | halves >> (v - hx))
        if allowed.bit_count() < need:
            return None
        return (used | fresh, allowed, members, negs | 1 << (y % v), halves,
                sums | ((members << x | members >> y) & full))

    # bit 0 of used: residues already taken read as "difference zero in use"
    state = (1, full, 0, 0, 0, 0)
    base = sorted(x % v for x in seed)
    for x in base:
        if not state[1] >> x & 1:
            raise ValueError(f"seed has difference collisions mod {v}")
        state = grow(x, *state)
    if len(base) == n:
        sol = tuple(base)
        if not verify_pds(sol, v):
            raise AssertionError("full-size seed with distinct differences must be a PDS")
        return [sol], FOUND, 0
    t0 = time.monotonic()
    deadline = None if budget is None else t0 + budget.time_limit_s
    nodes = 0
    solutions: list[tuple[int, ...]] = []
    least = None  # find-first: the rank of the least solution so far
    free = find_all  # expand every child with no bound: find-all, or a pass
    met = None  # find-first: the least solution met by a dropped pass

    def rank(members: int) -> str:
        """One character per residue, "0" for a member.

        X ranks before Y iff the least residue of X ^ Y is in X; on sets of
        one size that is the lex order of their sorted tuples.
        """
        return format(full ^ members, f"0{v}b")[::-1]

    def reach(slots: int, st) -> str:
        """A lower bound on the rank of every solution below st.

        Add the lowest allowed residue while slots remain.  A solution below
        st that holds the first i picks holds no residue below the next one,
        so it ranks at or after the set reached, and a set reached with every
        slot filled is the least solution below st.
        """
        for _ in range(slots):
            allowed = st[1]
            if not allowed:
                break
            st = grow((allowed & -allowed).bit_length() - 1, *st)
        return rank(st[2])

    def leaf(members: int):
        nonlocal least, met
        sol = tuple(y for y in range(v) if members >> y & 1)
        if not verify_pds(sol, v):
            raise AssertionError(f"DFS leaf is not a perfect difference set: {sol}")
        if find_all:
            solutions.append(sol)
        elif free:
            if met is None or sol < met:
                met = sol
            raise _Met
        elif not solutions or sol < solutions[0]:
            solutions[:] = [sol]
            least = rank(members)

    def recurse(slots: int, used, allowed, members, negs, halves, sums):
        nonlocal nodes
        nodes += 1
        if nodes % _TIME_CHECK_QUANTUM == 0 and deadline is not None and time.monotonic() > deadline:
            raise _Stop
        d = (~used & (used + 1)).bit_length() - 1  # the smallest uncovered difference
        e = v - d
        children = []  # only children with at least as many allowed residues as slots
        # one new element x = c + d or c - d; never both, x would be a midpoint
        cand = (members << d | members >> e | members << e | members >> d) & allowed
        while cand:
            bit = cand & (-cand)
            cand ^= bit
            if slots == 1:
                leaf(members | bit)
                continue
            st = grow(bit.bit_length() - 1, used, allowed, members, negs, halves, sums, slots - 1)
            if st is not None:
                children.append((slots - 1, st))
        if slots >= 2:
            # two new elements y and z = y + d, both allowed; adding y forbids
            # z iff y - d or z + d is in C or y + z is in C + C
            d2 = 2 * d % v
            cand = allowed & (allowed >> d | allowed << e) & ~(
                members << d | members >> e | members << (v - d2) | members >> d2)
            while cand:
                bit = cand & (-cand)
                cand ^= bit
                y = bit.bit_length() - 1
                z = (y + d) % v
                if sums >> ((y + z) % v) & 1:
                    continue
                if slots == 2:
                    leaf(members | bit | 1 << z)
                    continue
                # the parent's bound for y and z together; then y's child
                # must keep z and slots - 2 more residues
                u, w = v - y, v - z
                if (allowed & ~(used << y | used >> u | sums << u | sums >> y
                                | used << z | used >> w | sums << w | sums >> z)).bit_count() < slots - 2:
                    continue
                st = grow(y, used, allowed, members, negs, halves, sums, slots - 1)
                st = st and grow(z, *st, slots - 2)
                if st:
                    children.append((slots - 2, st))
        if free:
            for k, st in children:
                recurse(k, *st)
            return
        if least is None and len(children) == 1:  # nothing to order, nothing to prune
            k, st = children[0]
            recurse(k, *st)
            return
        # find-first: the child that reaches the lowest set first, and none
        # that cannot reach below the least solution found so far
        ranked = [(reach(k, st), k, st) for k, st in children]
        ranked.sort(key=lambda c: c[0])
        for bound, k, st in ranked:
            if least is None:
                visit(k, st)
            elif bound >= least:
                return
            else:
                recurse(k, *st)

    def visit(slots: int, st):
        """Search a child of a ranked node while no solution is known: a
        bound-free pass, then a ranked search if the pass is dropped."""
        nonlocal nodes, free
        entry = nodes
        free = True
        try:
            recurse(slots, *st)
            return
        except _Met:
            nodes = entry
        finally:
            free = False
        recurse(slots, *st)

    status = EXHAUSTED
    try:
        recurse(n - len(base), *state)
    except _Stop:
        status = TIMEOUT
        if met is not None:  # verified by leaf, and it holds the seed
            solutions[:] = [min(solutions + [met])]
    solutions.sort()
    # an enumeration that ran to completion, or find-first with the least
    # solution met, whether or not the deadline passed
    if solutions and (status == EXHAUSTED or not find_all):
        status = FOUND
    return solutions, status, nodes


def find_pds_extension(s, v: int, budget: DfsBudget | None = None) -> DfsRun:
    """Search for a perfect difference set in Z_v containing s mod v.

    Its size n >= 2 is fixed by v = n(n-1) + 1; any other v is a
    ValueError, and so is a seed of more than n elements.  _search's seed
    gate raises the ValueError for a seed that repeats a residue or
    collides mod v, so this makes no collision test of its own.
    Returns found (with a verified witness), exhausted (a completed search:
    no extension exists at this modulus), or timeout (no conclusion).  The
    witness is the least extension in lex order.  A deadline stop returns
    the least extension met so far, by a pass or by the ranked search, and
    otherwise timeout; that witness is verified and holds s mod v like any
    other, but need not be the least one.
    """
    root = isqrt(max(4 * v - 3, 0))
    n = (root + 1) // 2
    if root * root != 4 * v - 3 or n < 2:
        raise ValueError(f"modulus {v} is not n(n-1)+1 for any size n >= 2")
    s = tuple(s)
    if len(s) > n:
        raise ValueError(f"seed larger than target size: {len(s)} > {n}")
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


def enumerate_all_pds(v: int) -> tuple[list[tuple[int, ...]], int]:
    """One perfect difference set of Z_v per translation class, plus the total over Z_v.

    Difference 1 occurs exactly once in a PDS, so each translation class has
    exactly one member containing {0, 1}; the list is those members, sorted.
    A PDS is fixed by no nonzero translate, so each class has exactly v
    members and the total over Z_v is v times the length of the list.

    Only one of each mirror pair of subtrees is searched.  The mirror
    x -> 1 - x fixes {0, 1} and maps a PDS to a PDS, so it permutes the
    list.  In a set through {0, 1} difference 2 is covered by exactly one
    pair: {1, 3}, {-2, 0} (the pairs {0, 2} and {-1, 1} would repeat
    difference 1), or {y, y + 2} with 2 <= y <= v - 3.  Those are the
    first branches of the anchored search, and the mirror swaps {1, 3} with
    {-2, 0} and {y, y + 2} with {-1 - y, 1 - y}.  No pair is its own mirror:
    at y = (v - 1)/2 the differences y - 0 and 1 - (y + 2) coincide.  So the
    sets through {0, 1, 3} and through {0, 1, y, y + 2} with y < (v - 1)/2,
    with their mirrors, are the whole list, each set once.
    """
    q = (isqrt(4 * v - 3) - 1) // 2
    if q < 2 or q * q + q + 1 != v:
        raise ValueError(f"{v} is not of the form q^2+q+1 with q >= 2")
    seeds = [(0, 1, 3)] + [(0, 1, y, y + 2) for y in range(2, (v - 1) // 2)
                           if sidon_distinct_mod((0, 1, y, y + 2), v)]
    found = set()
    for seed in seeds:
        for sol in _search(v, q + 1, seed, find_all=True, budget=None)[0]:
            found.add(sol)
            found.add(tuple(sorted((1 - x) % v for x in sol)))
    anchored = sorted(found)
    return anchored, v * len(anchored)


def all_in_singer_orbit(v: int, pds_list, singer: Pds) -> bool:
    """True iff every listed PDS is an affine image of the given Singer PDS."""
    if singer.v != v:
        raise ValueError(f"Singer PDS is for v={singer.v}, not {v}")
    return all(affine_equivalent(v, b, singer.elems) is not None for b in pds_list)


class IndependentReport(NamedTuple):
    """Per-seed aggregate over a modulus range, with the proof status made explicit."""

    seed: tuple[int, ...]
    runs: tuple[DfsRun, ...]

    @property
    def extends(self) -> bool:
        return any(r.status == FOUND for r in self.runs)

    @property
    def no_extension_proven(self) -> bool:
        """Every applicable modulus exhausted, none found; a timeout disqualifies the claim."""
        applicable = [r for r in self.runs if r.status in (FOUND, EXHAUSTED, TIMEOUT)]
        return bool(applicable) and all(r.status == EXHAUSTED for r in applicable)


def independent_runs(s, q_lo: int = 2, q_hi: int = 11, budget: DfsBudget | None = None):
    """Seeded DFS of s at each q in [q_lo, q_hi], prime power or not, in turn.

    Yields each order's DfsRun as soon as that order is decided, and stops
    after the first found run.  A seed too large for the target size or
    colliding mod v is yielded as a skip; those moduli cannot host an
    embedding in the first place.  A bad range raises ValueError at the
    first next(), before any search.
    """
    if q_lo < 2 or q_hi < q_lo:
        raise ValueError(f"bad q range [{q_lo}, {q_hi}]")
    for q in range(q_lo, q_hi + 1):
        v = q * q + q + 1
        if len(s) > q + 1:
            yield DfsRun(q, v, SKIP_SIZE, 0.0, 0, None)
        elif not sidon_distinct_mod(s, v):
            yield DfsRun(q, v, SKIP_COLLISION, 0.0, 0, None)
        else:
            run = find_pds_extension(s, v, budget)
            yield run
            if run.status == FOUND:
                return


def independent_check(candidates, q_lo: int = 2, q_hi: int = 11,
                      budget: DfsBudget | None = None) -> list[IndependentReport]:
    """One IndependentReport per candidate, its runs from independent_runs."""
    reports = []
    for s in candidates:
        s = tuple(sorted(s))
        reports.append(IndependentReport(s, tuple(independent_runs(s, q_lo, q_hi, budget))))
    return reports
