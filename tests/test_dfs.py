import random
from functools import partial
from itertools import product

import pytest

from sidonpds.dfs import (
    EXHAUSTED,
    FOUND,
    SKIP_COLLISION,
    SKIP_SIZE,
    TIMEOUT,
    DfsBudget,
    _search,
    all_in_singer_orbit,
    enumerate_all_pds,
    find_pds_extension,
    independent_check,
)
from sidonpds.pipeline import family_members
from sidonpds.sidon import is_sidon, sidon_distinct_mod, verify_pds
from sidonpds.singer import affine_equivalent, singer_pds_trace

A = (0, 1, 3, 11)
B = (0, 1, 4, 11)


# The search as it was before the rotated-mask kernel: every candidate is
# rechecked against each chosen element, and each child's forbidden residues
# are rebuilt pair by pair.  Slow, and kept as the oracle for `_search`.
def _pairwise_search(v: int, n: int, seed, *, find_all: bool):
    """Core DFS; returns (solutions, status, nodes). Solutions contain the seed."""
    full = (1 << v) - 1
    base = sorted(x % v for x in seed)
    used = 1  # bit 0: residues already taken read as "difference zero in use"
    for i, x in enumerate(base):
        fresh = 0
        for p in base[:i]:
            d = (x - p) % v
            bits = (1 << d) | (1 << (v - d))
            if (used | fresh) & bits:
                raise ValueError("seed has difference collisions mod v")
            fresh |= bits
        used |= fresh
    allowed = 0
    for y in range(v):
        if y in base:
            continue
        fresh = 0
        for p in base:
            d = (y - p) % v
            bits = (1 << d) | (1 << (v - d))
            if (used | fresh) & bits:
                break
            fresh |= bits
        else:
            allowed |= 1 << y
    if len(base) == n:
        sol = tuple(base)
        if not verify_pds(sol, v):
            raise AssertionError("full-size seed with distinct differences must be a PDS")
        return [sol], FOUND, 0
    state = {"nodes": 0}
    solutions: list[tuple[int, ...]] = []

    def recurse(chosen: list[int], used: int, allowed: int, last: int):
        state["nodes"] += 1
        slots = n - len(chosen)
        cand = allowed >> (last + 1) << (last + 1)
        if cand.bit_count() < slots:
            return False
        while cand:
            bit = cand & (-cand)
            cand ^= bit
            x = bit.bit_length() - 1
            fresh = 0
            ok = True
            for p in chosen:
                d = (x - p) % v
                bits = (1 << d) | (1 << (v - d))
                if (used | fresh) & bits:
                    ok = False
                    break
                fresh |= bits
            if not ok:
                continue
            if slots == 1:
                sol = tuple(sorted(chosen + [x]))
                if not verify_pds(sol, v):
                    raise AssertionError(f"DFS leaf is not a perfect difference set: {sol}")
                solutions.append(sol)
                if not find_all:
                    return True
                continue
            used2 = used | fresh
            shift = used2 >> (v - x)
            bad = ((used2 << x) | shift) & full
            for p in chosen:
                bad |= ((fresh << p) | (fresh >> (v - p))) & full
            if recurse(chosen + [x], used2, allowed & ~bad, x):
                return True
        return False

    status = FOUND if recurse(base, used, allowed, -1) else EXHAUSTED
    if find_all and status == EXHAUSTED and solutions:
        status = FOUND  # enumeration that ran to completion and found sets
    return solutions, status, state["nodes"]


# The search before exact-cover branching: rotated masks, every surviving
# element tried in increasing order, and the first solution met returned.
# Kept as the oracle for `_search` at sizes the pairwise oracle cannot reach.
def _increasing_search(v: int, n: int, seed, *, find_all: bool):
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
    base = sorted(x % v for x in seed)
    for x in base:
        if not state[1] >> x & 1:
            raise ValueError("seed has difference collisions mod v")
        state = grow(x, *state)
    if len(base) == n:
        sol = tuple(base)
        if not verify_pds(sol, v):
            raise AssertionError("full-size seed with distinct differences must be a PDS")
        return [sol], FOUND, 0
    nodes = 0
    solutions: list[tuple[int, ...]] = []

    def recurse(slots: int, last: int, used, allowed, members, negs, halves, sums):
        nonlocal nodes
        nodes += 1
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

    status = FOUND if recurse(n - len(base), -1, *state) else EXHAUSTED
    if find_all and status == EXHAUSTED and solutions:
        status = FOUND  # enumeration that ran to completion and found sets
    return solutions, status, nodes


def _random_sidon_pool(count=40, seed=8):
    rng = random.Random(seed)
    pool = []
    while len(pool) < count:
        s = tuple(sorted(rng.sample(range(41), rng.randint(3, 5))))
        if is_sidon(s) and s not in pool:
            pool.append(s)
    return pool


@pytest.mark.parametrize("v,n", [(7, 3), (13, 4), (21, 5), (31, 6)])
def test_search_matches_the_pairwise_oracle_find_all(v, n):
    sols, status, nodes = _search(v, n, (0,), find_all=True, budget=None)
    want, want_status, want_nodes = _pairwise_search(v, n, (0,), find_all=True)
    assert (sols, status) == (want, want_status)
    assert nodes <= want_nodes


def test_search_matches_the_pairwise_oracle_seeded():
    statuses = []
    for s in [A, B] + _random_sidon_pool():
        for q in range(2, 10):
            v, n = q * q + q + 1, q + 1
            if len(s) > n or not sidon_distinct_mod(s, v):
                continue
            got = _search(v, n, s, find_all=False, budget=None)
            want = _pairwise_search(v, n, s, find_all=False)
            assert got[:2] == want[:2], (s, v)
            assert got[2] <= want[2], (s, v)
            statuses.append(got[1])
            if got[1] == FOUND:
                break
    assert statuses.count(FOUND) >= 20 and statuses.count(EXHAUSTED) >= 20
    assert set(statuses) == {FOUND, EXHAUSTED}


@pytest.mark.parametrize("v,n", [(43, 7), (57, 8), (73, 9)])
def test_search_matches_the_increasing_oracle_find_all(v, n):
    sols, status, nodes = _search(v, n, (0, 1), find_all=True, budget=None)
    want, want_status, want_nodes = _increasing_search(v, n, (0, 1), find_all=True)
    assert (sols, status) == (want, want_status)
    assert nodes <= want_nodes


# Every q up to 11, found or not: (0, 1, 4) is found at q = 3, 4, 5, 7, 9 and
# 11 and exhausted at q = 6, 8 and 10; (0, 1, 3, 7) is found only at q = 8.
@pytest.mark.parametrize("seed", [A, B, (0, 1, 4), (0, 1, 3, 7)], ids=["A", "B", "014", "0137"])
def test_search_matches_the_increasing_oracle_seeded(seed):
    for q in range(2, 12):
        v, n = q * q + q + 1, q + 1
        if len(seed) > n or not sidon_distinct_mod(seed, v):
            continue
        got = _search(v, n, seed, find_all=False, budget=None)
        want = _increasing_search(v, n, seed, find_all=False)
        assert got[:2] == want[:2], v
        assert got[2] <= want[2], v


# (0, 2, 7, 9) repeats the difference 2; (0, 1, 2) and (0, 5, 10) have a
# midpoint, so two fresh differences of the last element coincide; (0, 13)
# repeats the residue 0, which the seed gate keeps and never allows twice.
@pytest.mark.parametrize("seed", [A, (0, 2, 7, 9), (0, 1, 2), (0, 5, 10), (0, 13)])
def test_search_rejects_a_seed_with_colliding_differences_mod_v(seed):
    for search in (partial(_search, budget=None), _increasing_search, _pairwise_search):
        with pytest.raises(ValueError, match="collisions mod"):
            search(13, 4, seed, find_all=False)


def _seed_gate_cases():
    """(seed, v): every tuple of 1 to 3 values from [-2, v + 2), repeats included, at v = 7 and 13, and seeded wider ones."""
    cases = [(s, v) for v in (7, 13) for size in (1, 2, 3) for s in product(range(-2, v + 2), repeat=size)]
    rng = random.Random(2411)
    for v in (21, 31, 57):
        for size in (4, 5, 6):
            cases += [(tuple(rng.randrange(-v, 2 * v) for _ in range(size)), v) for _ in range(200)]
    return cases


def test_find_extension_rejects_exactly_the_oversized_and_colliding_seeds(counting_clock):
    # _search's masks are the only collision test of find_pds_extension; a
    # search that passes them stops at its first deadline check
    budget = DfsBudget(time_limit_s=0.5)
    cases = _seed_gate_cases()
    assert len(cases) == 8482
    rejected = 0
    for s, v in cases:
        n = next(n for n in range(2, 9) if n * (n - 1) + 1 == v)
        if len(s) > n:
            with pytest.raises(ValueError, match="larger than target size"):
                find_pds_extension(s, v, budget)
        elif not sidon_distinct_mod(s, v):
            with pytest.raises(ValueError, match=f"collisions mod {v}$"):
                find_pds_extension(s, v, budget)
        else:
            find_pds_extension(s, v, budget)
            continue
        rejected += 1
    assert 1000 < rejected < len(cases) - 1000, rejected


@pytest.mark.parametrize("v,n", [(7, 3), (13, 4), (21, 5), (31, 6)])
def test_anchored_enumeration_rebuilds_the_list_through_zero(v, n):
    sols, total = enumerate_all_pds(v)
    assert all({0, 1} <= set(s) and verify_pds(s, v) for s in sols)
    assert sols == sorted(sols)
    # the n translates B - b through 0 of each set B through {0, 1} are
    # distinct and make up the whole list through 0
    rebuilt = sorted(tuple(sorted((x - b) % v for x in s)) for s in sols for b in s)
    assert len(set(rebuilt)) == len(rebuilt)
    through0, _, _ = _pairwise_search(v, n, (0,), find_all=True)
    assert rebuilt == sorted(through0)
    assert total == v * len(sols)


def test_find_extension_of_013_in_z13():
    out = find_pds_extension((0, 1, 3), 13)
    assert out.status == FOUND
    assert set((0, 1, 3)) <= set(out.pds)
    assert verify_pds(out.pds, 13)


def test_full_size_seed_is_its_own_extension():
    out = find_pds_extension((0, 1, 3), 7)
    assert out.status == FOUND and out.pds == (0, 1, 3)


def test_exhausted_for_candidate_at_small_moduli():
    for v in (31, 43, 57):
        out = find_pds_extension(B, v)
        assert out.status == EXHAUSTED, (v, out)


def test_rejects_bad_parameters():
    with pytest.raises(ValueError):
        find_pds_extension((0, 1, 3), 14)  # no n has n(n-1) = 13
    with pytest.raises(ValueError):
        find_pds_extension(A, 13)  # collides mod 13
    with pytest.raises(ValueError):
        find_pds_extension((0, 1, 3, 7, 12), 13)  # seed larger than the size 4


# The size of the search tree, pinned: a change to the branching, the child
# order or the bound shows here, and must say so.
@pytest.mark.parametrize(
    "v,n,seed,find_all,status,nodes",
    [(133, 12, A, False, EXHAUSTED, 1721), (133, 12, (0, 1), False, FOUND, 17771),
     (73, 9, (0, 1), True, FOUND, 2833),
     (57, 8, (0, 1), True, FOUND, 489), (91, 10, (0, 1), True, FOUND, 13459),
     (133, 12, B, False, EXHAUSTED, 2007), (133, 12, (0, 2, 8, 22), False, EXHAUSTED, 2450),
     (157, 13, A, False, EXHAUSTED, 7161)],
    ids=["A-133", "01-133", "01-73-all", "01-57-all", "01-91-all", "B-133", "02822-133", "A-157"],
)
def test_search_tree_size_is_pinned(v, n, seed, find_all, status, nodes):
    assert _search(v, n, seed, find_all=find_all, budget=None)[1:] == (status, nodes)


def test_size_follows_from_the_modulus(counting_clock):
    # v = n(n-1) + 1 fixes the size n; every other modulus is refused
    sizes = {n * (n - 1) + 1: n for n in range(2, 16)}
    for v in range(-2, 212):
        if v in sizes:
            out = find_pds_extension((0,), v, DfsBudget(time_limit_s=0.5))
            assert out.q == sizes[v] - 1 and out.status in (FOUND, TIMEOUT), v
        else:
            with pytest.raises(ValueError):
                find_pds_extension((0,), v)


def test_timeout_is_reported_not_exhausted():
    out = find_pds_extension(A, 133, DfsBudget(time_limit_s=0.005))
    assert out.status == TIMEOUT
    assert out.pds is None


def test_deadline_stop_before_any_extension_is_a_timeout(counting_clock):
    # the exhaustive search of A at v = 133 takes 1,721 nodes; the deadline
    # stops it at its k-th check, node 256 k
    for checks in (1, 2, 4):
        out = find_pds_extension(A, 133, DfsBudget(time_limit_s=checks - 0.5))
        assert (out.status, out.nodes, out.pds) == (TIMEOUT, 256 * checks, None)


def test_budget_that_stops_after_an_extension_reports_it(counting_clock):
    # (0, 1) at v = 133: a bound-free pass meets (0, 1, 3, 17, 21, ...) at
    # node 6,400 and is dropped; the deadline fires at node 1,792 of the
    # ranked search, long before the tree ends at 17,771 nodes with the least
    # extension (0, 1, 3, 12, 20, ...), so the least one met is reported
    out = find_pds_extension((0, 1), 133, DfsBudget(time_limit_s=31.5))
    assert (out.status, out.nodes) == (FOUND, 1792)
    assert out.pds == (0, 1, 3, 17, 21, 58, 65, 73, 100, 105, 111, 124)
    assert verify_pds(out.pds, 133)


def test_dilation_family_proofs_to_q11_take_45334_nodes():
    # the seeded part of the benchmark's dfs workload: every search exhausts,
    # so it runs on bound-free passes that are never dropped
    reports = independent_check(sorted(family_members(50)), 2, 11)
    assert len(reports) == 16 and all(rep.no_extension_proven for rep in reports)
    runs = [r for rep in reports for r in rep.runs if r.status not in (SKIP_SIZE, SKIP_COLLISION)]
    assert {r.status for r in runs} == {EXHAUSTED}
    assert sum(r.nodes for r in runs) == 45334


# Found and deadline-stopped runs drop each pass that meets a leaf, and keep
# the count and the status of the ranked search.  (0, 1) at v = 133 has met
# no extension at its 4th check, node 1,024 of its first pass; at its 78th,
# node 13,312, it has met the least extension, 4,459 nodes before the tree
# ends.
@pytest.mark.parametrize(
    "seed,v,time_limit_s,status,nodes,pds",
    [((0, 1, 3), 91, 60, FOUND, 926, (0, 1, 3, 9, 27, 49, 56, 61, 77, 81)),
     ((0, 1), 133, 3.5, TIMEOUT, 1024, None),
     ((0, 1), 133, 77.5, FOUND, 13312, (0, 1, 3, 12, 20, 34, 38, 81, 88, 94, 104, 109))],
    ids=["013-91", "01-133-check4", "01-133-check78"],
)
def test_found_and_deadline_stopped_runs_are_pinned(counting_clock, seed, v, time_limit_s, status, nodes, pds):
    out = find_pds_extension(seed, v, DfsBudget(time_limit_s))
    assert (out.status, out.nodes, out.pds) == (status, nodes, pds)


def test_deadline_after_a_dropped_pass_met_an_extension_reports_it(counting_clock):
    # (0, 1) at v = 133: the first bound-free pass meets an extension after
    # 6,400 nodes, its 25th check, and is dropped, and the ranked search
    # starts its count over.  The deadline fires at the 26th check, node 256
    # of the ranked search, and reports what the pass met.  A search stopped
    # at its first check, in its first pass, has met none.
    out = find_pds_extension((0, 1), 133, DfsBudget(time_limit_s=25.5))
    assert (out.status, out.nodes) == (FOUND, 256)
    assert out.pds == (0, 1, 3, 17, 21, 58, 65, 73, 100, 105, 111, 124)
    assert {0, 1} <= set(out.pds) and verify_pds(out.pds, 133)
    first = _search(133, 12, (0, 1), find_all=False, budget=DfsBudget(time_limit_s=0.5))
    assert first == ([], TIMEOUT, 256)


def test_budget_validation():
    with pytest.raises(ValueError):
        DfsBudget(time_limit_s=0)


@pytest.mark.parametrize(
    "v,q,expected_total",
    # at a prime power q = p^m the total is v*phi(v)/(3m), the size of the
    # Singer set's affine orbit: 91 * 72 / 6 = 1092 at q = 9; at q = 10 it is
    # 0, since the multiplier argument rules out a cyclic plane of order 10
    # (Gordon 1994)
    [(13, 3, 52), (21, 4, 42), (31, 5, 310), (91, 9, 1092), (111, 10, 0)],
)
def test_enumeration_totals(v, q, expected_total):
    sols, total = enumerate_all_pds(v)
    assert total == expected_total
    assert all(len(s) == q + 1 and {0, 1} <= set(s) and verify_pds(s, v) for s in sols)
    # each translation class has v members, one of them through {0, 1}
    assert len(sols) * v == total


# enumerate_all_pds searches the sets through (0, 1, 3) and through
# (0, 1, y, y + 2) for y < (v - 1)/2, and adds the mirror 1 - x of each: the
# list and the total must be those of the plain anchored search.  At v = 7
# the seed (0, 1, 3) is already a whole PDS and no pair seed is Sidon mod 7;
# v = 43 and v = 111 have no PDS.
@pytest.mark.parametrize("q", range(2, 11))
def test_mirrored_enumeration_matches_the_anchored_search(q):
    v = q * q + q + 1
    sols = _search(v, q + 1, (0, 1), find_all=True, budget=None)[0]
    assert enumerate_all_pds(v) == (sols, v * len(sols))


@pytest.mark.parametrize("q", range(2, 11))
def test_no_pair_seed_of_the_enumeration_is_its_own_mirror(q):
    # y = (v - 1)/2 is the one pair {y, y + 2} that 1 - x maps to itself;
    # its differences y - 0 and 1 - (y + 2) coincide, so the gate rejects it
    v = q * q + q + 1
    y = (v - 1) // 2
    assert {(1 - x) % v for x in (y, y + 2)} == {y, y + 2}
    with pytest.raises(ValueError, match="collisions mod"):
        _search(v, q + 1, (0, 1, y, y + 2), find_all=True, budget=None)


def test_enumeration_rejects_a_malformed_modulus():
    with pytest.raises(ValueError):
        enumerate_all_pds(14)


def test_all_pds_lie_in_singer_orbit_small():
    for v, q in ((13, 3), (21, 4), (31, 5)):
        sols, _ = enumerate_all_pds(v)
        singer = singer_pds_trace(q)
        assert all_in_singer_orbit(v, sols, singer)
        assert affine_equivalent(v, singer.elems, singer.elems) == (1, 0)


def test_orbit_check_rejects_modulus_mismatch():
    with pytest.raises(ValueError):
        all_in_singer_orbit(13, [], singer_pds_trace(4))


def test_independent_check_skip_structure():
    rep = independent_check([A], 2, 8, DfsBudget(30))[0]
    by_q = {r.q: r.status for r in rep.runs}
    assert by_q[2] == SKIP_SIZE  # |S| = 4 > q+1 = 3
    assert by_q[3] == SKIP_COLLISION
    assert by_q[4] == SKIP_COLLISION
    assert all(by_q[q] == EXHAUSTED for q in (5, 6, 7, 8))
    assert not rep.extends
    assert rep.no_extension_proven


def test_independent_check_finds_small_extension():
    rep = independent_check([(0, 1, 3)], 2, 5, DfsBudget(30))[0]
    assert rep.extends
    assert rep.runs[0].q == 2 and rep.runs[0].status == FOUND  # Fano modulus first
    assert not rep.no_extension_proven


def test_independent_check_timeouts_disqualify_proof():
    rep = independent_check([A], 11, 11, DfsBudget(time_limit_s=0.004))[0]
    assert rep.runs[0].status == TIMEOUT
    assert not rep.extends
    assert not rep.no_extension_proven


@pytest.mark.parametrize("q", [12, 13])
def test_independent_check_exhausts_order(q):
    # q = 12 is not a prime power: neither the cache nor the Singer scan
    # decides v = 157; q = 13 (v = 183) is the next order of the proof to q = 16
    v = q * q + q + 1
    for rep in independent_check([A, B], q, q):
        assert [(r.v, r.status) for r in rep.runs] == [(v, EXHAUSTED)]
        assert rep.no_extension_proven


def test_independent_check_covers_non_prime_power_orders():
    rep = independent_check([B], 5, 7, DfsBudget(30))[0]
    assert [r.v for r in rep.runs] == [31, 43, 57]  # q = 6 is not a prime power, still searched


def test_budget_rejects_nan_and_keeps_inf():
    # NaN fails every comparison, so a NaN deadline would never be passed
    with pytest.raises(ValueError):
        DfsBudget(time_limit_s=float("nan"))
    assert DfsBudget(time_limit_s=float("inf")).time_limit_s == float("inf")
