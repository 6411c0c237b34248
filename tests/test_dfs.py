import random
import time

import pytest

from sidonpds.dfs import (
    _TIME_CHECK_QUANTUM,
    EXHAUSTED,
    FOUND,
    SKIP_COLLISION,
    SKIP_SIZE,
    TIMEOUT,
    DfsBudget,
    _search,
    _Stop,
    all_in_singer_orbit,
    enumerate_all_pds,
    find_pds_extension,
    independent_check,
)
from sidonpds.sidon import is_sidon, sidon_distinct_mod, verify_pds
from sidonpds.singer import affine_equivalent, singer_pds_trace

A = (0, 1, 3, 11)
B = (0, 1, 4, 11)


# The search as it was before the rotated-mask kernel: every candidate is
# rechecked against each chosen element, and each child's forbidden residues
# are rebuilt pair by pair.  Slow, and kept as the oracle for `_search`.
def _pairwise_search(v: int, n: int, seed, *, find_all: bool, budget: DfsBudget | None):
    """Core DFS; returns (solutions, status, nodes). Solutions contain the seed."""
    full = (1 << v) - 1
    base = sorted({x % v for x in seed})
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
    t0 = time.monotonic()
    deadline = None if budget is None else t0 + budget.time_limit_s
    node_limit = None if budget is None else budget.node_limit
    state = {"nodes": 0}
    solutions: list[tuple[int, ...]] = []

    def recurse(chosen: list[int], used: int, allowed: int, last: int):
        state["nodes"] += 1
        if state["nodes"] % _TIME_CHECK_QUANTUM == 0:
            if deadline is not None and time.monotonic() > deadline:
                raise _Stop
            if node_limit is not None and state["nodes"] > node_limit:
                raise _Stop
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

    status = EXHAUSTED
    try:
        found = recurse(base, used, allowed, -1)
        if found:
            status = FOUND
    except _Stop:
        status = TIMEOUT
    if find_all and status == EXHAUSTED and solutions:
        status = FOUND  # enumeration that ran to completion and found sets
    return solutions, status, state["nodes"]


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
    want, want_status, want_nodes = _pairwise_search(v, n, (0,), find_all=True, budget=None)
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
            want = _pairwise_search(v, n, s, find_all=False, budget=None)
            assert got[:2] == want[:2], (s, v)
            assert got[2] <= want[2], (s, v)
            statuses.append(got[1])
            if got[1] == FOUND:
                break
    assert statuses.count(FOUND) >= 20 and statuses.count(EXHAUSTED) >= 20
    assert set(statuses) == {FOUND, EXHAUSTED}


# (0, 2, 7, 9) repeats the difference 2; (0, 1, 2) and (0, 5, 10) have a
# midpoint, so two fresh differences of the last element coincide.
@pytest.mark.parametrize("seed", [A, (0, 2, 7, 9), (0, 1, 2), (0, 5, 10)])
def test_search_rejects_a_seed_with_colliding_differences_mod_v(seed):
    for search in (_search, _pairwise_search):
        with pytest.raises(ValueError):
            search(13, 4, seed, find_all=False, budget=None)


@pytest.mark.parametrize("v,n", [(7, 3), (13, 4), (21, 5), (31, 6)])
def test_anchored_enumeration_rebuilds_the_list_through_zero(v, n):
    sols, total = enumerate_all_pds(v)
    through0, _, _ = _pairwise_search(v, n, (0,), find_all=True, budget=None)
    assert sols == sorted(through0)
    assert all(0 in s and verify_pds(s, v) for s in sols)
    assert len(set(sols)) == len(sols)
    anchored, _, _ = _search(v, n, (0, 1), find_all=True, budget=None)
    assert len(sols) == n * len(anchored)
    assert total == v * len(anchored)


def test_find_extension_of_013_in_z13():
    out = find_pds_extension((0, 1, 3), 13, 4)
    assert out.status == FOUND
    assert set((0, 1, 3)) <= set(out.pds)
    assert verify_pds(out.pds, 13)


def test_full_size_seed_is_its_own_extension():
    out = find_pds_extension((0, 1, 3), 7, 3)
    assert out.status == FOUND and out.pds == (0, 1, 3)


def test_exhausted_for_candidate_at_small_moduli():
    for v, q in ((31, 5), (43, 6), (57, 7)):
        out = find_pds_extension(B, v, q + 1)
        assert out.status == EXHAUSTED, (v, out)


def test_rejects_bad_parameters():
    with pytest.raises(ValueError):
        find_pds_extension((0, 1, 3), 14, 4)  # 4*3 != 13
    with pytest.raises(ValueError):
        find_pds_extension(A, 13, 4)  # collides mod 13
    with pytest.raises(ValueError):
        find_pds_extension((0, 1, 3, 7, 12), 13, 4)  # seed larger than target


def test_timeout_is_reported_not_exhausted():
    out = find_pds_extension(A, 133, 12, DfsBudget(time_limit_s=0.005))
    assert out.status == TIMEOUT
    assert out.pds is None


def test_node_limit_counts_as_timeout():
    out = find_pds_extension(A, 133, 12, DfsBudget(time_limit_s=60, node_limit=3000))
    assert out.status == TIMEOUT


def test_budget_validation():
    with pytest.raises(ValueError):
        DfsBudget(time_limit_s=0)


@pytest.mark.parametrize(
    "v,q,expected_total",
    [(13, 3, 52), (21, 4, 42), (31, 5, 310)],
)
def test_enumeration_totals(v, q, expected_total):
    sols, total = enumerate_all_pds(v)
    assert total == expected_total
    assert all(0 in s and verify_pds(s, v) for s in sols)
    # translate counting identity, exact
    assert len(sols) * v == total * (q + 1)


def test_enumeration_rejects_bad_or_oversized_modulus():
    with pytest.raises(ValueError):
        enumerate_all_pds(14)
    with pytest.raises(ValueError):
        enumerate_all_pds(91)  # above the default bound without force


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


def test_independent_check_covers_non_prime_power_orders():
    rep = independent_check([B], 5, 7, DfsBudget(30))[0]
    assert [r.v for r in rep.runs] == [31, 43, 57]  # q = 6 is not a prime power, still searched
