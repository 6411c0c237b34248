import random
from math import gcd

import pytest

from sidonpds.orbit import (
    EXTENDS,
    NO_IMAGE,
    SKIP_COLLISION,
    SKIP_SIZE,
    MappingSource,
    brute_force_at_q,
    coset_path,
    fast_check,
    fast_extends_at_q,
    rigor_class,
)
from sidonpds.sidon import is_sidon, sidon_distinct_mod

A = (0, 1, 3, 11)
CANDIDATES = (A, (0, 1, 4, 11), (0, 8, 10, 11), (0, 7, 10, 11))


def test_subset_of_own_pds_extends_identically(source):
    pds = source.get(3)
    out = fast_extends_at_q((0, 1, 3, 9), 3, pds)
    assert out.kind == EXTENDS
    assert (out.witness.a, out.witness.b) == (1, 0)


def test_collision_skip_at_q3(source):
    out = fast_extends_at_q(A, 3, source.get(3))
    assert out.kind == SKIP_COLLISION
    assert "collision mod 13" in out.reason


def test_size_skip(source):
    out = fast_extends_at_q((0, 1, 3, 7, 12, 20), 4, source.get(4))
    assert out.kind == SKIP_SIZE


def test_singleton_always_extends(source):
    out = fast_extends_at_q((5,), 3, source.get(3))
    assert out.kind == EXTENDS


def test_first_witness_at_q37(source):
    report = fast_check((0, 1, 3, 19), 64, source)
    assert report.extends and report.witness.q == 37
    # nothing smaller worked: every checked order is below 37
    assert all(q < 37 for q, _ in report.checked)


def test_witness_is_sound(source):
    report = fast_check((0, 1, 3, 19), 64, source)
    w = report.witness
    pds = source.get(w.q)
    assert gcd(w.a, w.v) == 1
    image = sorted((w.a * ((s - 0) % w.v) + w.b) % w.v for s in (0, 1, 3, 19))
    assert tuple(image) == w.image
    assert set(w.image) <= set(pds.elems)


def test_known_size5_nonextender_to_128(source):
    report = fast_check((1, 2, 4, 8, 13), 128, source)
    assert not report.extends


def test_candidates_skip_structure_to_64(source):
    for s in CANDIDATES:
        report = fast_check(s, 64, source)
        assert not report.extends
        collisions = {q for q, reason in report.skipped if "collision" in reason}
        assert collisions == {3, 4}  # difference sums 13 and 21 wrap to zero
        checked_qs = {q for q, _ in report.checked}
        assert min(checked_qs) == 5


def test_fast_check_rejects_non_sidon_and_bad_bound(source):
    with pytest.raises(ValueError):
        fast_check((0, 1, 2, 4), 64, source)
    with pytest.raises(ValueError):
        fast_check(A, 2, source)


def test_missing_cache_is_recorded_not_silent():
    empty = MappingSource({})
    report = fast_check(A, 13, empty)
    assert not report.extends
    assert not report.checked
    assert ("no cached PDS" in dict(report.skipped)[5])


def test_brute_force_examples(source):
    fano = source.get(2)
    assert brute_force_at_q((0, 1, 3), 2, fano).kind == EXTENDS
    # direct call scans despite the collision and finds nothing
    assert brute_force_at_q(A, 3, source.get(3)).kind == NO_IMAGE


def test_fast_agrees_with_brute_on_candidates_small_q(source):
    for s in CANDIDATES:
        for q in (3, 4, 5, 7, 8, 9):
            pds = source.get(q)
            fast = fast_extends_at_q(s, q, pds)
            brute = brute_force_at_q(s, q, pds)
            fast_extends = fast.kind == EXTENDS
            assert fast_extends == (brute.kind == EXTENDS)
            if fast.kind == SKIP_COLLISION:
                assert brute.kind == NO_IMAGE


def test_fast_agrees_with_brute_on_random_quadruples(source):
    rng = random.Random(2024)
    sets = set()
    while len(sets) < 100:
        s = tuple(sorted(rng.sample(range(41), 4)))
        if is_sidon(s):
            sets.add(s)
    cases = [(s, q) for s in sorted(sets) for q in (3, 4, 5, 7, 8, 9, 11)]
    # dilations by factors of v = 21, 57, 91, 273: every pivot shares a factor
    # with v, so check_all_pivots runs the lifted scan on each one
    cases += [
        (tuple(k * x for x in s), q)
        for s in sorted(sets)
        for k in (3, 7, 13)
        for q in (4, 7, 9, 16)
    ]
    # a size-2 set leaves the scan no element beside the pivot
    cases += [(s, q) for s in ((0, 5), (0, 3), (0, 7)) for q in (2, 4, 9, 16)]
    lifted = 0
    for s, q in cases:
        pds = source.get(q)
        fast = fast_extends_at_q(s, q, pds, check_all_pivots=True)
        brute = brute_force_at_q(s, q, pds)
        assert (fast.kind == EXTENDS) == (brute.kind == EXTENDS), (s, q)
        if fast.kind in (EXTENDS, NO_IMAGE) and all(gcd(x - s[0], pds.v) > 1 for x in s[1:]):
            lifted += 1
    assert lifted > 100


def test_q_must_match_the_pds(source):
    pds = source.get(5)
    with pytest.raises(ValueError, match="does not match"):
        fast_extends_at_q(A, 4, pds)
    with pytest.raises(ValueError, match="does not match"):
        brute_force_at_q(A, 4, pds)


# (set, q) with no unit pivot at q: jointly coprime to v = 273, 651, 1407 but
# every element shares a factor with it, plus two sets on the coset path
NO_UNIT_PIVOT = (
    ((0, 3, 7, 13), 16),
    ((0, 3, 7, 31), 25),
    ((0, 15, 18, 28), 25),
    ((0, 3, 7, 67), 37),
    ((0, 3, 14, 30), 37),
    ((0, 7, 21, 63), 9),
    ((0, 7, 21, 49), 16),
)


def test_fast_path_never_calls_brute_force(source, monkeypatch):
    oracle = {(s, q): brute_force_at_q(s, q, source.get(q)).kind for s, q in NO_UNIT_PIVOT}
    assert set(oracle.values()) == {EXTENDS, NO_IMAGE}

    def refuse(*args, **kwargs):
        raise AssertionError("brute_force_at_q called from the fast path")

    monkeypatch.setattr("sidonpds.orbit.brute_force_at_q", refuse)
    for (s, q), expected in oracle.items():
        pds = source.get(q)
        assert all(gcd(x, pds.v) > 1 for x in s[1:]), (s, q)
        out = fast_extends_at_q(s, q, pds)
        assert out.kind == expected, (s, q)


def test_coset_path_matches_brute_force(source):
    # v = 91 = 7 * 13: multiples of 7 reduce to Sidon sets mod 13
    pds = source.get(9)
    for s in ((0, 7, 21, 63), (0, 7, 28, 42)):
        assert sidon_distinct_mod(s, 91)
        fast = fast_extends_at_q(s, 9, pds)
        brute = brute_force_at_q(s, 9, pds)
        assert (fast.kind == EXTENDS) == (brute.kind == EXTENDS)
        if fast.kind == EXTENDS:
            assert set(fast.witness.image) <= set(pds.elems)


def test_coset_path_no_room_pigeonhole(source):
    # Singer set at q=4 splits mod 3 into cosets of sizes 3, 1, 1: no room
    # for a 4-element image that must live inside one coset
    pds = source.get(4)
    sizes = {}
    for b in pds.elems:
        sizes[b % 3] = sizes.get(b % 3, 0) + 1
    assert max(sizes.values()) < 4
    out = coset_path((0, 3, 9, 12), (0, 3, 9, 12), 4, 21, pds, 3)
    assert out.kind == NO_IMAGE
    assert out.reason == "no eligible coset"


def test_unit_content_does_not_take_coset_path(source):
    # elements share the factor 2 but v is odd, so the plain pivot scan runs
    # and the verdict matches the undilated set at every q
    doubled = tuple(2 * x for x in A)
    for q in (5, 7, 8, 9, 11, 13):
        pds = source.get(q)
        out_a = fast_extends_at_q(A, q, pds)
        out_d = fast_extends_at_q(doubled, q, pds)
        assert out_a.kind == out_d.kind


def test_affine_invariance_of_fast_check(source):
    from sidonpds.sidon import normalize

    image = normalize(tuple(2 * x + 9 for x in A))
    rep_a = fast_check(A, 64, source)
    rep_i = fast_check(image, 64, source)
    assert rep_a.extends == rep_i.extends


def test_rigor_classes():
    assert rigor_class(3) == "hall"
    assert rigor_class(40) == "hall"
    assert rigor_class(41) == "ppc"
    assert rigor_class(128) == "explicit"
    assert rigor_class(317) == "ppc"
