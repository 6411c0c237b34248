import random
from itertools import combinations
from math import gcd

import pytest

from sidonpds.dfs import enumerate_all_pds
from sidonpds.fields import is_prime_power
from sidonpds.orbit import (
    EXTENDS,
    NO_IMAGE,
    SKIP_COLLISION,
    SKIP_SIZE,
    CheckReport,
    MappingSource,
    PdsSource,
    _best_pivot,
    _class_key,
    _pivot_scan,
    _scan_starts,
    brute_force_at_q,
    coset_path,
    fast_check,
    fast_check_many,
    fast_extends_at_q,
    rigor_class,
)
from sidonpds.pipeline import family_dilations, iter_sidon_sets
from sidonpds.sidon import Pds, dilate, is_sidon, normalize, reflect, sidon_distinct_mod

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


def _random_quadruples():
    """100 seeded Sidon quadruples in [0, 40], sorted."""
    rng = random.Random(2024)
    sets = set()
    while len(sets) < 100:
        s = tuple(sorted(rng.sample(range(41), 4)))
        if is_sidon(s):
            sets.add(s)
    return sorted(sets)


def _random_quadruple_cases():
    """(set, q) pairs: the quadruples at small q, their dilations, and size-2 sets."""
    sets = _random_quadruples()
    cases = [(s, q) for s in sets for q in (3, 4, 5, 7, 8, 9, 11)]
    # dilations by factors of v = 21, 57, 91, 273: every pivot shares a factor
    # with v, so check_all_pivots runs the lifted scan on each one
    cases += [
        (tuple(k * x for x in s), q)
        for s in sets
        for k in (3, 7, 13)
        for q in (4, 7, 9, 16)
    ]
    # a size-2 set leaves the scan no element beside the pivot
    cases += [(s, q) for s in ((0, 5), (0, 3), (0, 7)) for q in (2, 4, 9, 16)]
    return cases


def test_fast_agrees_with_brute_on_random_quadruples(source):
    cases = _random_quadruple_cases()
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
    out = coset_path((0, 3, 9, 12), pds, 3)
    assert out.kind == NO_IMAGE
    assert out.reason == "no eligible coset"


def _full_scan(s, pds):
    """The pivot scan from every b0 of B: what the orbit starts must reproduce."""
    s_norm = tuple((x - s[0]) % pds.v for x in s)
    return _pivot_scan(pds, s_norm, _best_pivot(s_norm, pds.v), starts=pds.elems)


def _orbit(b, p, v):
    out = {b}
    x = p * b % v
    while x != b:
        out.add(x)
        x = p * x % v
    return out


def test_scan_starts_take_the_first_of_each_orbit_on_cached_singer_sets(source):
    for q in range(2, 65):
        pp = is_prime_power(q)
        if pp is None:
            continue
        pds = source.get(q)
        starts = _scan_starts(pds)
        assert len(starts) < len(pds.elems), q
        position = {b: i for i, b in enumerate(pds.elems)}
        covered = set()
        for b in starts:
            orbit = _orbit(b, pp.p, pds.v)
            assert orbit <= position.keys(), (q, b)
            assert min(position[x] for x in orbit) == position[b], (q, b)
            assert not orbit & covered, (q, b)
            covered |= orbit
        assert covered == set(pds.elems), q
        assert list(starts) == sorted(starts, key=position.__getitem__), q


def _translate(pds, t):
    return Pds(pds.q, pds.v, tuple(sorted((b + t) % pds.v for b in pds.elems)), "translate")


def test_scan_starts_fall_back_to_every_b0_when_p_does_not_fix_b(source):
    unfixed = [_translate(source.get(q), 1) for q in (3, 4, 5, 7)]
    for q in (4, 5):
        v = q * q + q + 1
        unfixed += [Pds(q, v, elems, "enumeration") for elems in enumerate_all_pds(v)[0]]
    assert len(unfixed) == 4 + 10 + 60
    for pds in unfixed:
        assert _scan_starts(pds) == pds.elems, pds
    # at v = 13 the multiplier 3 fixes 4 of the 16 sets through 0, and only
    # those lose starts
    enumerated13 = [Pds(3, 13, elems, "enumeration") for elems in enumerate_all_pds(13)[0]]
    fixed = [pds for pds in enumerated13 if {3 * b % 13 for b in pds.elems} == set(pds.elems)]
    assert len(enumerated13) == 16 and len(fixed) == 4
    for pds in enumerated13:
        assert (len(_scan_starts(pds)) < len(pds.elems)) == (pds in fixed)
    kinds = set()
    for pds in unfixed + enumerated13:
        for s in _random_quadruples():
            fast = fast_extends_at_q(s, pds.q, pds)
            brute = brute_force_at_q(s, pds.q, pds)
            assert (fast.kind == EXTENDS) == (brute.kind == EXTENDS), (s, pds)
            if fast.kind in (EXTENDS, NO_IMAGE):
                assert fast.witness == _full_scan(s, pds).witness, (s, pds)
            kinds.add(fast.kind)
    assert {EXTENDS, NO_IMAGE} <= kinds


# the no-unit-pivot sets of the N=30 density row at their witness order, with
# the witness (a, b) that check prints for them
NO_UNIT_PIVOT_WITNESSES = (
    ((0, 3, 14, 30), 37, (761, 214)),
    ((0, 3, 21, 26), 61, (1571, 317)),
    ((0, 7, 12, 15), 37, (517, 214)),
    ((0, 13, 15, 18), 16, (233, 91)),
    ((0, 14, 24, 27), 37, (116, 214)),
    ((0, 14, 24, 30), 37, (962, 214)),
    ((0, 15, 18, 28), 25, (538, 3)),
    ((0, 18, 19, 27), 7, (14, 38)),
    ((0, 18, 27, 28), 25, (515, 163)),
)


def test_orbit_starts_keep_the_full_scan_witness(source):
    extends = 0
    for s, q in _random_quadruple_cases():
        pds = source.get(q)
        fast = fast_extends_at_q(s, q, pds)
        if fast.kind in (EXTENDS, NO_IMAGE):
            assert fast.witness == _full_scan(s, pds).witness, (s, q)
            extends += fast.kind == EXTENDS
    assert extends > 100
    for s, q, (a, b) in NO_UNIT_PIVOT_WITNESSES:
        pds = source.get(q)
        fast = fast_extends_at_q(s, q, pds)
        assert fast.kind == EXTENDS, (s, q)
        assert fast.witness == _full_scan(s, pds).witness, (s, q)
        assert (fast.witness.a, fast.witness.b) == (a, b), (s, q)


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


def _per_set_fast_check(s, q_max: int, source=None, *, data_root=None) -> CheckReport:
    """fast_check as a loop over one set's orders, kept as the oracle of the batch."""
    s = tuple(sorted(s))
    if not is_sidon(s):
        raise ValueError(f"{s} is not a Sidon set")
    n = len(s)
    q_lo = max(2, n - 1)
    if q_max < q_lo:
        raise ValueError(f"q_max={q_max} below the smallest usable order {q_lo}")
    if source is None:
        source = PdsSource(data_root)
    checked: list[tuple[int, int]] = []
    skipped: list[tuple[int, str]] = []
    for q in range(q_lo, q_max + 1):
        if is_prime_power(q) is None:
            skipped.append((q, "not prime power"))
            continue
        v = q * q + q + 1
        pds = source.get(q)
        if pds is None:
            skipped.append((q, "no cached PDS"))
            continue
        outcome = fast_extends_at_q(s, q, pds)
        if outcome.kind == EXTENDS:
            return CheckReport(True, outcome.witness, tuple(checked), tuple(skipped))
        if outcome.kind in (SKIP_COLLISION, SKIP_SIZE):
            skipped.append((q, outcome.reason or outcome.kind))
            continue
        checked.append((q, v))
    return CheckReport(False, None, tuple(checked), tuple(skipped))


def _assert_batch_matches_per_set(sets, q_max, source, compare=None):
    """Run sets as one batch and compare the reports at the indices in compare (default: all)."""
    reports = list(fast_check_many(sets, q_max, source))
    assert sorted(i for i, _ in reports) == list(range(len(sets)))
    batch = dict(reports)
    for i in range(len(sets)) if compare is None else compare:
        assert batch[i] == _per_set_fast_check(sets[i], q_max, source), sets[i]
    return batch


def _closure_supersets():
    """The 335 size-6 Sidon supersets of A in [0, 50]."""
    pool = [x for x in range(51) if x not in A]
    sups = [tuple(sorted(A + extra)) for extra in combinations(pool, 2)]
    return [s for s in sups if is_sidon(s)]


def test_batch_matches_per_set_on_the_density_row(source):
    sets = list(iter_sidon_sets(30, 4))
    assert len(sets) == 3254
    batch = _assert_batch_matches_per_set(sets, 250, source)
    assert sum(not r.extends for r in batch.values()) == 8


def test_batch_matches_per_set_on_the_dilation_family(source):
    family = [s for k in range(1, 11) for s in family_dilations(k)]
    assert len(family) == 40
    batch = _assert_batch_matches_per_set(family, 317, source)
    assert not any(r.extends for r in batch.values())


def test_batch_matches_per_set_on_closure_supersets(source):
    sups = _closure_supersets()
    assert len(sups) == 335
    sample = random.Random(11).sample(range(len(sups)), 60)
    _assert_batch_matches_per_set(sups, 317, source, compare=sample)


def test_batch_matches_per_set_on_a_mixed_batch(source):
    # orders 5, 16 and 37 missing from the source, so "no cached PDS" shows
    missing = {5, 16, 37}
    partial = MappingSource(
        {q: source.get(q) for q in range(2, 65) if is_prime_power(q) and q not in missing}
    )
    sets = [
        (7,), (0, 5), (4, 9), (0, 1, 3), (2, 3, 5),
        A, reflect(A), dilate(A, 2), (0, 3, 9, 33), (0, 24, 30, 33), (0, 1, 3, 19),
        (1, 2, 4, 8, 13), (1, 3, 9, 10, 13), reflect((1, 2, 4, 8, 13)),
        (0, 1, 3, 7, 12, 20), (5, 6, 8, 12, 17, 25), (0, 7, 21, 63),
    ]
    for src in (partial, source):
        batch = _assert_batch_matches_per_set(sets, 64, src)
        reasons = {reason for r in batch.values() for _q, reason in r.skipped}
        assert "not prime power" in reasons
        assert any(reason.startswith("S has collision") for reason in reasons)
        assert any(r.extends for r in batch.values()) and not all(r.extends for r in batch.values())
    no_cache = {q for r in dict(fast_check_many(sets, 64, partial)).values()
                for q, reason in r.skipped if reason == "no cached PDS"}
    assert no_cache == missing


def test_batch_raises_the_per_set_value_errors(source):
    for bad, q_max in (((0, 1, 2, 4), 64), (A, 2), ((0, 1, 3, 7, 12, 20), 4)):
        with pytest.raises(ValueError) as per_set:
            _per_set_fast_check(bad, q_max, source)
        # raised on the call, before any set is scanned
        with pytest.raises(ValueError) as batch:
            fast_check_many([(0, 1, 3), bad], q_max, source)
        assert str(batch.value) == str(per_set.value)
        with pytest.raises(ValueError) as single:
            fast_check(bad, q_max, source)
        assert str(single.value) == str(per_set.value)


def _random_sidon_sets():
    """Seeded Sidon sets of size 2 to 6, some dilated by a factor of a cached v."""
    rng = random.Random(77)
    sets = []
    while len(sets) < 120:
        s = tuple(sorted(rng.sample(range(60), rng.randint(2, 6))))
        if is_sidon(s):
            sets.append(tuple(x + rng.randrange(5) for x in dilate(s, rng.choice((1, 1, 2, 3, 7, 13)))))
    return sets


def test_class_key_has_the_kernel_verdict_of_its_set(source):
    # the fact verdict sharing rests on: translating, reflecting and dividing
    # by a content that is a unit mod v never change the kernel's kind
    moved = divided = 0
    for s in _random_sidon_sets():
        for q in range(max(2, len(s) - 1), 65):
            if is_prime_power(q) is None:
                continue
            pds = source.get(q)
            key = _class_key(s, pds.v)
            assert fast_extends_at_q(s, q, pds).kind == fast_extends_at_q(key, q, pds).kind, (s, q)
            moved += key != normalize(s)
            divided += max(key) < max(normalize(s))
    assert moved > 1000 and divided > 100


def test_class_key_keeps_a_content_that_divides_v(source):
    # (0,3,9,33) = 3A, and 3 divides v = 57 at q = 7: 3A collides mod 57
    # while A has no image, so dividing by 3 would share A's verdict wrongly
    pds = source.get(7)
    s = dilate(A, 3)
    assert _class_key(s, 57) == s
    assert _class_key(s, 31) == A  # q = 5: 3 is a unit mod 31
    assert fast_extends_at_q(s, 7, pds).kind == SKIP_COLLISION
    assert fast_extends_at_q(A, 7, pds).kind == NO_IMAGE
    batch = dict(fast_check_many([A, s], 64, source))
    assert (7, "S has collision mod 57") in batch[1].skipped
    assert (7, 57) in batch[0].checked
    assert batch[1] == _per_set_fast_check(s, 64, source)


def test_shared_tables_keep_every_outcome(source):
    # one table dict per order, shared by every set scanned against it
    sets = _random_sidon_sets()
    for q in (5, 7, 8, 9, 11, 13, 16):
        pds = source.get(q)
        tables = {}
        for s in sets:
            if len(s) <= q + 1:
                assert fast_extends_at_q(s, q, pds, tables=tables) == fast_extends_at_q(s, q, pds), (s, q)
        assert tables
