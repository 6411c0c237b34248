import random
import time
from collections import Counter
from itertools import combinations
from math import gcd, isqrt

import pytest

from sidonpds.dfs import enumerate_all_pds
from sidonpds.fields import is_prime_power
from sidonpds.orbit import (
    EXTENDS,
    NO_IMAGE,
    SKIP_COLLISION,
    SKIP_SIZE,
    AffineWitness,
    CheckOutcome,
    CheckReport,
    ScanTables,
    _best_pivot,
    _clash_mask,
    _member_set,
    _multiples,
    _pivot_scan,
    _scan_starts,
    _set_data,
    _tile,
    brute_force_at_q,
    coset_path,
    fast_check,
    fast_check_many,
    fast_extends_at_q,
    rigor_class,
)
from sidonpds.pipeline import family_dilations, iter_sidon_sets
from sidonpds.sidon import Pds, dilate, is_sidon, normalize, positive_differences, reflect, sidon_distinct_mod

A = (0, 1, 3, 11)
CANDIDATES = (A, (0, 1, 4, 11), (0, 8, 10, 11), (0, 7, 10, 11))


def test_subset_of_own_pds_extends_identically(source):
    pds = source.get(3)
    out = fast_extends_at_q((0, 1, 3, 9), pds)
    assert out.kind == EXTENDS
    assert (out.witness.a, out.witness.b) == (1, 0)


def test_collision_skip_at_q3(source):
    out = fast_extends_at_q(A, source.get(3))
    assert out.kind == SKIP_COLLISION


def test_size_skip(source):
    out = fast_extends_at_q((0, 1, 3, 7, 12, 20), source.get(4))
    assert out.kind == SKIP_SIZE


def test_singleton_always_extends(source):
    out = fast_extends_at_q((5,), source.get(3))
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


def test_fast_check_rejects_the_empty_set(source):
    for check in (lambda: fast_check((), 5, source), lambda: list(fast_check_many([(0, 1), ()], 5, source))):
        with pytest.raises(ValueError, match=r"empty set \(\)"):
            check()


def test_missing_cache_is_recorded_not_silent():
    empty = {}
    report = fast_check(A, 13, empty)
    assert not report.extends
    assert not report.checked
    assert ("no cached PDS" in dict(report.skipped)[5])


def test_brute_force_examples(source):
    fano = source.get(2)
    assert brute_force_at_q((0, 1, 3), fano).kind == EXTENDS
    # direct call scans despite the collision and finds nothing
    assert brute_force_at_q(A, source.get(3)).kind == NO_IMAGE


def test_fast_agrees_with_brute_on_candidates_small_q(source):
    for s in CANDIDATES:
        for q in (3, 4, 5, 7, 8, 9):
            pds = source.get(q)
            fast = fast_extends_at_q(s, pds)
            brute = brute_force_at_q(s, pds)
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
    # with v, so _at_every_pivot runs the lifted scan on each one
    cases += [
        (tuple(k * x for x in s), q)
        for s in sets
        for k in (3, 7, 13)
        for q in (4, 7, 9, 16)
    ]
    # a size-2 set leaves the scan no element beside the pivot
    cases += [(s, q) for s in ((0, 5), (0, 3), (0, 7)) for q in (2, 4, 9, 16)]
    return cases


def _at_every_pivot(s, pds):
    """fast_extends_at_q, with _pivot_scan re-run on every pivot: the kinds must agree.

    Exercises the single-pivot completeness argument at a full extra scan per pivot.
    """
    out = fast_extends_at_q(s, pds)
    if out.kind in (EXTENDS, NO_IMAGE) and len(s) > 1:
        s_norm = tuple((x - s[0]) % pds.v for x in s)
        gs = [gcd(x, pds.v) for x in s_norm]
        for j in range(1, len(s)):
            other = _pivot_scan(ScanTables(pds), s_norm, gs, j, _scan_starts(pds))
            assert other.kind == out.kind, (s, pds.q, j)
    return out


def test_fast_agrees_with_brute_on_random_quadruples(source):
    cases = _random_quadruple_cases()
    lifted = 0
    for s, q in cases:
        pds = source.get(q)
        fast = _at_every_pivot(s, pds)
        brute = brute_force_at_q(s, pds)
        assert (fast.kind == EXTENDS) == (brute.kind == EXTENDS), (s, q)
        if fast.kind in (EXTENDS, NO_IMAGE) and all(gcd(x - s[0], pds.v) > 1 for x in s[1:]):
            lifted += 1
    assert lifted > 100


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
    oracle = {(s, q): brute_force_at_q(s, source.get(q)).kind for s, q in NO_UNIT_PIVOT}
    assert set(oracle.values()) == {EXTENDS, NO_IMAGE}

    def refuse(*args, **kwargs):
        raise AssertionError("brute_force_at_q called from the fast path")

    monkeypatch.setattr("sidonpds.orbit.brute_force_at_q", refuse)
    for (s, q), expected in oracle.items():
        pds = source.get(q)
        assert all(gcd(x, pds.v) > 1 for x in s[1:]), (s, q)
        out = fast_extends_at_q(s, pds)
        assert out.kind == expected, (s, q)


def test_coset_path_matches_brute_force(source):
    # v = 91 = 7 * 13: multiples of 7 reduce to Sidon sets mod 13
    pds = source.get(9)
    for s in ((0, 7, 21, 63), (0, 7, 28, 42)):
        assert sidon_distinct_mod(s, 91)
        fast = fast_extends_at_q(s, pds)
        brute = brute_force_at_q(s, pds)
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
    tables = ScanTables(pds)
    out = coset_path((0, 3, 9, 12), pds, 3, tables=tables)
    assert out.kind == NO_IMAGE
    # the count answered: no scan ran, so no tile or candidate list was built
    assert not tables.masks


def _full_scan(s, pds):
    """The pivot scan from every b0 of B: what the orbit starts must reproduce.

    The scan's witness maps s - s[0]; it is moved back to s, as fast_extends_at_q moves its own.
    """
    s_norm = tuple((x - s[0]) % pds.v for x in s)
    gs = [gcd(x, pds.v) for x in s_norm]
    out = _pivot_scan(ScanTables(pds), s_norm, gs, _best_pivot(gs), pds.elems)
    w = out.witness
    if w is None:
        return out
    return CheckOutcome(EXTENDS, AffineWitness(w.q, w.v, w.a, (w.b - w.a * s[0]) % w.v, w.image))


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


def _enumerated_through_zero(q):
    """Every PDS of Z_v through 0: the translates B - b of the enumerated sets, b in B."""
    v = q * q + q + 1
    through0 = {tuple(sorted((x - b) % v for x in s)) for s in enumerate_all_pds(v)[0] for b in s}
    return [Pds(q, v, elems, "enumeration") for elems in sorted(through0)]


def test_scan_starts_fall_back_to_every_b0_when_p_does_not_fix_b(source):
    unfixed = [_translate(source.get(q), 1) for q in (3, 4, 5, 7)]
    for q in (4, 5):
        unfixed += _enumerated_through_zero(q)
    assert len(unfixed) == 4 + 10 + 60
    for pds in unfixed:
        assert _scan_starts(pds) == pds.elems, pds
    # at v = 13 the multiplier 3 fixes 4 of the 16 sets through 0, and only
    # those lose starts
    enumerated13 = _enumerated_through_zero(3)
    fixed = [pds for pds in enumerated13 if {3 * b % 13 for b in pds.elems} == set(pds.elems)]
    assert len(enumerated13) == 16 and len(fixed) == 4
    for pds in enumerated13:
        assert (len(_scan_starts(pds)) < len(pds.elems)) == (pds in fixed)
    kinds = set()
    for pds in unfixed + enumerated13:
        for s in _random_quadruples():
            fast = fast_extends_at_q(s, pds)
            brute = brute_force_at_q(s, pds)
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
        fast = fast_extends_at_q(s, pds)
        if fast.kind in (EXTENDS, NO_IMAGE):
            assert fast.witness == _full_scan(s, pds).witness, (s, q)
            extends += fast.kind == EXTENDS
    assert extends > 100
    for s, q, (a, b) in NO_UNIT_PIVOT_WITNESSES:
        pds = source.get(q)
        fast = fast_extends_at_q(s, pds)
        assert fast.kind == EXTENDS, (s, q)
        assert fast.witness == _full_scan(s, pds).witness, (s, q)
        assert (fast.witness.a, fast.witness.b) == (a, b), (s, q)


def test_unit_content_does_not_take_coset_path(source):
    # elements share the factor 2 but v is odd, so the plain pivot scan runs
    # and the verdict matches the undilated set at every q
    doubled = tuple(2 * x for x in A)
    for q in (5, 7, 8, 9, 11, 13):
        pds = source.get(q)
        out_a = fast_extends_at_q(A, pds)
        out_d = fast_extends_at_q(doubled, pds)
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


def _per_set_fast_check(s, q_max: int, source) -> CheckReport:
    """fast_check as a loop over one set's orders, kept as the oracle of the batch."""
    s = tuple(sorted(s))
    if not is_sidon(s):
        raise ValueError(f"{s} is not a Sidon set")
    n = len(s)
    q_lo = max(2, n - 1)
    if q_max < q_lo:
        raise ValueError(f"q_max={q_max} below the smallest usable order {q_lo}")
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
        outcome = fast_extends_at_q(s, pds)
        if outcome.kind == EXTENDS:
            return CheckReport(True, outcome.witness, tuple(checked), tuple(skipped))
        if outcome.kind in (SKIP_COLLISION, SKIP_SIZE):
            skipped.append((q, f"S has collision mod {v}" if outcome.kind == SKIP_COLLISION else outcome.kind))
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
    # to q = 13, where every collision of the row falls and most sets are
    # still undecided, with each skip reason compared
    batch = _assert_batch_matches_per_set(sets, 13, source)
    collisions = [q for r in batch.values() for q, reason in r.skipped if reason.startswith("S has collision")]
    assert len(collisions) == 5934 and max(collisions) == 7


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
    partial = {q: source.get(q) for q in range(2, 65) if is_prime_power(q) and q not in missing}
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


def _class_key(s, v: int) -> tuple[int, ...]:
    """One representative of s under translation, reflection and division by a unit content mod v.

    Computed anew at each v: the oracle of the key pair _set_data keeps.
    """
    s0 = s[0]
    t = [x - s0 for x in s]
    g = gcd(*t)
    if g > 1 and gcd(g, v) == 1:
        t = [x // g for x in t]
    top = t[-1]
    return tuple(min(t, [top - x for x in reversed(t)]))


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
            assert fast_extends_at_q(s, pds).kind == fast_extends_at_q(key, pds).kind, (s, q)
            moved += key != normalize(s)
            divided += max(key) < max(normalize(s))
    assert moved > 1000 and divided > 100


def test_set_data_picks_the_class_key_at_every_cached_order():
    # the batch keeps (span, g0, whole, divided) per set and takes divided
    # iff gcd(g0, v) = 1: that is _class_key(s, v) at every order
    vs = [q * q + q + 1 for q in range(2, 318) if is_prime_power(q)]
    assert len(vs) == 83
    sets = _random_sidon_sets() + list(iter_sidon_sets(30, 4))
    divided = 0
    for s in sets:
        span, g0, whole, div = _set_data(s)
        assert span == s[-1] - s[0]
        for v in vs:
            key = div if gcd(g0, v) == 1 else whole
            assert key == _class_key(s, v), (s, v)
            divided += key != whole
    assert divided > 1000


def test_sidon_differences_stay_distinct_mod_any_v_above_twice_the_span():
    # why the clash mask stops at 2*span: past it no multiple of v is left
    # in the mask and no Sidon set collides; at 2*span the 2d bit of d = span
    rng = random.Random(2203)
    for size in 3 * [*range(2, 8)]:
        s = _random_sidon_set(rng, size, 60)
        span = s[-1] - s[0]
        for v in [*range(2 * span + 1, 2 * span + 40), *rng.sample(range(2 * span + 40, 200_000), 20)]:
            assert sidon_distinct_mod(s, v), (s, v)
        # tight: the differences span and -span meet at v = 2*span
        assert not sidon_distinct_mod(s, 2 * span), s


def test_clash_mask_meets_the_multiples_of_v_iff_the_set_collides():
    # the batch's collision test against its oracle, at every v from 2 to
    # past twice the span and at every cached order
    vs = [q * q + q + 1 for q in range(2, 318) if is_prime_power(q)]
    assert len(vs) == 83
    # the identity is for Sidon sets, the only ones a batch accepts
    sets = [s for s in _random_sidon_sets() if is_sidon(s)] + list(iter_sidon_sets(30, 4))
    collided = 0
    for s in sets:
        span, clash = s[-1] - s[0], _clash_mask(positive_differences(s))
        # every bit is a d, a d1 - d2 or a d1 + d2: in [1, 2*span]
        assert not clash & 1 and clash >> 2 * span + 1 == 0, s
        for v in {*range(2, 2 * span + 41), *vs}:
            meets = any(clash >> e & 1 for e in range(v, 2 * span + 1, v))
            assert meets == (not sidon_distinct_mod(s, v)), (s, v)
            collided += meets
    assert collided > 100_000


def test_multiples_mask_sets_every_multiple_of_v_up_to_top():
    for top in (0, 1, 2, 59, 60, 61, 1000):
        for v in range(2, 1100):
            low = _multiples(v, top) & (1 << top + 1) - 1
            assert low == sum(1 << e for e in range(v, top + 1, v)), (v, top)


def test_batch_tests_a_set_too_wide_for_a_clash_mask_at_each_order(source):
    # A dilated by 10**6 has a unit content at every cached v, so it is
    # scanned at all 80 orders from q = 3 to 317 where it does not collide;
    # a clash mask 2*span = 2.2e7 bits long, ANDed at each of them, would
    # not finish.  2*span of the last two sets is the largest v of the call
    # and one past it: the last set with a mask and the first without.
    v_top = 317 * 317 + 317 + 1
    sets = [tuple(10**6 * x for x in A), (0, 1, 10**9), A, (0, 1, 3, v_top // 2), (0, 1, 3, v_top // 2 + 1)]
    start = time.perf_counter()
    batch = _assert_batch_matches_per_set(sets, 317, source)
    assert time.perf_counter() - start < 20
    assert not batch[0].extends and len(batch[0].checked) == 80
    assert all(batch[i].extends for i in (1, 3, 4))


def test_kernel_keeps_the_collision_test_for_a_non_sidon_set(source):
    # (0,1,2,4) is not Sidon (1 - 0 = 2 - 1), so v = 183 > 2*span proves nothing
    pds = source.get(13)
    for tables in (None, ScanTables(pds)):
        out = fast_extends_at_q((0, 1, 2, 4), pds, tables=tables)
        assert out == CheckOutcome(SKIP_COLLISION)


def _sidon_sets_of_span(rng, span, size, count):
    """count seeded Sidon sets (0, ..., span) of the given size, translated by 0 to 4."""
    found = set()
    for _ in range(20_000):
        s = (0, *sorted(rng.sample(range(1, span), size - 2)), span)
        if is_sidon(s):
            found.add(s)
            if len(found) == count:
                break
    return [tuple(x + shift for x in s) for s in sorted(found) for shift in [rng.randrange(5)]]


def test_batch_matches_per_set_on_either_side_of_half_the_modulus(source):
    # at v = 21, 31, 57 (q = 4, 5, 7) the spans 10/11, 15/16 and 28/29 sit
    # just below and above v/2, where the batch stops skipping the collision test
    rng = random.Random(4057)
    cases = {
        4: ((10, (4,)), (11, (4, 5))),
        5: ((15, (4, 5)), (16, (4, 5))),
        7: ((28, (6, 7)), (29, (6, 7))),
    }  # q -> (span, sizes) pairs
    sets, spans = [], []
    for q, by_span in cases.items():
        for span, sizes in by_span:
            for size in sizes:
                found = _sidon_sets_of_span(rng, span, size, 12)
                assert found, (span, size)
                sets += found
                spans += [(q, span)] * len(found)
    batch = _assert_batch_matches_per_set(sets, 8, source)
    # each span reaches the kernel at its order, on both sides of the collision test
    reached = {}
    for i, r in batch.items():
        q = spans[i][0]
        at_q = (r.witness is not None and r.witness.q == q) or any(x[0] == q for x in r.checked + r.skipped)
        reached[spans[i]] = reached.get(spans[i], 0) + at_q
    assert all(reached.values()), reached
    collided = {
        spans[i] for i, r in batch.items() for _, reason in r.skipped if reason.startswith("S has collision")
    }
    assert collided & {(4, 11), (5, 16), (7, 29)}


def test_class_key_keeps_a_content_that_divides_v(source):
    # (0,3,9,33) = 3A, and 3 divides v = 57 at q = 7: 3A collides mod 57
    # while A has no image, so dividing by 3 would share A's verdict wrongly
    pds = source.get(7)
    s = dilate(A, 3)
    assert _class_key(s, 57) == s
    assert _class_key(s, 31) == A  # q = 5: 3 is a unit mod 31
    assert fast_extends_at_q(s, pds).kind == SKIP_COLLISION
    assert fast_extends_at_q(A, pds).kind == NO_IMAGE
    batch = dict(fast_check_many([A, s], 64, source))
    assert (7, "S has collision mod 57") in batch[1].skipped
    assert (7, 57) in batch[0].checked
    assert batch[1] == _per_set_fast_check(s, 64, source)


def test_shared_tables_keep_every_outcome(source):
    # one table dict per order, shared by every set scanned against it
    sets = _random_sidon_sets()
    for q in (5, 7, 8, 9, 11, 13, 16, 101, 256, 317):
        pds = source.get(q)
        tables = ScanTables(pds)
        for s in sets:
            if len(s) <= q + 1:
                assert fast_extends_at_q(s, pds, tables=tables) == fast_extends_at_q(s, pds), (s, q)
        assert tables.masks


def test_witnesses_leave_the_member_cache_to_the_pds_sets(source):
    # a witness image is checked against B without entering the cache of B's member sets
    sets = list(iter_sidon_sets(30, 4))
    for _ in fast_check_many(sets, 250, source):
        pass
    misses = _member_set.cache_info().misses
    for _ in fast_check_many(sets, 250, source):
        pass
    assert _member_set.cache_info().misses == misses


def _comprehension_pivot_scan(pds, s_norm, j_pivot, starts):
    """The pivot scan as one candidate comprehension per (b0, b1) pair: the oracle of the mask scan.

    Within one b0 the candidates come in b1 order (elems order), one per pair
    when the pivot is a unit and its g lifts otherwise, filtered on the first
    element beside the pivot.
    """
    v, elems = pds.v, pds.elems
    members = set(elems)
    sp = s_norm[j_pivot]
    g = gcd(sp, v)
    step = v // g
    inv = pow(sp // g, -1, step)
    others = [x for i, x in enumerate(s_norm) if i and i != j_pivot]
    x1 = others[0] if others else 0
    rest = others[1:]
    for b0 in starts:
        if g == 1:
            cands = [a for b1 in elems if ((a := (b1 - b0) * inv % v) * x1 + b0) % v in members]
        else:
            cands = [
                a
                for b1 in elems
                if not (d := b1 - b0) % g
                for a in range(d // g * inv % step, v, step)
                if (a * x1 + b0) % v in members
            ]
        for a in cands:
            if gcd(a, v) == 1 and all((a * x + b0) % v in members for x in rest):
                image = tuple(sorted((a * x + b0) % v for x in s_norm))
                return CheckOutcome(EXTENDS, witness=AffineWitness(pds.q, v, a % v, b0 % v, image))
    return CheckOutcome(NO_IMAGE)

def _random_sidon_set(rng, size, top):
    while True:
        s = tuple(sorted(rng.sample(range(top), size)))
        if is_sidon(s):
            return s


def _unit_pivot_and_non_units(q, rng):
    """A Sidon set (0, 1, f*k, ...) whose elements beside the unit 1 all share the factor f with v."""
    v = q * q + q + 1
    f = min(p for p in range(2, v + 1) if v % p == 0)
    while True:
        s = (0, 1, *sorted(f * k for k in rng.sample(range(1, 4 * q), rng.randint(1, 3))))
        if is_sidon(s) and sidon_distinct_mod(s, v):
            return s


def _divisor_built_set(rng, divisors, v, size):
    """(0, d1*k1, ...) with each d a random divisor of v below v, the differences distinct mod v."""
    while True:
        s = {0, *(d * rng.randrange(1, v // d) for d in rng.choices(divisors, k=size - 1))}
        if len(s) == size and sidon_distinct_mod(s, v):
            return tuple(sorted(s))


def _scan_case(s_norm, v) -> str:
    """Which pivot g and filter h the scan of s_norm meets: the cases the mask kernel unifies."""
    if len(s_norm) == 2:
        return "|S| = 2"
    gs = [gcd(x, v) for x in s_norm]
    j = _best_pivot(gs)
    if gs[j] > 1:
        return "g > 1"
    others = [gs[i] for i in range(1, len(s_norm)) if i != j]
    return "g = h = 1" if 1 in others else "g = 1 < h"


def test_mask_scan_matches_the_comprehension_scan(source):
    rng = random.Random(1907)
    paths = Counter()
    kinds = set()
    coset = 0

    def compare(s, pds, starts, tables):
        v = pds.v
        s_norm = tuple((x - s[0]) % v for x in s)
        gs = [gcd(x, v) for x in s_norm]
        j = _best_pivot(gs)
        paths[_scan_case(s_norm, v)] += 1
        out = _pivot_scan(tables, s_norm, gs, j, starts)
        assert out == _comprehension_pivot_scan(pds, s_norm, j, starts), (s, pds)
        kinds.add(out.kind)

    for q in range(2, 318):
        if is_prime_power(q) is None:
            continue
        pds = source.get(q)
        v = pds.v
        tables = ScanTables(pds)
        for size in 2 * [*range(2, min(7, q + 1) + 1)]:
            s = _random_sidon_set(rng, size, 8 * q)
            if sidon_distinct_mod(s, v):
                compare(s, pds, _scan_starts(pds), tables)
                if q <= 64:
                    compare(s, pds, pds.elems, tables)
        # every pivot and filter gcd: elements built from the divisors of v
        divisors = [d for d in range(1, isqrt(v) + 1) if v % d == 0]
        divisors += [v // d for d in divisors[1:]]
        for size in range(2, min(6, q) + 1) if len(divisors) > 1 else (2,):
            s = _divisor_built_set(rng, divisors, v, size)
            compare(s, pds, _scan_starts(pds), tables)
            compare(s, pds, pds.elems, tables)
            # the coset path on the order's tables, shared as in a batch, and on fresh ones
            assert fast_extends_at_q(s, pds, tables=tables) == fast_extends_at_q(s, pds), (s, q)
            coset += gcd(*s, v) > 1
        if q in (16, 25, 37, 64):
            for _ in range(10):
                compare(_unit_pivot_and_non_units(q, rng), pds, _scan_starts(pds), tables)
    for q in (5, 13, 37):
        moved = _translate(source.get(q), 3)
        assert _scan_starts(moved) == moved.elems
        tables = ScanTables(moved)
        for s in _random_quadruples()[:40]:
            if sidon_distinct_mod(s, moved.v):
                compare(s, moved, moved.elems, tables)
    for s, q in NO_UNIT_PIVOT:
        compare(s, source.get(q), _scan_starts(source.get(q)), ScanTables(source.get(q)))
    assert kinds == {EXTENDS, NO_IMAGE}
    # every case the kernel unifies is met, each at least this often with this seed
    least = {"g = h = 1": 900, "g = 1 < h": 300, "g > 1": 250, "|S| = 2": 300}
    assert all(paths[case] > count for case, count in least.items()), paths
    assert coset > 100, coset


def _bits(mask: int) -> set[int]:
    return {i for i in range(mask.bit_length()) if mask >> i & 1}


def test_tile_is_the_preimage_of_b_under_every_map_x(source):
    # for every x (0 too: the filter of a pair) and every b0 in B, the
    # kernel's tile read either way is {a : a*x + b0 in B}, worked out here
    # directly; the small orders meet every divisor h = gcd(x, v) of their v
    for q in (2, 3, 4, 5, 7, 8, 9):
        pds = source.get(q)
        v, members = pds.v, set(pds.elems)
        masks = {}
        for x in range(v):
            h = gcd(x, v)
            n = v // h
            m = pow(x // h, -1, n)
            for b0 in pds.elems:
                want = {a for a in range(v) if (a * x + b0) % v in members}
                t = b0 // h
                tile = _tile(masks, pds, h, m, b0 % h, v + n)
                assert tile < 1 << v + n
                # the filter's reading: rotated by m*t, the low v bits
                assert _bits(tile >> m * t % n & (1 << v) - 1) == want, (q, x, b0)
                # the pivot's reading: the first v bits, in c = a + m*t
                pivot = _tile(masks, pds, h, m, b0 % h, v)
                assert {(c - m * t) % v for c in _bits(pivot)} == want, (q, x, b0)
                # a shorter width, such as a pair's period p or p + n, is a prefix
                for width in range(n, v + n, n):
                    assert _tile(masks, pds, h, m, b0 % h, width) == tile & (1 << width) - 1


def _assert_witness_maps(s, w, pds):
    """A witness maps the set the kernel was given: sorted((a*x + b) % v for x in s) is its image, inside B."""
    assert (w.q, w.v) == (pds.q, pds.v) and gcd(w.a, w.v) == 1, (s, w)
    assert tuple(sorted((w.a * x + w.b) % w.v for x in s)) == w.image, (s, w)
    assert set(w.image) <= set(pds.elems), (s, w)


def test_witness_maps_the_set_given_at_any_offset(source):
    # the scan embeds s - s[0]; the witness must still map s, whatever s[0]
    # is, negative or past v included
    rng = random.Random(6151)
    sets = []
    for _ in range(150):
        s = _random_sidon_set(rng, rng.randint(1, 6), 50)
        sets.append(tuple(x + rng.randrange(-3000, 3000) for x in s))
    extending = moved = 0
    for i, report in fast_check_many(sets, 64, source):
        if report.extends:
            _assert_witness_maps(sets[i], report.witness, source.get(report.witness.q))
            extending += 1
            moved += sets[i][0] % report.witness.v != 0
    lone = 0
    for s in sets[:60]:
        for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 64):
            pds = source.get(q)
            out = fast_extends_at_q(s, pds)
            if out.kind == EXTENDS:
                _assert_witness_maps(s, out.witness, pds)
                lone += 1
    assert extending > 80 and moved > 80 and lone > 200, (extending, moved, lone)
    # the oracle keeps the same rule
    brute = 0
    for s in sets[:20]:
        out = brute_force_at_q(s, source.get(4))
        if out.kind == EXTENDS:
            _assert_witness_maps(s, out.witness, source.get(4))
            brute += 1
    assert brute >= 5, brute
