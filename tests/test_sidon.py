import random
from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, strategies as st

from sidonpds.fields import is_prime_power
from sidonpds.sidon import (
    dilate,
    is_sidon,
    normalize,
    positive_differences,
    reflect,
    sidon_distinct_mod,
    verify_pds,
)

A = (0, 1, 3, 11)
B = (0, 1, 4, 11)

sidon_sets = st.lists(st.integers(0, 60), min_size=1, max_size=6, unique=True).filter(is_sidon)


def test_is_sidon_examples():
    assert is_sidon(A)
    assert not is_sidon((0, 1, 2, 4))  # 1 = 1-0 = 2-1
    assert is_sidon((1, 2, 4, 8, 13))
    assert is_sidon((1, 3, 9, 10, 13))
    assert not is_sidon((0, 1, 1, 3))  # duplicates
    assert not is_sidon((0, 0))  # a repeat with no repeated difference
    assert is_sidon((5,))
    assert is_sidon(())


@given(st.lists(st.integers(-30, 30), max_size=7))
def test_is_sidon_matches_its_definition(xs):
    # repeats and negatives allowed: duplicate-free, pairwise differences distinct
    diffs = [y - x for x, y in combinations(sorted(xs), 2)]
    sidon = len(set(xs)) == len(xs) and len(set(diffs)) == len(diffs)
    assert is_sidon(xs) == sidon
    assert positive_differences(xs) == (diffs if sidon else None)


def test_is_sidon_sorts_first():
    assert is_sidon((11, 0, 3, 1))


def test_sidon_distinct_mod_examples():
    assert not sidon_distinct_mod(A, 13)  # 2+11 = 3+10 = 13
    assert sidon_distinct_mod(A, 23)
    assert not sidon_distinct_mod(A, 21)  # 10+11 = 21
    assert not sidon_distinct_mod(B, 13)
    assert not sidon_distinct_mod(B, 21)


@given(sidon_sets)
def test_sidon_distinct_mod_large_modulus(s):
    # no wraparound collisions once v exceeds twice the largest element
    assert sidon_distinct_mod(s, 2 * max(s) + 3)


def test_verify_pds_examples():
    assert verify_pds((0, 1, 3, 9), 13)
    assert not verify_pds(A, 13)
    assert verify_pds((0, 1, 3), 7)
    assert not verify_pds((0, 1, 2, 4), 13)
    assert not verify_pds((0, 1, 3), 13)  # wrong cardinality for the modulus


def test_verify_pds_range_check():
    with pytest.raises(ValueError):
        verify_pds((0, 1, 14), 13)
    for elems in [(-1, 1, 3), (0, 1, 7), (-1,), (7,)]:  # -1 and v, with and without the right size
        with pytest.raises(ValueError):
            verify_pds(elems, 7)


def _difference_tally_oracle(elems, v):
    # independent recount: every nonzero residue hit exactly once
    k = len(elems)
    if k * (k - 1) != v - 1:
        return False
    counts = [0] * v
    for i in range(k):
        for j in range(k):
            if i != j:
                counts[(elems[i] - elems[j]) % v] += 1
    return counts[0] == 0 and all(c == 1 for c in counts[1:])


def test_verify_pds_against_tally_oracle():
    import random

    from sidonpds.singer import singer_pds_trace

    rng = random.Random(7)
    for v, q in [(7, 2), (13, 3), (21, 4), (31, 5)]:
        built = singer_pds_trace(q).elems
        assert _difference_tally_oracle(built, v) and verify_pds(built, v)
        for _ in range(300):
            s = tuple(sorted(rng.sample(range(v), q + 1)))
            assert verify_pds(s, v) == _difference_tally_oracle(s, v)


def _pairwise_verify_pds(elems, v):
    # the pairwise loop that verify_pds ran before its bit-mask form, kept verbatim
    xs = tuple(elems)
    if any(not 0 <= x < v for x in xs):
        raise ValueError(f"elements must lie in [0, {v})")
    k = len(xs)
    if k * (k - 1) != v - 1:
        return False
    hit = bytearray(v)
    for i in range(k):
        for j in range(k):
            if i == j:
                continue
            d = (xs[i] - xs[j]) % v
            if d == 0 or hit[d]:
                return False
            hit[d] = 1
    return True


def _verify_agrees(elems, v):
    got = verify_pds(elems, v)
    assert got == _pairwise_verify_pds(elems, v) == _difference_tally_oracle(elems, v), (elems, v)
    return got


PERTURBED_ORDERS = (2, 3, 4, 5, 7, 64, 128, 256, 317)


def test_verify_pds_accepts_every_cached_set(source):
    cached = [source.get(q) for q in range(2, 318) if is_prime_power(q)]
    assert len(cached) == 83
    for pds in cached:
        assert _verify_agrees(pds.elems, pds.v)


@pytest.mark.parametrize("q", PERTURBED_ORDERS)
def test_verify_pds_matches_the_oracles_on_perturbed_sets(source, q):
    pds = source.get(q)
    elems, v = pds.elems, pds.v
    rng = random.Random(1000 + q)
    unused = sorted(set(range(v)) - set(elems))
    rejected = 0
    for _ in range(12):
        i = rng.randrange(len(elems))
        moved = list(elems)
        moved[i] = rng.choice(unused)
        rejected += not _verify_agrees(tuple(sorted(moved)), v)
        j = rng.choice([j for j in range(len(elems)) if j != i])
        doubled = list(elems)
        doubled[i] = elems[j]
        assert not _verify_agrees(tuple(sorted(doubled)), v)
    if q >= 64:
        assert rejected == 12  # at large v no seeded move lands on another PDS


@pytest.mark.parametrize("q", PERTURBED_ORDERS)
def test_verify_pds_on_translates_and_dilations(source, q):
    pds = source.get(q)
    elems, v = pds.elems, pds.v
    for t in (1, 2, v // 3, v - 1):
        assert _verify_agrees(tuple(sorted((x + t) % v for x in elems)), v)
    units = [u for u in range(2, 60) if gcd(u, v) == 1][:4]
    for u in units:
        assert _verify_agrees(tuple(sorted(u * x % v for x in elems)), v)
    non_units = [g for g in range(2, 60) if gcd(g, v) > 1][:3]
    for g in non_units:  # all differences fall in the subgroup gZ_v, missing 1
        assert not _verify_agrees(tuple(sorted(g * x % v for x in elems)), v)
    if q in (4, 7, 64, 256):
        assert non_units  # v = 21, 57, 4161, 65793 are composite


@pytest.mark.parametrize("q", PERTURBED_ORDERS)
def test_verify_pds_rejects_wrong_cardinality(source, q):
    pds = source.get(q)
    elems, v = pds.elems, pds.v
    extra = min(set(range(v)) - set(elems))
    assert not _verify_agrees(elems[:-1], v)
    assert not _verify_agrees(tuple(sorted(elems + (extra,))), v)
    assert not _verify_agrees(elems, v + 1)


def test_verify_pds_at_modulus_one():
    assert _verify_agrees((), 1)
    assert _verify_agrees((0,), 1)


def test_perfection_equals_distinctness_at_exact_cardinality():
    # with k(k-1) = v-1 pinned, all-differences-distinct is the whole story
    for v, n in [(7, 3), (13, 4)]:
        for s in combinations(range(v), n):
            assert verify_pds(s, v) == sidon_distinct_mod(s, v)


def test_dilate_reflect_examples():
    assert reflect(A) == (0, 8, 10, 11)
    assert reflect(B) == (0, 7, 10, 11)
    assert dilate(A, 1) == A
    assert dilate(A, 3) == (0, 3, 9, 33)
    with pytest.raises(ValueError):
        dilate(A, 0)


def test_normalize_examples():
    assert normalize((1, 2, 4, 12)) == A
    assert normalize((0, 8, 10, 11)) == (0, 8, 10, 11)
    assert normalize((5,)) == (0,)
    with pytest.raises(ValueError):
        normalize(())


@given(sidon_sets, st.integers(1, 9), st.integers(0, 50))
def test_sidon_invariant_under_affine_maps(s, k, t):
    assert is_sidon([k * x + t for x in s])
    assert is_sidon(reflect(s))


@given(sidon_sets, st.integers(1, 9))
def test_differences_scale_with_dilation(s, k):
    def differences(xs):
        return sorted(y - x for x, y in combinations(sorted(xs), 2))

    assert differences(dilate(s, k)) == [k * d for d in differences(s)]


@given(sidon_sets)
def test_double_reflection_is_normalization(s):
    assert reflect(reflect(s)) == normalize(s)


@given(st.lists(st.integers(0, 40), min_size=2, max_size=6, unique=True))
def test_distinct_mod_implies_sidon_integers(s):
    # collisions over the integers survive any reduction
    if not is_sidon(s):
        assert not sidon_distinct_mod(s, 2 * max(s) + 3)
