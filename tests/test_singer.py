import random
from itertools import combinations
from math import gcd, isqrt

import pytest

from sidonpds.fields import (
    factorize,
    field_ctx,
    field_pow,
    find_primitive_element,
    is_prime_power,
    multiplication_matrix,
    one,
    subfield_trace_rows,
)
from sidonpds.sidon import verify_pds
from sidonpds.singer import (
    METHOD_RECURRENCE,
    METHOD_TRACE,
    InvalidCoefficientsError,
    RecurrenceCoeffs,
    _char_poly_is_primitive,
    _cubic_mulmod,
    _gf_tables,
    _Lanes,
    _trace_zero_indices,
    affine_equivalent,
    find_primitive_coeffs,
    singer_pds_recurrence,
    singer_pds_trace,
)


def _power_iteration_trace_zeros(ctx, g, sub_degree, count):
    """Slow oracle for _trace_zero_indices: step s <- M s and test every trace row."""
    p = ctx.p
    mul_rows = multiplication_matrix(ctx, g)
    t_rows = subfield_trace_rows(ctx, sub_degree)
    s = list(one(ctx))
    out = []
    for i in range(count):
        if all(sum(r * x for r, x in zip(row, s)) % p == 0 for row in t_rows):
            out.append(i)
        s = [sum(r * x for r, x in zip(row, s)) % p for row in mul_rows]
    return out


# affine_equivalent before its table of differences: every unit a, then every
# shift that sends the least residue of b1 onto an element of b2.  Kept as
# the oracle for the table version.
def _affine_equivalent_scan(v: int, b1, b2) -> tuple[int, int] | None:
    xs1 = sorted(x % v for x in b1)
    xs2 = sorted(x % v for x in b2)
    if len(xs1) != len(xs2):
        return None
    if not xs1:
        return (1, 0)
    set2 = frozenset(xs2)
    first = xs1[0]
    rest = xs1[1:]
    for a in range(1, v):
        if gcd(a, v) != 1:
            continue
        img0 = (a * first) % v
        imgs = [(a * x) % v for x in rest]
        for t in xs2:
            b = (t - img0) % v
            if all((y + b) % v in set2 for y in imgs):
                return (a, b)
    return None


def _trace_setup(q):
    pp = is_prime_power(q)
    ctx = field_ctx(pp.p, 3 * pp.m)
    return ctx, find_primitive_element(ctx), pp.m, q * q + q + 1


def test_trace_q3_is_the_classical_set():
    spds = singer_pds_trace(3)
    assert spds.v == 13 and spds.method == METHOD_TRACE
    assert verify_pds(spds.elems, 13)
    assert affine_equivalent(13, spds.elems, (0, 1, 3, 9)) is not None


def test_trace_q2_lands_in_the_fano_orbit():
    # oracle: enumerate every 3-subset of Z_7 and keep the PDSs
    all_pds = [s for s in combinations(range(7), 3) if verify_pds(s, 7)]
    spds = singer_pds_trace(2)
    assert spds.elems in all_pds
    assert affine_equivalent(7, spds.elems, (0, 1, 3)) is not None


def test_trace_q4():
    spds = singer_pds_trace(4)
    assert spds.v == 21 and len(spds.elems) == 5
    assert verify_pds(spds.elems, 21)


def test_trace_scan_matches_power_iteration():
    # every prime power q <= 81: m = 1..6 and p = 2, 3, 5, 7, 11, ..., 79
    qs = [q for q in range(2, 82) if is_prime_power(q)]
    assert {is_prime_power(q).m for q in qs} == {1, 2, 3, 4, 5, 6}
    for q in qs:
        ctx, g, m, v = _trace_setup(q)
        assert _trace_zero_indices(ctx, g, m, v) == _power_iteration_trace_zeros(ctx, g, m, v), q


def test_trace_scan_matches_power_iteration_at_every_count():
    # every count up to 3L + 1, L the block length at v: single-block calls,
    # partial last blocks and exact block multiples (count 66, L 33) all occur
    for q in (2, 3, 4, 8, 9, 25, 27, 31):
        ctx, g, m, v = _trace_setup(q)
        top = 3 * max(ctx.degree, isqrt(16 * v) + 1) + 1
        oracle = _power_iteration_trace_zeros(ctx, g, m, top)
        for c in range(1, top + 1):
            assert _trace_zero_indices(ctx, g, m, c) == [i for i in oracle if i < c], (q, c)


def _trace(ctx, m, a):
    """Trace of a from GF(q^3) to GF(q), q = p^m, by its definition a + a^q + a^(q^2)."""
    q = ctx.p**m
    conjugates = (a, field_pow(ctx, a, q), field_pow(ctx, a, q * q))
    return tuple(sum(c) % ctx.p for c in zip(*conjugates))


def test_trace_scan_matches_the_definition():
    for q in (2, 3, 4, 5, 7, 8, 9):
        ctx, g, m, v = _trace_setup(q)
        by_definition = [i for i in range(v) if not any(_trace(ctx, m, field_pow(ctx, g, i)))]
        assert _trace_zero_indices(ctx, g, m, v) == by_definition, q


@pytest.mark.parametrize("p,d", [(2, 24), (17, 6), (317, 3)])
def test_packed_reduction_is_exact_for_every_dot_product(p, d):
    # every value a field can hold, 0..d(p-1)^2, one per field
    lanes = _Lanes(p, d)
    xs = range(d * (p - 1) ** 2 + 1)
    packed = lanes.pack(xs)
    assert list(lanes.unpack(len(xs), lanes.residues(len(xs))(packed))) == [x % p for x in xs]
    flag = 1 << (lanes.bits - 1)
    flags = lanes.unpack(len(xs), lanes.zero_flags(len(xs))(packed))
    assert list(flags) == [0 if x % p else flag for x in xs]


def test_lanes_refuse_fields_wider_than_64_bits():
    # widths only, no field is built: a field must hold top * mult > top^2,
    # and top = d (p-1)^2 is 3 * 2^32 at p = 65537, (2^31 - 2)^2 at p = 2^31 - 1
    assert _Lanes(317, 3).bits == 64
    assert _Lanes(2, 24).bits == 16
    with pytest.raises(OverflowError):
        _Lanes(65537, 3)
    with pytest.raises(OverflowError):
        _Lanes(2**31 - 1, 1)


def test_trace_scan_rejects_a_subfield_generator():
    # g = 1 lies in the prime field, so g^0..g^{d-1} all equal 1 and have
    # rank 1 < d: the scan's rank check refuses it
    for q in (2, 3, 4, 5, 9):
        ctx, _g, m, v = _trace_setup(q)
        with pytest.raises(ArithmeticError):
            _trace_zero_indices(ctx, one(ctx), m, v)


def test_trace_rejects_non_prime_power():
    with pytest.raises(ValueError):
        singer_pds_trace(6)


def test_trace_is_deterministic():
    assert singer_pds_trace(5) == singer_pds_trace(5)


def test_affine_images_stay_pds():
    spds = singer_pds_trace(4)
    v = spds.v
    for a in (2, 5, 8):  # units mod 21
        for b in (0, 1, 17):
            img = tuple(sorted((a * x + b) % v for x in spds.elems))
            assert verify_pds(img, v)


def test_find_primitive_coeffs_q2_first_in_scan_order():
    coeffs = find_primitive_coeffs(2)
    assert (coeffs.a1, coeffs.a2, coeffs.a3) == (0, 1, 1)


def test_find_primitive_coeffs_a3_nonzero():
    for q in (2, 3, 4, 5, 7, 9):
        assert find_primitive_coeffs(q).a3 != 0


def _gf_neg(q: int, a: int) -> int:
    add = _gf_tables(q)[0]
    row = add[a]
    for x in range(q):
        if row[x] == 0:
            return x
    raise AssertionError("additive inverse missing")


def _root_scan_is_primitive(q: int, a1: int, a2: int, a3: int) -> bool:
    """Oracle for _char_poly_is_primitive: a root scan for irreducibility, then the order test."""
    add, mul = _gf_tables(q)
    reduce_row = (a3, a2, a1)
    f = (_gf_neg(q, a3), _gf_neg(q, a2), _gf_neg(q, a1))
    for x in range(q):
        acc = add[x][f[2]]
        acc = add[mul[acc][x]][f[1]]
        acc = add[mul[acc][x]][f[0]]
        if acc == 0:
            return False
    group = q**3 - 1

    def powmod(e: int):
        r = [1, 0, 0]
        b = [0, 1, 0]
        while e:
            if e & 1:
                r = _cubic_mulmod(r, b, reduce_row, add, mul)
            e >>= 1
            if e:
                b = _cubic_mulmod(b, b, reduce_row, add, mul)
        return r

    if powmod(group) != [1, 0, 0]:
        return False
    return all(powmod(group // r) != [1, 0, 0] for r in sorted(set(factorize(group))))


def test_order_test_alone_agrees_with_root_scan_oracle():
    # the order test implies irreducibility, so dropping the root scan
    # must not change the verdict on any triple, a3 = 0 (t not a unit) included
    for q in (2, 3, 4, 5, 7, 8, 9):
        for a1 in range(q):
            for a2 in range(q):
                for a3 in range(q):
                    assert _char_poly_is_primitive(q, a1, a2, a3) == _root_scan_is_primitive(q, a1, a2, a3)


def test_find_primitive_coeffs_pinned_up_to_64():
    pinned = {
        2: (0, 1, 1), 3: (0, 1, 2), 4: (1, 1, 2), 5: (0, 1, 2), 7: (0, 1, 5), 8: (0, 1, 2),
        9: (0, 1, 4), 11: (0, 1, 7), 13: (0, 2, 6), 16: (0, 1, 9), 17: (0, 1, 3),
        19: (0, 1, 15), 23: (0, 1, 10), 25: (0, 1, 12), 27: (0, 1, 10), 29: (0, 1, 3),
        31: (0, 1, 3), 32: (0, 1, 6), 37: (0, 1, 2), 41: (0, 1, 13), 43: (0, 1, 20),
        47: (0, 1, 5), 49: (0, 1, 9), 53: (0, 1, 8), 59: (0, 1, 8), 61: (0, 1, 10),
        64: (0, 1, 34),
    }
    assert [q for q in range(2, 65) if is_prime_power(q)] == sorted(pinned)
    for q, triple in pinned.items():
        c = find_primitive_coeffs(q)
        assert (c.a1, c.a2, c.a3) == triple
        assert _root_scan_is_primitive(q, *triple)


def test_recurrence_q2_zero_positions_by_hand():
    # x_k = x_{k-2} + x_{k-3} over GF(2), seed 0,0,1:
    # 0 0 1 0 1 1 1 and period 7, zeros at 0, 1, 3
    spds = singer_pds_recurrence(2, RecurrenceCoeffs(2, 0, 1, 1))
    assert spds.elems == (0, 1, 3)
    assert spds.method == METHOD_RECURRENCE


def test_recurrence_seed_puts_0_and_1_in_the_set():
    for q in (2, 3, 4, 5):
        spds = singer_pds_recurrence(q, find_primitive_coeffs(q))
        assert 0 in spds.elems and 1 in spds.elems


def test_recurrence_agrees_with_trace_q3():
    rec = singer_pds_recurrence(3, find_primitive_coeffs(3))
    tr = singer_pds_trace(3)
    assert affine_equivalent(13, tr.elems, rec.elems) is not None


def test_recurrence_rejects_non_primitive_coeffs():
    # t^3 - t^2 - t - 1 = (t+1)^3 over GF(2): reducible
    with pytest.raises(InvalidCoefficientsError):
        singer_pds_recurrence(2, RecurrenceCoeffs(2, 1, 1, 1))


def test_recurrence_rejects_mismatched_q():
    with pytest.raises(ValueError):
        singer_pds_recurrence(3, RecurrenceCoeffs(2, 0, 1, 1))


def test_zero_count_law():
    # q^2 - 1 zeros over the full period, collapsing to q + 1 residues:
    # both counts are asserted inside the constructor, so success here is
    # the law holding; recompute the residue count for explicitness
    for q in (2, 3, 4, 5, 7, 8, 9):
        spds = singer_pds_recurrence(q, find_primitive_coeffs(q))
        assert len(spds.elems) == q + 1
        assert verify_pds(spds.elems, spds.v)


def test_constructions_agree_small_range():
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16):
        tr = singer_pds_trace(q)
        rec = singer_pds_recurrence(q, find_primitive_coeffs(q))
        assert affine_equivalent(tr.v, tr.elems, rec.elems) is not None


def test_affine_equivalent_identity_and_shift():
    b = (0, 1, 3, 9)
    assert affine_equivalent(13, b, b) == (1, 0)
    shifted = tuple(sorted((x + 5) % 13 for x in b))
    assert affine_equivalent(13, b, shifted) == (1, 5)


def test_affine_equivalent_none_cases():
    assert affine_equivalent(13, (0, 1, 3, 9), (0, 1, 2, 3)) is None
    assert affine_equivalent(13, (0, 1), (0, 1, 2)) is None


def test_affine_equivalent_witness_is_sound():
    tr = singer_pds_trace(5)
    rec = singer_pds_recurrence(5, find_primitive_coeffs(5))
    a, b = affine_equivalent(31, tr.elems, rec.elems)
    image = sorted((a * x + b) % 31 for x in tr.elems)
    assert tuple(image) == rec.elems


def test_affine_equivalent_matches_the_scan_oracle():
    # general inputs at small v: non-PDS sets, repeated residues, residues
    # outside [0, v), sizes 0 and 1, and images of b1 so that witnesses occur
    rng = random.Random(26)
    witnesses = 0
    for _ in range(3000):
        v = rng.randint(1, 40)
        k = rng.randint(0, 6)
        b1 = [rng.randint(-v, 2 * v) for _ in range(k)]
        if rng.random() < 0.5:
            a = rng.choice([u for u in range(1, v + 1) if gcd(u, v) == 1])
            b = rng.randrange(v)
            b2 = [a * x + b + v * rng.randint(-1, 1) for x in b1]
            rng.shuffle(b2)
        else:
            b2 = [rng.randint(0, v - 1) for _ in range(k + rng.choice((-1, 0, 0, 1)))]
        got = affine_equivalent(v, b1, b2)
        assert got == _affine_equivalent_scan(v, b1, b2), (v, b1, b2)
        witnesses += got is not None
    assert witnesses > 1000


def test_affine_equivalent_matches_the_scan_oracle_on_singer_sets():
    for q in (2, 3, 4, 5, 7, 8, 9):
        tr = singer_pds_trace(q)
        rec = singer_pds_recurrence(q, find_primitive_coeffs(q))
        for b1, b2 in ((tr.elems, rec.elems), (rec.elems, tr.elems), (tr.elems, tr.elems)):
            assert affine_equivalent(tr.v, b1, b2) == _affine_equivalent_scan(tr.v, b1, b2), q
