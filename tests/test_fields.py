import random
from itertools import product

import pytest

from sidonpds.fields import (
    _det_mod,
    _row_reduce,
    elem_from_int,
    elem_to_int,
    factorize,
    field_ctx,
    field_mul,
    field_pow,
    find_primitive_element,
    is_prime_power,
    multiplication_matrix,
    one,
    subfield_trace_rows,
)

# Every field the Singer builds use: GF(q^3) = GF(p^(3m)) for q = p^m <= 317.
SINGER_FIELDS = [(pp.p, 3 * pp.m) for pp in filter(None, map(is_prime_power, range(2, 318)))]
SMALL_FIELDS = [(2, 1), (7, 1), (2, 3), (5, 2), (13, 3)]
ALL_FIELDS = sorted(set(SMALL_FIELDS + SINGER_FIELDS))


# Oracles: the field operations and searches the library used before the
# norm test and the Frobenius trace rows, kept here to check the shortcuts.


def zero(ctx):
    return (0,) * ctx.degree


def field_add(ctx, a, b):
    p = ctx.p
    return tuple((x + y) % p for x, y in zip(a, b))


def field_inv(ctx, a):
    if a == zero(ctx):
        raise ZeroDivisionError("zero has no multiplicative inverse")
    return field_pow(ctx, a, ctx.order - 2)


def multiplicative_order(ctx, a) -> int:
    """Exact order of a in the multiplicative group, via the cached factorization."""
    if a == zero(ctx):
        raise ValueError("zero is not in the multiplicative group")
    e = ctx.order - 1
    for r in sorted(set(ctx.group_order_factorization)):
        while e % r == 0 and field_pow(ctx, a, e // r) == one(ctx):
            e //= r
    return e


def trace_to_base(ctx, sub_degree: int, a):
    """Trace of a down to the subfield GF(p^sub_degree): sum of a^(q^i), q = p^sub_degree.

    The result is checked to be fixed by the q-power Frobenius, i.e. it lies
    in the subfield.
    """
    if sub_degree < 1 or ctx.degree % sub_degree != 0:
        raise ValueError(f"sub_degree {sub_degree} does not divide degree {ctx.degree}")
    q = ctx.p**sub_degree
    acc = a
    cur = a
    for _ in range(ctx.degree // sub_degree - 1):
        cur = field_pow(ctx, cur, q)
        acc = field_add(ctx, acc, cur)
    if field_pow(ctx, acc, q) != acc:
        raise ArithmeticError("trace result not fixed by the subfield Frobenius")
    return acc


def _powering_primitive_element(ctx):
    """First generator of the multiplicative group in ascending encoding order.

    For extension fields the scan starts at the element x (encoding p): the
    constants below it lie in the prime field and can never generate.  The
    order test checks g^((p^d-1)/r) != 1 for every prime r dividing p^d - 1.
    """
    n_max = ctx.order
    group = n_max - 1
    primes = sorted(set(ctx.group_order_factorization))
    start = ctx.p if ctx.degree > 1 else 1
    unit = one(ctx)
    for n in range(start, n_max):
        g = elem_from_int(ctx, n)
        if all(field_pow(ctx, g, group // r) != unit for r in primes):
            return g
    raise ArithmeticError(f"no primitive element found in GF({ctx.p}^{ctx.degree})")


def _trace_rows_by_powering(ctx, sub_degree):
    """Independent rows T with: trace of a to GF(p^sub_degree) is zero iff T a = 0."""
    d = ctx.degree
    cols = []
    for j in range(d):
        basis = tuple(1 if i == j else 0 for i in range(d))
        cols.append(trace_to_base(ctx, sub_degree, basis))
    rows = [[cols[j][i] for j in range(d)] for i in range(d)]
    return tuple(_row_reduce(rows, ctx.p))


def test_is_prime_power_basic():
    assert is_prime_power(8) is not None and (is_prime_power(8).p, is_prime_power(8).m) == (2, 3)
    assert is_prime_power(6) is None
    assert is_prime_power(1) is None
    assert is_prime_power(0) is None


def test_is_prime_power_large_squares():
    # orders singled out for explicit uniqueness checks
    for q, p, m in [(121, 11, 2), (125, 5, 3), (128, 2, 7), (169, 13, 2), (256, 2, 8), (1024, 2, 10)]:
        pp = is_prime_power(q)
        assert pp is not None and (pp.p, pp.m) == (p, m)


def test_prime_power_census():
    # 86 prime powers up to 343, 83 up to 317
    pps = [q for q in range(2, 344) if is_prime_power(q)]
    assert len(pps) == 86
    assert len([q for q in pps if q <= 317]) == 83
    assert [q for q in pps if q <= 8] == [2, 3, 4, 5, 7, 8]


def test_factorize():
    assert factorize(12) == [2, 2, 3]
    assert factorize(1) == []
    assert factorize(13**3 - 1) == [2, 2, 3, 3, 61]
    with pytest.raises(ValueError):
        factorize(0)


def test_factorize_products_multiply_back():
    for n in range(1, 500):
        prod = 1
        for p in factorize(n):
            prod *= p
        assert prod == n


def test_field_ctx_modulus_is_deterministic_and_expected():
    ctx = field_ctx(2, 3)
    # first irreducible cubic over GF(2) in the ascending scan is x^3 + x + 1
    assert ctx.modulus == (1, 1, 0, 1)
    assert field_ctx(2, 3) is ctx  # cached, hence trivially identical


def test_field_mul_reduction_gf8():
    ctx = field_ctx(2, 3)
    x = elem_from_int(ctx, 2)
    x2 = field_mul(ctx, x, x)
    assert field_mul(ctx, x, x2) == (1, 1, 0)  # x^3 = x + 1 mod x^3+x+1


def test_field_pow_identities():
    ctx = field_ctx(3, 2)
    for n in range(1, ctx.order):
        a = elem_from_int(ctx, n)
        assert field_pow(ctx, a, 0) == one(ctx)
        assert field_pow(ctx, a, ctx.order - 1) == one(ctx)  # Lagrange


@pytest.mark.parametrize("p,d", [(2, 2), (2, 3), (3, 2)])
def test_field_axioms_exhaustive(p, d):
    # full Cayley-table check on GF(4), GF(8), GF(9)
    ctx = field_ctx(p, d)
    elems = [elem_from_int(ctx, n) for n in range(ctx.order)]
    for a, b in product(elems, repeat=2):
        assert field_add(ctx, a, b) == field_add(ctx, b, a)
        assert field_mul(ctx, a, b) == field_mul(ctx, b, a)
    for a, b, c in product(elems, repeat=3):
        assert field_mul(ctx, a, field_mul(ctx, b, c)) == field_mul(ctx, field_mul(ctx, a, b), c)
        assert field_add(ctx, a, field_add(ctx, b, c)) == field_add(ctx, field_add(ctx, a, b), c)
        lhs = field_mul(ctx, a, field_add(ctx, b, c))
        rhs = field_add(ctx, field_mul(ctx, a, b), field_mul(ctx, a, c))
        assert lhs == rhs
    for a in elems[1:]:
        assert field_mul(ctx, a, field_inv(ctx, a)) == one(ctx)


def test_find_primitive_element_small():
    assert find_primitive_element(field_ctx(2, 1)) == (1,)  # trivial group
    assert find_primitive_element(field_ctx(7, 1)) == (3,)  # 2 has order 3 mod 7
    assert find_primitive_element(field_ctx(2, 3)) == (0, 1, 0)  # x generates GF(8)*


def test_order_of_3_mod_7_oracle():
    # direct powering, independent of the field machinery
    vals = set()
    acc = 1
    for _ in range(6):
        acc = (acc * 3) % 7
        vals.add(acc)
    assert len(vals) == 6


def test_primitive_order_checks():
    for p, d in [(2, 4), (3, 3), (5, 2), (7, 3)]:
        ctx = field_ctx(p, d)
        g = find_primitive_element(ctx)
        assert multiplicative_order(ctx, g) == ctx.order - 1
        assert field_pow(ctx, g, ctx.order - 1) == one(ctx)
        for r in sorted(set(ctx.group_order_factorization)):
            assert field_pow(ctx, g, (ctx.order - 1) // r) != one(ctx)


def test_group_order_factorization_invariant():
    for p, d in [(2, 6), (3, 4), (13, 3)]:
        ctx = field_ctx(p, d)
        prod = 1
        for r in ctx.group_order_factorization:
            prod *= r
        assert prod == p**d - 1


def test_trace_of_subfield_element_and_zero():
    ctx = field_ctx(5, 3)  # prime subfield, degree 3: trace of a constant is 3a
    a = elem_from_int(ctx, 2)
    assert trace_to_base(ctx, 1, a) == elem_from_int(ctx, (3 * 2) % 5)
    assert trace_to_base(ctx, 1, zero(ctx)) == zero(ctx)


def test_trace_frobenius_stable_gf64_over_gf4_exhaustive():
    ctx = field_ctx(2, 6)
    for n in range(64):
        t = trace_to_base(ctx, 2, elem_from_int(ctx, n))
        assert field_pow(ctx, t, 4) == t


def test_trace_frobenius_stable_gf64_over_gf8_exhaustive():
    ctx = field_ctx(2, 6)
    for n in range(64):
        t = trace_to_base(ctx, 3, elem_from_int(ctx, n))
        assert field_pow(ctx, t, 8) == t


def test_trace_rejects_bad_subdegree():
    ctx = field_ctx(2, 6)
    with pytest.raises(ValueError):
        trace_to_base(ctx, 4, one(ctx))


def test_trace_is_additive_gf81():
    ctx = field_ctx(3, 4)
    elems = [elem_from_int(ctx, n) for n in range(81)]
    for a in elems[::7]:
        for b in elems[::5]:
            lhs = trace_to_base(ctx, 2, field_add(ctx, a, b))
            rhs = field_add(ctx, trace_to_base(ctx, 2, a), trace_to_base(ctx, 2, b))
            assert lhs == rhs


def test_multiplication_matrix_matches_field_mul():
    for p, d in [(2, 4), (3, 3), (7, 3)]:
        ctx = field_ctx(p, d)
        g = find_primitive_element(ctx)
        rows = multiplication_matrix(ctx, g)
        for n in (0, 1, 2, ctx.order - 1, ctx.order // 2):
            a = elem_from_int(ctx, n)
            via_matrix = tuple(sum(r * c for r, c in zip(row, a)) % p for row in rows)
            assert via_matrix == field_mul(ctx, g, a)


def test_subfield_trace_rows_match_reference():
    ctx = field_ctx(2, 6)
    rows = subfield_trace_rows(ctx, 2)
    for n in range(64):
        a = elem_from_int(ctx, n)
        via_rows = all(sum(r * c for r, c in zip(row, a)) % 2 == 0 for row in rows)
        assert via_rows == (trace_to_base(ctx, 2, a) == zero(ctx))


def test_big_field_construction_terminates():
    # the largest base field the constructions ever touch
    ctx = field_ctx(7, 9)  # GF(343^3)
    g = find_primitive_element(ctx)
    assert multiplicative_order(ctx, g) == 7**9 - 1


def test_encoding_roundtrip():
    ctx = field_ctx(5, 3)
    for n in range(0, 125, 7):
        assert elem_to_int(ctx, elem_from_int(ctx, n)) == n


@pytest.mark.parametrize("p,d", ALL_FIELDS)
def test_norm_test_finds_the_powering_generator(p, d):
    ctx = field_ctx(p, d)
    assert find_primitive_element(ctx) == _powering_primitive_element(ctx)


def test_norm_is_the_determinant_of_multiplication():
    # Norm(a) = a^((p^d-1)/(p-1)) lies in GF(p) and equals det of a*; the
    # norm test in find_primitive_element relies on this identity
    rng = random.Random(1601)
    for p, d in ALL_FIELDS:
        ctx = field_ctx(p, d)
        for _ in range(3):
            a = elem_from_int(ctx, rng.randrange(1, ctx.order))
            norm = field_pow(ctx, a, (ctx.order - 1) // (p - 1))
            assert norm == elem_from_int(ctx, _det_mod(multiplication_matrix(ctx, a), p)), (p, d, a)


def test_det_of_singular_and_permuted_matrices():
    assert _det_mod([[1, 2], [2, 4]], 7) == 0
    assert _det_mod([[0, 1], [1, 0]], 7) == 6  # one row swap: -1
    assert _det_mod([[0, 0, 3], [0, 2, 0], [5, 0, 0]], 11) == (-30) % 11


def test_frobenius_trace_rows_match_the_powering_rows():
    for p, d in SINGER_FIELDS:
        ctx = field_ctx(p, d)
        assert subfield_trace_rows(ctx, d // 3) == _trace_rows_by_powering(ctx, d // 3), (p, d)


def test_trace_rows_over_every_subfield():
    for p, d in [(2, 6), (3, 4), (2, 12), (5, 3), (7, 1)]:
        ctx = field_ctx(p, d)
        for m in range(1, d + 1):
            if d % m == 0:
                rows = subfield_trace_rows(ctx, m)
                assert len(rows) == m and rows == _trace_rows_by_powering(ctx, m), (p, d, m)
    with pytest.raises(ValueError):
        subfield_trace_rows(field_ctx(2, 6), 4)
