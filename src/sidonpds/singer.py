"""Singer perfect difference sets in Z_{q^2+q+1}, built two independent ways.

For a prime power q the points of the projective plane over GF(q) can be
indexed by powers of a generator g of GF(q^3)*: residues i mod v, with
v = q^2 + q + 1, since g^v generates the subfield GF(q)*.  The residues
where the GF(q^3)->GF(q) trace of g^i vanishes form a line of the plane and
hence a perfect difference set of size q+1 (the trace-zero construction;
Singer 1938).

The trace-zero scan works over the prime field.  With q = p^m, GF(q^3) is
GF(p)^d for d = 3m and the trace to GF(q) is m independent GF(p)-rows, so
i is a zero exactly when every row vanishes on g^i.  The scan packs the
powers of g into big integers, one fixed-width field per power, tests
every field for zero mod p at once and reads out only the q+1 hits; no
Python loop visits each index.  It uses only GF(p^d) and its first
primitive element, never the GF(q) tables or the coefficient search of
the cubic recurrence below, so the two constructions stay independent.

The cross-check construction runs a degree-3 linear recurrence over GF(q)
whose characteristic polynomial is primitive: over one full period q^3 - 1
the sequence has exactly q^2 - 1 zero positions, and those positions
collapse mod v onto exactly q+1 residues forming a perfect difference set
in the same affine orbit.  The two constructions are compared with
affine_equivalent, which tries every unit of Z_v and reads the shifts
worth trying off a table of the target set's differences.
"""

from __future__ import annotations

import sys
from array import array
from functools import lru_cache, reduce
from math import gcd, isqrt
from operator import and_, mul
from typing import NamedTuple

from .fields import (
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
from .sidon import Pds, verify_pds

METHOD_TRACE = "trace_zero"
METHOD_RECURRENCE = "cubic_recurrence"


class InvalidCoefficientsError(ValueError):
    """Raised when recurrence coefficients do not have a primitive characteristic cubic."""


class RecurrenceCoeffs(NamedTuple):
    """Coefficients (a1, a2, a3) of x_k = a1 x_{k-1} + a2 x_{k-2} + a3 x_{k-3} over GF(q).

    Values are integer-encoded field elements (base-p digit encoding).  The
    characteristic cubic t^3 - a1 t^2 - a2 t - a3 must be primitive.
    """

    q: int
    a1: int
    a2: int
    a3: int


def singer_pds_trace(q: int) -> Pds:
    """Trace-zero Singer construction: residues i in [0, v) with Tr(g^i) = 0."""
    pp = is_prime_power(q)
    if pp is None:
        raise ValueError(f"{q} is not a prime power")
    ctx = field_ctx(pp.p, 3 * pp.m)
    g = find_primitive_element(ctx)
    v = q * q + q + 1
    elems = tuple(_trace_zero_indices(ctx, g, pp.m, v))
    if len(elems) != q + 1 or not verify_pds(elems, v):
        raise ArithmeticError(f"trace-zero set for q={q} is not a perfect difference set")
    return Pds(q, v, elems, METHOD_TRACE)


class _Lanes:
    """Fields of one big integer, each holding a dot product of length-d vectors mod p.

    A field holds at most top = d (p-1)^2.  With 2^k > top p and
    mult = ceil(2^k / p), (x mult) >> k equals x // p for every x <= top
    (Barrett reduction: the error x (mult p - 2^k) / 2^k stays below 1), so
    one packed expression reduces every field mod p.  A field must hold
    top mult; the narrowest array item that does is taken, and
    OverflowError is raised when 64 bits are too few, since fields would
    then carry into each other.  A residue r < p < 2^(bits-1) leaves the top
    bit clear, so adding 2^(bits-1) - 1 sets it exactly when r != 0.
    """

    def __init__(self, p: int, d: int):
        top = d * (p - 1) ** 2
        self.p, self.k = p, (top * p).bit_length()
        self.mult = -(-(1 << self.k) // p)
        need = max((top * self.mult).bit_length(), self.k + 1)
        self.code = next((c for c in "BHIQ" if 8 * array(c).itemsize >= need), None)
        if self.code is None:
            raise OverflowError(f"dot products mod {p} of length {d} need {need}-bit fields")
        self.bits = 8 * array(self.code).itemsize

    def pack(self, values) -> int:  # native-endian items, packed and unpacked alike
        return int.from_bytes(array(self.code, values).tobytes(), sys.byteorder)

    def unpack(self, n: int, packed: int) -> array:
        return array(self.code, packed.to_bytes(self.bits // 8 * n, sys.byteorder))

    def residues(self, n: int):
        """Map n packed values <= top to their residues mod p."""
        keep = self.pack([(1 << (self.bits - self.k)) - 1] * n)
        p, k, mult = self.p, self.k, self.mult
        return lambda acc: acc - (((acc * mult) >> k) & keep) * p

    def zero_flags(self, n: int):
        """Map n packed values <= top to the top bit of each field that is 0 mod p."""
        residues, half = self.residues(n), 1 << (self.bits - 1)
        low, high = self.pack([half - 1] * n), self.pack([half] * n)
        return lambda acc: ((residues(acc) + low) & high) ^ high


def _trace_zero_indices(ctx, g, sub_degree: int, count: int) -> list[int]:
    """Indices i < count with trace of g^i to GF(p^sub_degree) equal to zero.

    Write M for multiplication by g, T_r for the m = sub_degree trace rows
    and e for the vector of one(ctx).  With i = kL + j, j < L (baby-step
    giant-step; Shanks 1971), the trace rows of g^i are (T_r M^{kL}) M^j e.
    Coordinate t of the baby steps M^j e is packed into one integer, a
    _Lanes field per j, built by doubling: steps n..2n-1 are the steps
    below n times the matrix of g^n.  A block's L dot products with a row
    are one sum of d big-integer products, reduced mod p in every field at
    once; ANDing the rows' zero flags leaves set bits only at the hits.
    The rows are packed per coordinate too, so stepping them by the matrix
    of g^L costs d^2 small products.  The packed work per index does not
    depend on L, so L = max(d, isqrt(16 count) + 1) only trades the
    doubling against per-block setup.  Raises ArithmeticError when
    g^0..g^{d-1} are dependent, as they are when g lies in a proper
    subfield.
    """
    p = ctx.p
    d = ctx.degree
    lanes = _Lanes(p, d)
    bits = lanes.bits
    step = max(d, isqrt(16 * count) + 1)
    packs = list(one(ctx))  # coordinate t of g^j for j < n
    n, jump = 1, g
    while n < step:
        residues = lanes.residues(n)
        upper = [residues(sum(map(mul, row, packs))) for row in multiplication_matrix(ctx, jump)]
        packs = [lo | hi << (bits * n) for lo, hi in zip(packs, upper)]
        n, jump = 2 * n, field_mul(ctx, jump, jump)
    packs = [x & ((1 << (bits * step)) - 1) for x in packs]
    if len(_row_reduce([list(lanes.unpack(step, x)[:d]) for x in packs], p)) < d:
        raise ArithmeticError(f"powers of g are dependent below degree {d}: g is in a subfield")
    zero_flags = lanes.zero_flags(step)
    reduce_rows = lanes.residues(sub_degree)
    giant_cols = tuple(zip(*multiplication_matrix(ctx, field_pow(ctx, g, step))))
    cols = [lanes.pack(col) for col in zip(*subfield_trace_rows(ctx, sub_degree))]
    out = []
    for base in range(0, count, step):
        rows = zip(*(lanes.unpack(sub_degree, c) for c in cols))
        zeros = reduce(and_, (zero_flags(sum(map(mul, row, packs))) for row in rows))
        zeros &= (1 << (bits * min(step, count - base))) - 1
        while zeros:
            hit = zeros & -zeros
            out.append(base + (hit.bit_length() - 1) // bits)
            zeros ^= hit
        cols = [reduce_rows(sum(map(mul, cols, col))) for col in giant_cols]
    return out


# ---------------------------------------------------------------------------
# GF(q) lookup tables for the recurrence path.  Elements are integer-encoded
# (base-p digits); fields are tiny, so full q x q tables are cheap.


@lru_cache(maxsize=None)
def _gf_tables(q: int) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
    pp = is_prime_power(q)
    if pp is None:
        raise ValueError(f"{q} is not a prime power")
    if pp.m == 1:
        add = tuple(tuple((i + j) % q for j in range(q)) for i in range(q))
        mul = tuple(tuple((i * j) % q for j in range(q)) for i in range(q))
        return add, mul
    ctx = field_ctx(pp.p, pp.m)
    elems = [elem_from_int(ctx, n) for n in range(q)]
    p = pp.p
    add = tuple(
        tuple(elem_to_int(ctx, tuple((x + y) % p for x, y in zip(a, b))) for b in elems)
        for a in elems
    )
    mul = tuple(tuple(elem_to_int(ctx, field_mul(ctx, a, b)) for b in elems) for a in elems)
    return add, mul


def _cubic_mulmod(a, b, reduce_row, add, mul):
    # product of degree-<3 polynomials over GF(q), reduced via
    # t^3 = reduce_row[2] t^2 + reduce_row[1] t + reduce_row[0]
    prod = [0] * 5
    for i in range(3):
        ai = a[i]
        if ai:
            row = mul[ai]
            for j in range(3):
                if b[j]:
                    prod[i + j] = add[prod[i + j]][row[b[j]]]
    for deg in (4, 3):
        c = prod[deg]
        if c:
            prod[deg] = 0
            row = mul[c]
            for j in range(3):
                if reduce_row[j]:
                    prod[deg - 3 + j] = add[prod[deg - 3 + j]][row[reduce_row[j]]]
    return prod[:3]


def _char_poly_is_primitive(q: int, a1: int, a2: int, a3: int) -> bool:
    """Is t^3 - a1 t^2 - a2 t - a3 primitive over GF(q)?

    Primitive means irreducible with a root of full order q^3 - 1.  The
    order condition is t^(q^3-1) = 1 with t^((q^3-1)/r) != 1 for every
    prime r | q^3 - 1, computed in R = GF(q)[t] modulo the cubic, and it
    implies irreducibility, so no root scan precedes it.  A reducible cubic
    has a root x in GF(q); the q^2 elements of the ideal (t - x) are not
    units, so R has at most q^3 - q^2 < q^3 - 1 units and no element of
    order q^3 - 1.
    """
    add, mul = _gf_tables(q)
    reduce_row = (a3, a2, a1)
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


def find_primitive_coeffs(q: int) -> RecurrenceCoeffs:
    """First primitive coefficient triple in ascending (a1, a2, a3) order.

    Primitive cubics exist over every GF(q), so the scan always succeeds.
    """
    if is_prime_power(q) is None:
        raise ValueError(f"{q} is not a prime power")
    for a1 in range(q):
        for a2 in range(q):
            for a3 in range(1, q):  # a3 = 0 would make t a root
                if _char_poly_is_primitive(q, a1, a2, a3):
                    return RecurrenceCoeffs(q, a1, a2, a3)
    raise InvalidCoefficientsError(f"no primitive cubic over GF({q})")


def singer_pds_recurrence(q: int, coeffs: RecurrenceCoeffs) -> Pds:
    """Zero positions of the recurrence x_k = a1 x_{k-1} + a2 x_{k-2} + a3 x_{k-3}.

    Seeded with (x_0, x_1, x_2) = (0, 0, 1), iterated over the full period
    q^3 - 1.  With a primitive characteristic cubic there are exactly
    q^2 - 1 zero positions and they collapse mod v onto q+1 residues that
    form a perfect difference set; any failed count means the coefficients
    were not primitive.
    """
    if coeffs.q != q:
        raise ValueError(f"coefficients are for q={coeffs.q}, not q={q}")
    add, mul = _gf_tables(q)
    for a in (coeffs.a1, coeffs.a2, coeffs.a3):
        if not 0 <= a < q:
            raise ValueError(f"coefficient {a} out of range for GF({q})")
    v = q * q + q + 1
    period = q**3 - 1
    m1, m2, m3 = mul[coeffs.a1], mul[coeffs.a2], mul[coeffs.a3]
    zeros = [0, 1]  # x_0 = x_1 = 0 by the seed; x_2 = 1
    x0, x1, x2 = 0, 0, 1
    for k in range(3, period):
        nxt = add[add[m1[x2]][m2[x1]]][m3[x0]]
        x0, x1, x2 = x1, x2, nxt
        if nxt == 0:
            zeros.append(k)
    if len(zeros) != q * q - 1:
        raise InvalidCoefficientsError(
            f"expected {q * q - 1} zero positions over one period, got {len(zeros)}"
        )
    elems = tuple(sorted({k % v for k in zeros}))
    if len(elems) != q + 1 or not verify_pds(elems, v):
        raise InvalidCoefficientsError("zero positions do not reduce to a perfect difference set")
    return Pds(q, v, elems, METHOD_RECURRENCE)


def affine_equivalent(v: int, b1, b2) -> tuple[int, int] | None:
    """Witness (a, b) with gcd(a, v) = 1 and a*b1 + b == b2 as subsets of Z_v, or None.

    Scans units a ascending and, for each, the shifts that could align the
    first image element; the first witness found is returned, so the result
    is deterministic.  With x0 the least residue of b1 and x1 the next
    distinct one, a witness maps x0 to some t of b2 whose partner
    t + a*(x1 - x0) is in b2 too, so only those t are tried, ascending, read
    from a table of b2's pairs by difference.  In a PDS every nonzero
    difference occurs once, so each unit has one t to try.
    """
    xs1 = sorted(x % v for x in b1)
    xs2 = sorted(x % v for x in b2)
    if len(xs1) != len(xs2):
        return None
    if not xs1:
        return (1, 0)
    set2 = frozenset(xs2)
    ts = sorted(set2)
    first = xs1[0]
    rest = xs1[1:]
    gap = next((x - first for x in rest if x != first), None)
    starts: dict[int, list[int]] = {}  # difference -> the t of b2 it leads from, ascending
    for t in ts:
        for u in ts:
            if u != t:
                starts.setdefault((u - t) % v, []).append(t)
    for a in range(1, v):
        if gcd(a, v) != 1:
            continue
        img0 = (a * first) % v
        for t in ts if gap is None else starts.get(a * gap % v, ()):
            b = (t - img0) % v
            if all((a * x + b) % v in set2 for x in rest):
                return (a, b)
    return None
