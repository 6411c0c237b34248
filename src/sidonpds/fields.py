"""Exact arithmetic in GF(p^d) with polynomial-basis elements.

An element of GF(p^d) is a length-d tuple of residues mod p, constant
term first, reduced modulo a fixed monic irreducible polynomial.  All
construction choices are deterministic: the modulus is the first
irreducible polynomial in an ascending coefficient scan, and the primitive
element is the first in an ascending scan, so repeated runs build
bit-identical fields.  The primitivity test reads the norm of g, the
determinant of multiplication by g, for every prime factor of p - 1, and
the subfield trace rows come from the Frobenius conjugates of x.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple


class PrimePower(NamedTuple):
    """Decomposition q = p^m with p prime, m >= 1."""

    q: int
    p: int
    m: int


def is_prime_power(q: int) -> PrimePower | None:
    """Return the (unique) decomposition q = p^m, or None if q is not a prime power."""
    if q < 2:
        return None
    factors = factorize(q)
    if factors[0] != factors[-1]:
        return None
    return PrimePower(q, factors[0], len(factors))


def factorize(n: int) -> list[int]:
    """Prime factors of n with multiplicity, ascending, by trial division."""
    if n < 1:
        raise ValueError(f"factorize needs n >= 1, got {n}")
    out = []
    d = 2
    while d * d <= n:
        while n % d == 0:
            out.append(d)
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


# ---------------------------------------------------------------------------
# Polynomials over GF(p): lists of coefficients, constant term first.


def _poly_deg(a: list[int]) -> int:
    d = len(a) - 1
    while d >= 0 and a[d] == 0:
        d -= 1
    return d


def _poly_mul(a, b, p: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] = (out[i + j] + ai * bj) % p
    return out


def _poly_rem(a, mod, p: int) -> list[int]:
    # mod must be monic
    a = list(a)
    dm = len(mod) - 1
    for i in range(len(a) - 1, dm - 1, -1):
        c = a[i]
        if c:
            a[i] = 0
            for j in range(dm):
                if mod[j]:
                    a[i - dm + j] = (a[i - dm + j] - c * mod[j]) % p
    a = a[:dm]
    while len(a) < dm:
        a.append(0)
    return a


def _poly_mulmod(a, b, mod, p: int) -> list[int]:
    return _poly_rem(_poly_mul(a, b, p), mod, p)


def _poly_powmod(a, e: int, mod, p: int) -> list[int]:
    d = len(mod) - 1
    r = [1] + [0] * (d - 1)
    base = _poly_rem(a, mod, p)
    while e:
        if e & 1:
            r = _poly_mulmod(r, base, mod, p)
        e >>= 1
        if e:
            base = _poly_mulmod(base, base, mod, p)
    return r


def _poly_gcd(a, b, p: int) -> list[int]:
    a, b = list(a), list(b)
    while _poly_deg(b) >= 0:
        da, db = _poly_deg(a), _poly_deg(b)
        if da < db:
            a, b = b, a
            continue
        inv = pow(b[db], -1, p)
        while da >= db:
            c = (a[da] * inv) % p
            if c:
                for j in range(db + 1):
                    a[da - db + j] = (a[da - db + j] - c * b[j]) % p
            da = _poly_deg(a)
        a, b = b, a
    return a


def _is_irreducible(f: list[int], p: int) -> bool:
    """Monic f is irreducible iff it shares no factor with x^(p^k) - x for k <= deg/2."""
    d = _poly_deg(f)
    if d <= 0:
        return False
    if d == 1:
        return True
    if f[0] == 0:
        return False  # divisible by x
    r = [0, 1]
    for _ in range(d // 2):
        r = _poly_powmod(r, p, f, p)
        diff = list(r)
        diff[1] = (diff[1] - 1) % p
        if _poly_deg(_poly_gcd(f, diff, p)) > 0:
            return False
    return True


def _coeffs_from_int(n: int, p: int, d: int) -> list[int]:
    out = []
    for _ in range(d):
        out.append(n % p)
        n //= p
    return out


def _first_irreducible(p: int, d: int) -> tuple[int, ...]:
    """First monic irreducible of degree d over GF(p), scanning low coefficients ascending."""
    for n in range(p**d):
        f = _coeffs_from_int(n, p, d) + [1]
        if _is_irreducible(f, p):
            return tuple(f)
    raise ArithmeticError(f"no irreducible polynomial of degree {d} over GF({p})")


# ---------------------------------------------------------------------------
# Field contexts and element operations.


class FieldCtx(NamedTuple):
    """Ambient description of GF(p^degree).

    modulus is monic of length degree+1; group_order_factorization lists the
    prime factors of p^degree - 1 with multiplicity.
    """

    p: int
    degree: int
    modulus: tuple[int, ...]
    group_order_factorization: tuple[int, ...]

    @property
    def order(self) -> int:
        return self.p**self.degree


@lru_cache(maxsize=None)
def field_ctx(p: int, degree: int) -> FieldCtx:
    pp = is_prime_power(p)
    if pp is None or pp.m != 1:
        raise ValueError(f"{p} is not prime")
    if degree < 1:
        raise ValueError(f"degree must be >= 1, got {degree}")
    modulus = _first_irreducible(p, degree)
    fac = tuple(factorize(p**degree - 1)) if p**degree > 2 else ()
    return FieldCtx(p, degree, modulus, fac)


def one(ctx: FieldCtx) -> tuple[int, ...]:
    return (1,) + (0,) * (ctx.degree - 1)


def elem_from_int(ctx: FieldCtx, n: int) -> tuple[int, ...]:
    """Decode the base-p digit encoding n = sum coeffs[j] * p^j."""
    if not 0 <= n < ctx.order:
        raise ValueError(f"encoding {n} out of range for field of order {ctx.order}")
    return tuple(_coeffs_from_int(n, ctx.p, ctx.degree))


def elem_to_int(ctx: FieldCtx, a: tuple[int, ...]) -> int:
    n = 0
    for c in reversed(a):
        n = n * ctx.p + c
    return n


def field_mul(ctx: FieldCtx, a, b) -> tuple[int, ...]:
    return tuple(_poly_mulmod(list(a), list(b), list(ctx.modulus), ctx.p))


def field_pow(ctx: FieldCtx, a, e: int) -> tuple[int, ...]:
    if e < 0:
        raise ValueError("negative exponent")
    return tuple(_poly_powmod(list(a), e, list(ctx.modulus), ctx.p))


def find_primitive_element(ctx: FieldCtx) -> tuple[int, ...]:
    """First generator of the multiplicative group in ascending encoding order.

    For extension fields the scan starts at the element x (encoding p): the
    constants below it lie in the prime field and can never generate.  g
    generates iff g^(N/r) != 1 for every prime r | N = p^d - 1.  For r | p-1,
    N/r = (N/(p-1)) ((p-1)/r) and g^(N/(p-1)) is the norm of g, the
    determinant of multiplication by g, so that test is Norm(g)^((p-1)/r) != 1
    in GF(p); only the primes r that do not divide p-1 need a field power.
    """
    p = ctx.p
    group = ctx.order - 1
    primes = sorted(set(ctx.group_order_factorization))
    by_norm = [(p - 1) // r for r in primes if (p - 1) % r == 0]
    by_power = [group // r for r in primes if (p - 1) % r]
    start = p if ctx.degree > 1 else 1
    unit = one(ctx)
    for n in range(start, ctx.order):
        g = elem_from_int(ctx, n)
        if by_norm:
            norm = _det_mod(multiplication_matrix(ctx, g), p)
            if any(pow(norm, e, p) == 1 for e in by_norm):
                continue
        if all(field_pow(ctx, g, e) != unit for e in by_power):
            return g
    raise ArithmeticError(f"no primitive element found in GF({p}^{ctx.degree})")


# ---------------------------------------------------------------------------
# Linear views used by high-throughput loops: multiplication by a fixed
# element and the subfield trace are GF(p)-linear maps on coefficient
# vectors, so a long scan over powers of one element can run on integer
# matrices and row vectors instead of field multiplications.  _row_reduce
# gives the rank of a set of such vectors, _det_mod the determinant of a
# multiplication matrix, which is the norm of its element.


def multiplication_matrix(ctx: FieldCtx, g) -> tuple[tuple[int, ...], ...]:
    """Rows M with (M s)_i = coefficient i of g*s, for s a coefficient vector."""
    d = ctx.degree
    mod = list(ctx.modulus)
    cols = []
    cur = list(g)
    for _ in range(d):
        cols.append(list(cur))
        cur = _poly_rem([0] + cur, mod, ctx.p)
    return tuple(tuple(cols[j][i] for j in range(d)) for i in range(d))


def _row_reduce(rows: list[list[int]], p: int) -> list[tuple[int, ...]]:
    rows = [r[:] for r in rows]
    ncols = len(rows[0]) if rows else 0
    rank = 0
    for c in range(ncols):
        sel = next((r for r in range(rank, len(rows)) if rows[r][c] % p), None)
        if sel is None:
            continue
        rows[rank], rows[sel] = rows[sel], rows[rank]
        inv = pow(rows[rank][c], -1, p)
        rows[rank] = [(x * inv) % p for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][c]:
                f = rows[r][c]
                rows[r] = [(x - f * y) % p for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return [tuple(r) for r in rows[:rank]]


def _det_mod(rows, p: int) -> int:
    """Determinant mod p of a square matrix, by elimination over GF(p)."""
    rows, det = [list(r) for r in rows], 1
    for c in range(len(rows)):
        sel = next((r for r in range(c, len(rows)) if rows[r][c] % p), None)
        if sel is None:
            return 0
        rows[c], rows[sel] = rows[sel], rows[c]
        det = det * rows[c][c] * (-1 if sel != c else 1) % p
        inv = pow(rows[c][c], -1, p)
        for r in range(c + 1, len(rows)):
            f = rows[r][c] * inv % p
            rows[r] = [(x - f * y) % p for x, y in zip(rows[r], rows[c])]
    return det


def subfield_trace_rows(ctx: FieldCtx, sub_degree: int) -> tuple[tuple[int, ...], ...]:
    """Independent rows T with: trace of a to GF(p^sub_degree) is zero iff T a = 0.

    Column j of the trace map is Tr(x^j) = sum over i < d/sub_degree of
    (x^(q^i))^j, q = p^sub_degree, so each conjugate x^(q^i) is raised once
    and then multiplied up.  The trace onto GF(q) is onto, so the rows must
    have rank exactly sub_degree; anything else raises ArithmeticError.
    """
    d = ctx.degree
    p = ctx.p
    if sub_degree < 1 or d % sub_degree:
        raise ValueError(f"sub_degree {sub_degree} does not divide degree {d}")
    mod = list(ctx.modulus)
    conjugates = [_poly_rem([0, 1], mod, p)]
    for _ in range(d // sub_degree - 1):
        conjugates.append(_poly_powmod(conjugates[-1], p**sub_degree, mod, p))
    powers = [list(one(ctx)) for _ in conjugates]
    cols = []
    for _ in range(d):
        cols.append([sum(c) % p for c in zip(*powers)])
        powers = [_poly_mulmod(a, b, mod, p) for a, b in zip(powers, conjugates)]
    rows = _row_reduce(list(zip(*cols)), p)
    if len(rows) != sub_degree:
        raise ArithmeticError(f"trace rows have rank {len(rows)}, not {sub_degree}")
    return tuple(rows)
