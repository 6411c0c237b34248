"""Predicates and transforms for Sidon sets and perfect difference sets.

A Sidon set is represented as a strictly increasing tuple of nonnegative
integers whose pairwise differences are all distinct.  A perfect difference
set (PDS) in Z_v is a set of residues whose k(k-1) ordered differences hit
every nonzero residue exactly once, which forces k(k-1) = v - 1.  These
predicates are the shared vocabulary of every other module, so they stay
deliberately simple: plain tuples in, booleans and tuples out.
"""

from __future__ import annotations

from typing import NamedTuple


# Why a set cannot embed at an order, shared by the fast scan and the DFS.
SKIP_SIZE = "skip_size"
SKIP_COLLISION = "skip_collision"


class Pds(NamedTuple):
    """A perfect difference set of size q+1 in Z_v, v = q^2+q+1, and how it was made.

    elems is the sorted residue tuple; method names the construction
    (trace-zero, recurrence, or enumeration) and is what the cache file
    records.
    """

    q: int
    v: int
    elems: tuple[int, ...]
    method: str


def positive_differences(elems) -> list[int] | None:
    """The differences y - x, x < y, of the sorted values; None when a value repeats or two differences coincide.

    The values are a Sidon set iff the result is not None.
    """
    xs = sorted(elems)
    ds = [y - x for i, x in enumerate(xs) for y in xs[i + 1:]]
    # a repeated value shows as the difference 0
    if 0 in ds or len(set(ds)) != len(ds):
        return None
    return ds


def is_sidon(elems) -> bool:
    """True iff the values are duplicate-free with all pairwise differences distinct.

    Unsorted input is sorted first; the property itself does not depend on
    order.
    """
    return positive_differences(elems) is not None


def sidon_distinct_mod(s, v: int) -> bool:
    """True iff all signed pairwise differences of s are distinct and nonzero mod v."""
    if v < 2:
        raise ValueError(f"modulus must be >= 2, got {v}")
    xs = tuple(s)
    k = len(xs)
    seen = set()
    for i in range(k):
        for j in range(k):
            if i == j:
                continue
            d = (xs[i] - xs[j]) % v
            if d == 0 or d in seen:
                return False
            seen.add(d)
    return True


def verify_pds(elems, v: int) -> bool:
    """True iff elems is a perfect difference set in Z_v.

    Requires k(k-1) = v - 1 and each nonzero residue to occur exactly once
    as an ordered difference; with the cardinality pinned, distinctness of
    the differences is equivalent to covering every residue.

    The check runs on big-int bit masks.  N marks {-b mod v : b in B}, so
    N << x marks x - b for every b; the OR of those k shifts, folded mod v,
    marks every ordered difference.  Each shift contributes bit 0 and at
    most k - 1 nonzero bits, so the k(k-1) = v - 1 nonzero bits fill Z_v
    iff no two coincide, that is iff all differences are distinct.
    Repeated elements leave fewer distinct residues and so fail as well.
    """
    xs = tuple(elems)
    if any(not 0 <= x < v for x in xs):
        raise ValueError(f"elements must lie in [0, {v})")
    k = len(xs)
    if k * (k - 1) != v - 1:
        return False
    if k <= 1:
        return True  # v = 1: no nonzero residue to cover
    bits = bytearray((v + 7) >> 3)
    for x in xs:
        r = -x % v
        bits[r >> 3] |= 1 << (r & 7)
    neg = int.from_bytes(bits, "little")
    acc = 0
    for x in xs:
        acc |= neg << x
    full = (1 << v) - 1
    return (acc & full) | (acc >> v) == full


def dilate(s, k: int) -> tuple[int, ...]:
    """Multiply every element by k >= 1; Sidon sets stay Sidon (differences scale)."""
    if k < 1:
        raise ValueError(f"dilation factor must be >= 1, got {k}")
    return tuple(sorted(x * k for x in s))


def reflect(s) -> tuple[int, ...]:
    """Mirror about the maximum: {max(s) - x}, sorted ascending."""
    xs = tuple(s)
    m = max(xs)
    return tuple(sorted(m - x for x in xs))


def normalize(s) -> tuple[int, ...]:
    """Canonical translate: deduplicate, sort, and shift so the minimum is 0."""
    xs = sorted(set(s))
    if not xs:
        raise ValueError("cannot normalize an empty set")
    m = xs[0]
    return tuple(x - m for x in xs)
