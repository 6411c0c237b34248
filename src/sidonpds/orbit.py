"""Fast extension check: does some affine image of a Sidon set land in a Singer PDS?

A Sidon set S extends inside Z_v (v = q^2 + q + 1) iff a*S + b is a subset
of the cached perfect difference set B for some unit a and shift b.  Shift S
so that its first element is 0; an image then maps 0 to b0 = b and any other
"pivot" element s_j to some b1 in B, with a*s_j = b1 - b0 (mod v) and
b1 != b0 because a is a unit.  With g = gcd(s_j, v) that congruence has a
solution only when g divides b1 - b0, and its solutions are the g lifts
a_red + k*(v/g), k = 0..g-1, of a_red = ((b1 - b0)/g) * (s_j/g)^{-1} mod v/g.
Scanning every pair (b0, b1) of B and keeping the unit lifts therefore meets
every embedding whatever the pivot, and the remaining elements are
membership tests.  The scan costs about |B|^2 candidates per modulus for any
g; it takes the pivot with the smallest g, a unit whenever S has one.

When every normalized element shares a factor g > 1 with v, an image lives
inside a single coset of g*Z_v, and a pigeonhole count over the cosets of B
can rule it out before any scan (the coset path).  An exhaustive (a, b) scan
is kept as the oracle the tests compare the pivot scan against; the check
itself never calls it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from math import gcd

from . import cache
from .fields import is_prime_power
from .sidon import SKIP_COLLISION, SKIP_SIZE, Pds, is_sidon, sidon_distinct_mod

EXTENDS = "extends"
NO_IMAGE = "no_image"

# Orders with classically proven uniqueness of the cyclic plane, and orders
# with published explicit uniqueness checks; everything else in range relies
# on the prime-power conjecture.
_HALL_UNIQUENESS_MAX_Q = 40
_EXPLICIT_UNIQUENESS_QS = frozenset({121, 125, 128, 169, 256, 1024})


def rigor_class(q: int) -> str:
    """How solid "no image in the Singer PDS at q" is as a non-extension claim."""
    if q <= _HALL_UNIQUENESS_MAX_Q:
        return "hall"
    if q in _EXPLICIT_UNIQUENESS_QS:
        return "explicit"
    return "ppc"


@dataclass(frozen=True)
class AffineWitness:
    """A verified embedding: image = a*S + b mod v, a subset of the PDS used."""

    q: int
    v: int
    a: int
    b: int
    image: tuple[int, ...]


@dataclass(frozen=True)
class CheckOutcome:
    kind: str
    witness: AffineWitness | None = None
    reason: str | None = None


@dataclass(frozen=True)
class CheckReport:
    """Result of scanning prime powers up to q_max for an affine embedding."""

    extends: bool
    witness: AffineWitness | None
    checked: tuple[tuple[int, int], ...]  # (q, v) pairs ruled out
    skipped: tuple[tuple[int, str], ...]  # (q, reason) pairs not decided


class PdsSource:
    """Memoizing loader of cached perfect difference sets, keyed by q."""

    def __init__(self, data_root=None):
        self.data_root = data_root
        self._memo: dict[int, Pds] = {}

    def get(self, q: int) -> Pds | None:
        hit = self._memo.get(q)
        if hit is not None:
            return hit
        pds = cache.load_pds(q, self.data_root)
        if pds is not None:
            self._memo[q] = pds
        return pds


class MappingSource:
    """In-memory source over a {q: Pds} mapping, mainly for tests and drivers."""

    def __init__(self, mapping):
        self._mapping = dict(mapping)

    def get(self, q: int) -> Pds | None:
        return self._mapping.get(q)


@lru_cache(maxsize=512)
def _member_set(elems: tuple[int, ...]) -> frozenset[int]:
    return frozenset(elems)


def _make_witness(q, v, a, b, s_norm, members) -> AffineWitness:
    image = tuple(sorted((a * s + b) % v for s in s_norm))
    # soundness: a real embedding of all of S, not a collapsed image
    if len(image) != len(s_norm) or not _member_set(image) <= members or gcd(a, v) != 1:
        raise AssertionError("affine witness failed re-verification")
    return AffineWitness(q, v, a % v, b % v, image)


def _require_order(q: int, pds: Pds) -> None:
    if q != pds.q:
        raise ValueError(f"q={q} does not match the order q={pds.q} of the PDS passed")


def fast_extends_at_q(s, q: int, pds: Pds, *, check_all_pivots: bool = False) -> CheckOutcome:
    """Decide whether some affine image of s lies inside pds.elems in Z_v.

    check_all_pivots re-runs the scan on every pivot and asserts the
    verdicts agree; it exists to exercise the single-pivot completeness
    argument in tests and costs a full extra scan per pivot.
    """
    _require_order(q, pds)
    v = pds.v
    s = tuple(s)
    n = len(s)
    # size first: a set larger than q+1 always also collides mod v, and the
    # size reason is the one that explains why
    if n > q + 1:
        return CheckOutcome(SKIP_SIZE, reason=f"|S|={n} > q+1={q + 1}")
    if not sidon_distinct_mod(s, v):
        return CheckOutcome(SKIP_COLLISION, reason=f"S has collision mod {v}")
    members = _member_set(pds.elems)
    if n == 1:
        b = pds.elems[0]
        return CheckOutcome(EXTENDS, witness=_make_witness(q, v, 1, b, (0,), members))
    s0 = s[0]
    s_norm = tuple((x - s0) % v for x in s)
    g = 0
    for x in s_norm:
        g = gcd(g, x)
    g = gcd(g, v)
    if g > 1:
        first = coset_path(s, s_norm, q, v, pds, g)
    else:
        first = _pivot_scan(q, v, s_norm, pds.elems, members, _best_pivot(s_norm, v))
    if check_all_pivots:
        for j in range(1, n):
            other = _pivot_scan(q, v, s_norm, pds.elems, members, j)
            if other.kind != first.kind:
                raise AssertionError(
                    f"pivot disagreement at q={q}: the check says {first.kind}, "
                    f"pivot {j} says {other.kind}"
                )
    return first


def _best_pivot(s_norm, v: int) -> int:
    """Index of the first element with the smallest gcd with v: a unit if there is one."""
    return min(range(1, len(s_norm)), key=lambda j: gcd(s_norm[j], v))


def _pivot_scan(q, v, s_norm, elems, members, j_pivot) -> CheckOutcome:
    """Try every map with 0 -> b0 and s_norm[j_pivot] -> b1 over pairs (b0, b1) of B.

    Complete for any nonzero pivot: a solves a*s_j = b1 - b0 (mod v) only
    when g = gcd(s_j, v) divides b1 - b0, and then exactly for the g lifts of
    the reduced solution mod v/g.  Each pair's candidates are filtered on one
    further element inside the comprehension, so only the few survivors pay
    for the unit test and the remaining elements.  The g = 1 branch (one
    candidate per pair) is kept separate because it carries nearly all calls.
    """
    sp = s_norm[j_pivot]
    g = gcd(sp, v)
    step = v // g
    inv = pow(sp // g, -1, step)
    others = [x for i, x in enumerate(s_norm) if i and i != j_pivot]
    # with no further element, filter on 0 itself: its image b0 is in B
    x1 = others[0] if others else 0
    rest = others[1:]
    for b0 in elems:
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
                return CheckOutcome(EXTENDS, witness=_make_witness(q, v, a, b0, s_norm, members))
    return CheckOutcome(NO_IMAGE, reason="no affine image of S in B")


def coset_path(s, s_norm, q: int, v: int, pds: Pds, g: int) -> CheckOutcome:
    """Pivot scan for an s_norm whose elements all share the factor g with v.

    Any image a*S + b stays inside the coset b + g*Z_v, so only a coset where
    the PDS has at least |S| elements can host one; when no coset has room
    the answer needs no scan.
    """
    if max(Counter(b % g for b in pds.elems).values()) < len(s_norm):
        return CheckOutcome(NO_IMAGE, reason="no eligible coset")
    members = _member_set(pds.elems)
    return _pivot_scan(q, v, s_norm, pds.elems, members, _best_pivot(s_norm, v))


def brute_force_at_q(s, q: int, pds: Pds) -> CheckOutcome:
    """Exhaustive scan over all units a and shifts b; the oracle the tests check the scan against."""
    _require_order(q, pds)
    v = pds.v
    s = tuple(s)
    s0 = s[0]
    s_norm = tuple((x - s0) % v for x in s)
    if len(set(s_norm)) != len(s_norm):
        return CheckOutcome(NO_IMAGE, reason="elements collide mod v")
    members = _member_set(pds.elems)
    for a in range(1, v):
        if gcd(a, v) != 1:
            continue
        for b in range(v):
            for x in s_norm:
                if (a * x + b) % v not in members:
                    break
            else:
                return CheckOutcome(EXTENDS, witness=_make_witness(q, v, a, b, s_norm, members))
    return CheckOutcome(NO_IMAGE, reason="brute force: no extension")


def fast_check(s, q_max: int, source=None, *, data_root=None) -> CheckReport:
    """Scan prime powers q up to q_max, smallest first, stopping at the first embedding.

    Skipped moduli (collisions, missing cache entries, non prime powers,
    |S| > q+1) are recorded, never silently dropped: a non-extension claim
    is only as strong as the list of moduli actually ruled out.
    """
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
