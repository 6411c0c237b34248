"""Fast extension check: does some affine image of a Sidon set land in a Singer PDS?

A Sidon set S extends inside Z_v (v = q^2 + q + 1) iff a*S + b is a subset
of the cached perfect difference set B for some unit a and shift b.  An
affine map scales the difference signature by a, so fixing one "pivot"
difference pins a: for a pivot element s_j that is a unit mod v, every
candidate map is determined by the ordered pair (b0, b1) = (image of 0,
image of s_j), giving a = (b1 - b0) * s_j^{-1}.  If an image exists, the
pair it induces appears in the scan over B x B, so a single unit pivot
already makes the scan complete; the remaining elements are then membership
tests.  Cost is O(|B|^2 * |S|) per modulus.

When every normalized element shares a factor g > 1 with v no unit pivot
exists; images then live inside a single coset of g*Z_v and the scan runs
in the quotient Z_{v/g} with the g possible unit lifts of each candidate a
(the coset path).  An exhaustive (a, b) scan is kept as the oracle the fast
paths are tested against, and as the fallback for the rare shapes neither
fast path covers.
"""

from __future__ import annotations

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


def fast_extends_at_q(s, q: int, pds: Pds, *, check_all_pivots: bool = False) -> CheckOutcome:
    """Decide whether some affine image of s lies inside pds.elems in Z_v.

    check_all_pivots re-runs the scan on every unit pivot and asserts the
    verdicts agree; it exists to exercise the single-pivot completeness
    argument in tests and costs a full extra scan per pivot.
    """
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
        return coset_path(s, s_norm, q, v, pds, g)
    pivots = [j for j in range(1, n) if gcd(s_norm[j], v) == 1]
    if not pivots:
        # jointly coprime to v but no single unit element; rare, oracle decides
        return brute_force_at_q(s, q, pds)
    first = _pivot_scan(q, v, s_norm, pds.elems, members, pivots[0])
    if check_all_pivots:
        for j in pivots[1:]:
            other = _pivot_scan(q, v, s_norm, pds.elems, members, j)
            if other.kind != first.kind:
                raise AssertionError(
                    f"pivot disagreement at q={q}: pivot {pivots[0]} says {first.kind}, "
                    f"pivot {j} says {other.kind}"
                )
    return first


def _pivot_scan(q, v, s_norm, elems, members, j_pivot) -> CheckOutcome:
    sp_inv = pow(s_norm[j_pivot], -1, v)
    others = tuple(x for i, x in enumerate(s_norm) if i != 0 and i != j_pivot)
    for b0 in elems:
        for b1 in elems:
            if b1 == b0:
                continue
            a = ((b1 - b0) * sp_inv) % v
            if gcd(a, v) != 1:
                continue
            for x in others:
                if (a * x + b0) % v not in members:
                    break
            else:
                return CheckOutcome(EXTENDS, witness=_make_witness(q, v, a, b0, s_norm, members))
    return CheckOutcome(NO_IMAGE, reason="no affine image of S in B")


def coset_path(s, s_norm, q: int, v: int, pds: Pds, g: int) -> CheckOutcome:
    """Pivot scan in the quotient Z_{v/g} when all of s_norm shares the factor g with v.

    Any image a*S + b stays inside the coset b + g*Z_v, so only cosets where
    the PDS has at least |S| elements can host one; candidate maps come from
    pairs within one coset, reduced by g, and each reduced a is lifted over
    the g possibilities a + k*(v/g), keeping unit lifts only.
    """
    n = len(s_norm)
    members = _member_set(pds.elems)
    cosets: dict[int, list[int]] = {}
    for b in pds.elems:
        cosets.setdefault(b % g, []).append(b)
    eligible = [c for c in sorted(cosets) if len(cosets[c]) >= n]
    if not eligible:
        return CheckOutcome(NO_IMAGE, reason="no eligible coset")
    v_red = v // g
    s_red = [x // g for x in s_norm]
    pivot = next((j for j in range(1, n) if gcd(s_red[j], v_red) == 1), None)
    if pivot is None:
        return brute_force_at_q(s, q, pds)
    inv = pow(s_red[pivot], -1, v_red)
    for c in eligible:
        in_coset = cosets[c]
        for b0 in in_coset:
            for b1 in in_coset:
                if b1 == b0:
                    continue
                a_red = (((b1 - b0) // g) * inv) % v_red
                if a_red == 0 or gcd(a_red, v_red) != 1:
                    continue
                for k in range(g):
                    a = (a_red + k * v_red) % v
                    if a == 0 or gcd(a, v) != 1:
                        continue
                    for x in s_norm:
                        if (a * x + b0) % v not in members:
                            break
                    else:
                        return CheckOutcome(
                            EXTENDS, witness=_make_witness(q, v, a, b0, s_norm, members)
                        )
    return CheckOutcome(NO_IMAGE, reason="no affine image of S in B (coset path)")


def brute_force_at_q(s, q: int, pds: Pds) -> CheckOutcome:
    """Exhaustive scan over all units a and shifts b; the oracle for the fast paths."""
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


def fast_check(s, q_max: int, source=None, *, data_root=None, verbose=False, log=None) -> CheckReport:
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
    emit = log if log is not None else (print if verbose else None)
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
            if emit:
                emit(f" q={q}, v={v}: EXTENDS")
            return CheckReport(True, outcome.witness, tuple(checked), tuple(skipped))
        if outcome.kind in (SKIP_COLLISION, SKIP_SIZE):
            skipped.append((q, outcome.reason or outcome.kind))
            continue
        if emit:
            emit(f" q={q}, v={v}: no")
        checked.append((q, v))
    return CheckReport(False, None, tuple(checked), tuple(skipped))
