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

The outer loop over b0 runs over one start per multiplier orbit, not over
all of B.  For q = p^m the characteristic p is a multiplier of the Singer
set (Hall 1947, *Cyclic projective planes*), and the cached trace-zero sets
satisfy p*B = B exactly.  When they do, a*S + b0 inside B gives
(p*a)*S + p*b0 inside B with p*a a unit, and p^{-1} maps back, so whether
some embedding sends 0 to b0 has the same answer for every b0 in one
<p>-orbit of B.  p*B = B is checked on each PDS passed, never assumed; a
PDS that p does not fix, such as an enumerated set or a translate, is
scanned from every b0.  The starts are the first element, in elems order,
of each orbit, so they are a subsequence of elems.  The first b0 at which
the full scan meets an embedding starts its orbit, because the earlier
members would embed too; the reduced scan reaches it first and returns the
same witness (a, b).  Over the 83 cached orders up to q = 317 this leaves
3,443 starts of 11,252 elements.

When every normalized element shares a factor g > 1 with v, an image lives
inside a single coset of g*Z_v, and a pigeonhole count over the cosets of B
can rule it out before any scan (the coset path).  An exhaustive (a, b) scan
is kept as the oracle the tests compare the pivot scan against; the check
itself never calls it.

fast_check_many checks many sets at once, q-major: at each order it scans
every set not yet decided, and fast_check is the batch of one.  Two kinds
of work are shared, both only between the sets of one call at one order.
Verdicts: translating S, reflecting it (x -> -x) and dividing it by its
content g (the gcd of the normalized elements) when gcd(g, v) = 1 are
affine maps with a unit multiplier mod v.  They keep "some affine image
lies in B" and the distinctness of the differences mod v, so a set has the
kernel's kind of its class key, the least of the normalized set divided by
such a g and its reflection.  A g that shares a factor with v is not a unit
and is never divided out: 3*{0,1,3,11} collides mod 57 while {0,1,3,11}
does not.  A set whose key had no image at this order is recorded as ruled
out without a scan.  An embedding is never shared, because its witness
(a, b) belongs to the set: such a set runs its own scan, which returns the
witness fast_check returns.  Tables: with a unit pivot s_j the candidate
list for a start b0 depends only on B, s_j, the filter element x1 and b0,
so the scan builds it once per order for every set with that pivot and
filter.  Neither is kept across calls or orders.
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


@lru_cache(maxsize=512)
def _scan_starts(pds: Pds) -> tuple[int, ...]:
    """The first element, in elems order, of each <p>-orbit of B when p*B == B; else elems.

    p is the characteristic of q.  The multiplier is checked on pds itself,
    never assumed, so a PDS that p does not fix keeps every start.
    """
    pp = is_prime_power(pds.q)
    v = pds.v
    members = _member_set(pds.elems)
    if pp is None or any(pp.p * b % v not in members for b in pds.elems):
        return pds.elems
    seen: set[int] = set()
    starts = []
    for b in pds.elems:
        if b not in seen:
            starts.append(b)
            x = b
            while x not in seen:
                seen.add(x)
                x = pp.p * x % v
    return tuple(starts)


def _make_witness(q, v, a, b, s_norm, members) -> AffineWitness:
    image = tuple(sorted((a * s + b) % v for s in s_norm))
    # soundness: a real embedding of all of S, not a collapsed image
    if len(image) != len(s_norm) or not _member_set(image) <= members or gcd(a, v) != 1:
        raise AssertionError("affine witness failed re-verification")
    return AffineWitness(q, v, a % v, b % v, image)


def _require_order(q: int, pds: Pds) -> None:
    if q != pds.q:
        raise ValueError(f"q={q} does not match the order q={pds.q} of the PDS passed")


def fast_extends_at_q(s, q: int, pds: Pds, *, check_all_pivots: bool = False,
                      tables: dict | None = None) -> CheckOutcome:
    """Decide whether some affine image of s lies inside pds.elems in Z_v.

    check_all_pivots re-runs the scan on every pivot and asserts the
    verdicts agree; it exists to exercise the single-pivot completeness
    argument in tests and costs a full extra scan per pivot.

    tables holds the unit-pivot candidate lists of _pivot_scan.  Calls that
    pass the same dict must pass the same pds; fast_check_many keeps one
    per order.  None scans with a fresh dict.
    """
    _require_order(q, pds)
    v = pds.v
    s = tuple(s)
    n = len(s)
    # size first: a set larger than q+1 always also collides mod v, and the
    # size reason is the one that explains why
    if n > q + 1:
        return CheckOutcome(SKIP_SIZE, reason=_skip_reason(n, q, v))
    if not sidon_distinct_mod(s, v):
        return CheckOutcome(SKIP_COLLISION, reason=_skip_reason(n, q, v))
    if n == 1:
        witness = _make_witness(q, v, 1, pds.elems[0], (0,), _member_set(pds.elems))
        return CheckOutcome(EXTENDS, witness=witness)
    s0 = s[0]
    s_norm = tuple((x - s0) % v for x in s)
    g = 0
    for x in s_norm:
        g = gcd(g, x)
    g = gcd(g, v)
    starts = _scan_starts(pds)
    if g > 1:
        first = coset_path(s_norm, pds, g)
    else:
        first = _pivot_scan(pds, s_norm, _best_pivot(s_norm, v), starts, tables)
    if check_all_pivots:
        for j in range(1, n):
            other = _pivot_scan(pds, s_norm, j, starts)
            if other.kind != first.kind:
                raise AssertionError(
                    f"pivot disagreement at q={q}: the check says {first.kind}, "
                    f"pivot {j} says {other.kind}"
                )
    return first


def _skip_reason(n: int, q: int, v: int) -> str:
    """Why fast_extends_at_q skips a set of n elements at q: its size first, else a collision."""
    return f"|S|={n} > q+1={q + 1}" if n > q + 1 else f"S has collision mod {v}"


def _best_pivot(s_norm, v: int) -> int:
    """Index of the first element with the smallest gcd with v: a unit if there is one."""
    return min(range(1, len(s_norm)), key=lambda j: gcd(s_norm[j], v))


def _pivot_scan(pds: Pds, s_norm, j_pivot: int, starts, tables: dict | None = None) -> CheckOutcome:
    """Try every map with 0 -> b0 and s_norm[j_pivot] -> b1, b0 in starts and b1 in B.

    Complete for any nonzero pivot: a solves a*s_j = b1 - b0 (mod v) only
    when g = gcd(s_j, v) divides b1 - b0, and then exactly for the g lifts of
    the reduced solution mod v/g.  Each pair's candidates are filtered on one
    further element inside the comprehension, so only the few survivors pay
    for the unit test and the remaining elements.  The g = 1 branch (one
    candidate per pair) is kept separate because it carries nearly all calls.

    starts is _scan_starts(pds) on the check's path (one b0 per multiplier
    orbit, the same witness as the full scan) and pds.elems for the full
    scan; b0 runs over it in order while b1 runs over all of B.

    A g = 1 candidate list depends only on (B, s_j, x1, b0), so it is built
    once into tables[(s_j, x1)][b0], the first time any set of the batch
    needs it, and read by every later set with the same pivot and filter.
    """
    q, v, elems = pds.q, pds.v, pds.elems
    members = _member_set(elems)
    sp = s_norm[j_pivot]
    g = gcd(sp, v)
    step = v // g
    inv = pow(sp // g, -1, step)
    others = [x for i, x in enumerate(s_norm) if i and i != j_pivot]
    # with no further element, filter on 0 itself: its image b0 is in B
    x1 = others[0] if others else 0
    rest = others[1:]
    if g == 1:
        per_b0 = {} if tables is None else tables.setdefault((sp, x1), {})
    for b0 in starts:
        if g == 1:
            cands = per_b0.get(b0)
            if cands is None:
                cands = per_b0[b0] = [
                    a for b1 in elems if ((a := (b1 - b0) * inv % v) * x1 + b0) % v in members
                ]
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


def coset_path(s_norm, pds: Pds, g: int) -> CheckOutcome:
    """Pivot scan for an s_norm whose elements all share the factor g with v = pds.v.

    Any image a*S + b stays inside the coset b + g*Z_v, so only a coset where
    the PDS has at least |S| elements can host one; when no coset has room
    the answer needs no scan.
    """
    if max(Counter(b % g for b in pds.elems).values()) < len(s_norm):
        return CheckOutcome(NO_IMAGE, reason="no eligible coset")
    return _pivot_scan(pds, s_norm, _best_pivot(s_norm, pds.v), _scan_starts(pds))


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
    is only as strong as the list of moduli actually ruled out.  This is
    fast_check_many on a batch of one.
    """
    return next(fast_check_many([s], q_max, source, data_root=data_root))[1]


def fast_check_many(sets, q_max: int, source=None, *, data_root=None):
    """fast_check on every set, q-major: yields (index, report) in the order the sets are decided.

    Each report equals fast_check's for that set, witness included.  Every
    set is validated before any is scanned, with fast_check's ValueErrors.
    """
    sets = [_check_input(s, q_max) for s in sets]
    if source is None:
        source = PdsSource(data_root)
    return _scan_batch(sets, q_max, source)


def _check_input(s, q_max: int) -> tuple[int, ...]:
    s = tuple(sorted(s))
    if not is_sidon(s):
        raise ValueError(f"{s} is not a Sidon set")
    q_lo = max(2, len(s) - 1)
    if q_max < q_lo:
        raise ValueError(f"q_max={q_max} below the smallest usable order {q_lo}")
    return s


def _class_key(s, v: int) -> tuple[int, ...]:
    """One representative of s under translation, reflection and division by a unit content mod v.

    All three are affine maps with a unit multiplier mod v, so every set
    with the same key has the same fast_extends_at_q kind at this v.
    """
    s0 = s[0]
    t = [x - s0 for x in s]
    g = gcd(*t)
    if g > 1 and gcd(g, v) == 1:
        t = [x // g for x in t]
    top = t[-1]
    return tuple(min(t, [top - x for x in reversed(t)]))


def _scan_batch(sets, q_max: int, source):
    # orders[q - 2] = (q, v, reason): reason is why no set was scanned at q,
    # or None when the cached PDS was; an order that no set has reached yet
    # (q < q_lo for every live set) is never read
    orders: list[tuple[int, int, str | None]] = []
    live = [(i, s, 0) for i, s in enumerate(sets)]  # (index, set, bit mask of skipped order indices)
    for q in range(2, q_max + 1):
        if not live:
            return
        v = q * q + q + 1
        if is_prime_power(q) is None:
            orders.append((q, v, "not prime power"))
            continue
        if all(len(s) - 1 > q for _, s, _ in live):
            orders.append((q, v, None))
            continue
        pds = source.get(q)
        if pds is None:
            orders.append((q, v, "no cached PDS"))
            continue
        orders.append((q, v, None))
        ruled_out: set[tuple[int, ...]] = set()  # class keys with NO_IMAGE at q
        tables: dict = {}
        still = []
        for i, s, skips in live:
            if len(s) - 1 <= q:
                key = _class_key(s, v)
                if key not in ruled_out:
                    outcome = fast_extends_at_q(s, q, pds, tables=tables)
                    if outcome.kind == EXTENDS:
                        yield i, _batch_report(s, orders, skips, outcome.witness)
                        continue
                    if outcome.kind == NO_IMAGE:
                        ruled_out.add(key)
                    else:
                        skips |= 1 << (q - 2)
            still.append((i, s, skips))
        live = still
    for i, s, skips in live:
        yield i, _batch_report(s, orders, skips, None)


def _batch_report(s, orders, skips: int, witness: AffineWitness | None) -> CheckReport:
    """A set's report, rebuilt from the batch's orders and the set's own skip mask."""
    n = len(s)
    end = len(orders) if witness is None else witness.q - 2
    checked = []
    skipped = []
    for k in range(max(2, n - 1) - 2, end):
        q, v, reason = orders[k]
        if reason is not None:
            skipped.append((q, reason))
        elif skips >> k & 1:
            skipped.append((q, _skip_reason(n, q, v)))
        else:
            checked.append((q, v))
    return CheckReport(witness is not None, witness, tuple(checked), tuple(skipped))
