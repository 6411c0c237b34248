"""Fast extension check: does some affine image of a Sidon set land in a Singer PDS?

A Sidon set S extends inside Z_v (v = q^2 + q + 1) iff a*S + b is a subset
of the cached perfect difference set B for some unit a and shift b.  Shift S
so that its first element is 0; an image then maps 0 to b0 = b and any other
"pivot" element s_j to some b1 in B.  One identity gives every such
condition.  For x with h = gcd(x, v) write x = h*x', m = x'^{-1} mod v/h
and b0 = r + h*t with 0 <= r < h.  Then a*x + b0 = r + h*(a*x' + t) mod v,
so {a : a*x + b0 in B} is v/h-periodic and its tile is m*R_r rotated by
m*t in Z_{v/h}, where R_r = {(b - r)/h : b in B, b = r mod h}.  The maps
that send 0 to b0 and both the pivot and one filter element x1 into B are
the bits of one AND of two such tiles, whatever g = gcd(s_j, v) and
gcd(x1, v) are.  Keeping the units among them meets every embedding, and
the remaining elements are membership tests.  The scan takes the pivot
with the smallest g, a unit whenever S has one.

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

Every scan goes through one call, coset_path, with the content g of the
normalized set and v.  When g > 1 an image lives inside a single coset of
g*Z_v, and a pigeonhole count over the cosets of B can rule it out before
any scan; with g = 1 the one coset is Z_v, which always has room, and no
count runs.  The scan runs on the tables of the order (ScanTables), so a
batch shares them with its other scans.  An exhaustive (a, b) scan is kept
as the oracle the tests compare the pivot scan against; the check itself
never calls it.  The kernel returns a verdict, its kind and the witness of
an embedding, never a reason.  A witness maps the set the kernel was
given: sorted((a*x + b) % v for x in s) is its image, a subset of B.  The
scan embeds s - s[0], and fast_extends_at_q moves b back to s.

fast_check_many checks many sets at once, q-major, and fast_check is the
batch of one.  At each order q every undecided set with |S| <= q+1 is due
and appends (q, v) to its checked list or (q, reason) to its skipped list,
the reason written by the batch; its report is built from the two when it
embeds or after q_max.  Two kinds of work are shared, both only between
the sets of one call at one order.
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
witness fast_check returns.  Tables: B's member set, the scan starts and
the tiles are taken once per order (ScanTables).  The candidate list of a
start b0 depends only on B, the pivot s_j, the filter x1 and b0, so the
scan builds it once per order for every set with that pivot and filter.

Verdicts, tiles and candidate lists are not kept across calls or orders.
B's member set and scan starts are: _member_set and _scan_starts are lru
caches of the 512 most recently used PDSs, so a later call or ScanTables
against the same PDS reads them from there.  What a set keeps across the
orders of one call is what does not depend on v: its content g, both
candidate class keys, the translate to 0 and the translate divided by
g, each least with its reflection, and its clash mask.  The key depends on
v only through gcd(g, v): at v the batch takes the divided one iff
gcd(g, v) = 1.  The clash mask decides the collision test; it is built
from the positive differences that validating the set returned
(positive_differences).  Every set of a batch is Sidon, so its positive
differences d are distinct integers, and its signed differences +-d meet
mod v, or one is 0 mod v, iff v divides some d, some d1 - d2 with d1 > d2
(d1 = d2 or -d1 = -d2 mod v) or some d1 + d2, d1 = d2 included
(d1 = -d2 mod v).  The clash mask has bit e set
for every such e, all in [1, 2*span], so one AND against the multiples of
v settles the collision, exactly, at every v >= 2; past 2*span no multiple
of v is left, and there a set never collides.  The mask is 2*span + 1 bits
long, so only a set with 2*span at most the largest v of the call gets one;
a wider set is tested with sidon_distinct_mod at each order.  Either way
the kernel gets distinct=True and only scans.  A lone fast_extends_at_q
call always runs the test, so a non-Sidon input still gets SKIP_COLLISION.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from math import gcd
from typing import NamedTuple

from . import cache
from .fields import is_prime_power
from .sidon import SKIP_COLLISION, SKIP_SIZE, Pds, positive_differences, sidon_distinct_mod

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


class AffineWitness(NamedTuple):
    """A verified embedding: image = a*S + b mod v, a subset of the PDS used."""

    q: int
    v: int
    a: int
    b: int
    image: tuple[int, ...]


class CheckOutcome(NamedTuple):
    """The kernel's verdict at one order: its kind, and the witness of an embedding; _scan_batch writes the reasons."""

    kind: str
    witness: AffineWitness | None = None


class CheckReport(NamedTuple):
    """Result of scanning prime powers up to q_max for an affine embedding."""

    extends: bool
    witness: AffineWitness | None
    checked: tuple[tuple[int, int], ...]  # (q, v) pairs ruled out
    skipped: tuple[tuple[int, str], ...]  # (q, reason) pairs not decided


# every outcome without a witness: immutable, so one per kind is shared
_NO_IMAGE = CheckOutcome(NO_IMAGE)
_SKIP_SIZE = CheckOutcome(SKIP_SIZE)
_SKIP_COLLISION = CheckOutcome(SKIP_COLLISION)


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


def _make_witness(pds: Pds, a, b, s, members) -> AffineWitness:
    """The witness (a, b) of s: image = sorted((a*x + b) % v for x in s), re-verified to lie in B."""
    v = pds.v
    image = tuple(sorted((a * x + b) % v for x in s))
    # soundness: a real embedding of all of S, not a collapsed image
    if len(image) != len(s) or not members.issuperset(image) or gcd(a, v) != 1:
        raise AssertionError("affine witness failed re-verification")
    return AffineWitness(pds.q, v, a % v, b % v, image)


def fast_extends_at_q(
    s, pds: Pds, *, tables: ScanTables | None = None, distinct: bool = False
) -> CheckOutcome:
    """Decide whether some affine image of s lies inside pds.elems in Z_v, v = pds.v.

    The order q and the modulus v are those of pds.  The kind says what was
    decided: EXTENDS with its witness, NO_IMAGE, or SKIP_SIZE / SKIP_COLLISION
    when the order cannot host s.  The witness (a, b) maps s itself:
    sorted((a*x + b) % v for x in s) is its image.  Past the size and
    collision tests every s of two or more elements goes to coset_path with
    its content gcd(v, s - s[0]), and the witness of that scan, which maps
    s - s[0], is moved back to s.  Two keywords are the batch's hand-off; a
    lone call leaves both at their defaults.  tables is the ScanTables of
    pds, which fast_check_many builds once per order and shares between the
    sets it scans there; None builds a fresh one.
    distinct=True says the caller knows the differences of s are distinct
    and nonzero mod v, so the collision test is skipped.  fast_check_many
    passes it for every set it hands over: it has already settled each
    set's collision, with the set's clash mask, which for a Sidon set is
    exact at every v >= 2, or for a set too wide for a mask with
    sidon_distinct_mod (see the module docstring).  With the default
    False every input is tested, and a non-Sidon s gets SKIP_COLLISION.
    """
    q, v = pds.q, pds.v
    s = tuple(s)
    n = len(s)
    # size first: a set larger than q+1 always also collides mod v, and the
    # size is what explains why
    if n > q + 1:
        return _SKIP_SIZE
    if not distinct and not sidon_distinct_mod(s, v):
        return _SKIP_COLLISION
    if tables is None:
        tables = ScanTables(pds)
    s0 = s[0]
    if n == 1:
        return CheckOutcome(EXTENDS, witness=_make_witness(pds, 1, pds.elems[0] - s0, s, tables.members))
    s_norm = tuple([(x - s0) % v for x in s])
    outcome = coset_path(s_norm, pds, gcd(v, *s_norm), tables=tables)
    w = outcome.witness
    # the scan's b maps s_norm = s - s0 mod v, which is s itself when s0 = 0
    # mod v; otherwise a*x + (b - a*s0) maps x in s to the same image
    if w is None or s0 % v == 0:
        return outcome
    return CheckOutcome(EXTENDS, witness=_make_witness(pds, w.a, w.b - w.a * s0, s, tables.members))


class ScanTables:
    """What the scans against one PDS share: the PDS, B's member set, the scan starts and the masks.

    members is frozenset(B) and starts is _scan_starts(pds).  masks holds
    what _pivot_scan builds: under (h, m, r, width) a tile of _tile, and
    under (s_j, x1) what one pivot and filter share, their tiles by residue
    and the candidate list of each start b0.
    """

    __slots__ = ("pds", "members", "starts", "masks")

    def __init__(self, pds: Pds):
        self.pds = pds
        self.members = _member_set(pds.elems)
        self.starts = _scan_starts(pds)
        self.masks: dict = {}


def _best_pivot(gs) -> int:
    """Index of the first element with the smallest gcd with v: a unit if there is one.

    gs[i] = gcd(s_norm[i], v); index 0 (the element 0) is never the pivot.
    """
    return gs.index(min(gs[1:]), 1)


def _pivot_scan(tables: ScanTables, s_norm, gs, j_pivot: int, starts) -> CheckOutcome:
    """Try every map with 0 -> b0 and s_norm[j_pivot] -> B = tables.pds, b0 in starts, in the order of b1.

    One kernel for any pivot s_j, g = gcd(s_j, v), and any filter element
    x1, h = gcd(x1, v): the first unit beside the pivot if S has one, and 0
    itself (h = v, every a passes) when |S| = 2.  By the identity of the
    module docstring, with m_g = (s_j/g)^{-1} mod v/g, b0 = r_g + g*t_g and
    likewise m_h, r_h, t_h for x1, a*s_j + b0 lies in B iff
    c = a + m_g*t_g lies in the tile m_g*R_{r_g} of Z_{v/g}, repeated; so
    in c the pivot's tile is fixed for each residue r_g.  a*x1 + b0 lies in
    B iff c + (m_h*t_h - m_g*t_g) mod v/h lies in the filter's tile.  The
    candidates of b0 are therefore the bits c of one AND, the pivot's tile
    with the filter's tile shifted right, and a = c - m_g*t_g mod v.  Both
    tiles have period dividing v, so the AND repeats with the period
    p = lcm(v/g, v/h), a divisor of v: the pivot's tile is held p bits
    long, the filter's p + v/h bits, and each bit c < p stands for
    c, c + p, ... below v.  With g = h = 1, p = v and this is the mask
    intersection M_inv & rotr(M_w, (w - inv)*b0 mod v) of a unit pivot and
    filter, one shift and one AND on v-bit integers per start.  Only the
    unit candidates pay for the remaining elements.  tables is the
    ScanTables of B, and gs holds each element's gcd with v.

    starts is _scan_starts(pds) on the check's path (one b0 per multiplier
    orbit, the same witness as the full scan) and pds.elems for the full
    scan; b0 runs over it in order.  Within one b0 the candidates are
    sorted by (b1, a), the order of a scan over b1 in elems and then over
    the g solutions a of each b1, so the first survivor is the witness that
    scan returns.  b1 = a*s_j + b0 = r_g + s_j*c mod v, and b1 >= r_g
    because b1 = r_g mod g, so s_j*c mod v = b1 - r_g sorts as b1 does.
    The tiles depend only on B, the element and the residue (_tile), and
    the list of b0 only on (B, s_j, x1, b0).  tables.masks[(s_j, x1)] holds
    the tiles by residue and the lists by b0, each built the first time any
    set of the batch needs it and read by every later set with that pivot
    and filter.
    """
    pds, members, masks = tables.pds, tables.members, tables.masks
    v = pds.v
    sp = s_norm[j_pivot]
    # the elements beside 0 and the pivot: the filter x1 is the first unit
    # among them, else the first of them, else 0 itself, whose image b0 is in B
    rest = list(s_norm[1:])
    hs = gs[1:]
    del rest[j_pivot - 1], hs[j_pivot - 1]
    x1 = rest.pop(hs.index(1) if 1 in hs else 0) if rest else 0
    shared = masks.get((sp, x1))
    if shared is None:
        g, h = gs[j_pivot], gcd(x1, v)
        nh = v // h
        mg, mh = pow(sp // g, -1, v // g), pow(x1 // h, -1, nh)
        # the hits repeat with period lcm(v/g, v/h) = v/gcd(g, h)
        shared = masks[sp, x1] = (g, mg, h, nh, mh, v // gcd(g, h), {}, {}, {})
    g, mg, h, nh, mh, period, pivots, filters, per_b0 = shared
    for b0 in starts:
        cands = per_b0.get(b0)
        if cands is None:
            rg, rh, off = b0 % g, b0 % h, mg * (b0 // g)
            if (pivot := pivots.get(rg)) is None:
                pivot = pivots[rg] = _tile(masks, pds, g, mg, rg, period)
            if (tile := filters.get(rh)) is None:
                tile = filters[rh] = _tile(masks, pds, h, mh, rh, period + nh)
            hits = pivot & (tile >> (mh * (b0 // h) - off) % nh)
            found = []
            while hits:
                c0 = hits.bit_length() - 1
                hits ^= 1 << c0
                for c in range(c0, v, period):
                    if gcd(a := (c - off) % v, v) == 1:
                        found.append((sp * c % v, a))
            cands = per_b0[b0] = sorted(found)
        for _, a in cands:
            for x in rest:
                if (a * x + b0) % v not in members:
                    break
            else:
                return CheckOutcome(EXTENDS, witness=_make_witness(pds, a, b0, s_norm, members))
    return _NO_IMAGE


def _tile(masks: dict, pds: Pds, h: int, m: int, r: int, width: int) -> int:
    """m*R_r in Z_n, n = v/h, repeated to width bits, kept in masks[h, m, r, width].

    R_r = {(b - r)/h : b in B, b = r mod h}.  Bit i is set iff i mod n lies
    in m*R_r.  So for a multiple p of n, the low p bits of the tile of width
    p + n shifted right by k, 0 <= k < n, are the tile of width p rotated
    by k.
    """
    key = (h, m, r, width)
    tile = masks.get(key)
    if tile is None:
        n = pds.v // h
        buf = bytearray((n + 7) >> 3)
        for c in [m * (b // h) % n for b in pds.elems if b % h == r]:
            buf[c >> 3] |= 1 << (c & 7)
        tile, w = int.from_bytes(buf, "little"), n
        while w < width:
            tile |= tile << w
            w *= 2
        if w > width:
            tile &= (1 << width) - 1
        masks[key] = tile
    return tile


def coset_path(s_norm, pds: Pds, g: int, *, tables: ScanTables) -> CheckOutcome:
    """The pivot scan of s_norm, residues mod v = pds.v with 0 first, whose content g is gcd(v, *s_norm).

    The one path of every scan.  When g > 1 any image a*S + b stays inside
    the coset b + g*Z_v, so only a coset where the PDS has at least |S|
    elements can host one; when no coset has room the answer is NO_IMAGE
    and no scan runs.  With g = 1 the one coset is Z_v, which always has
    room, so the count runs only when g > 1.  The scan takes the pivot with
    the smallest gcd with v (_best_pivot) and starts from tables.starts.
    tables is the ScanTables of pds that fast_extends_at_q was given or
    built, so the scan shares its starts and masks.  The witness maps
    s_norm.
    """
    if g > 1 and max(Counter(b % g for b in pds.elems).values()) < len(s_norm):
        return _NO_IMAGE
    # each element's gcd with v, read by the pivot and the filter
    gs = [gcd(x, pds.v) for x in s_norm]
    return _pivot_scan(tables, s_norm, gs, _best_pivot(gs), tables.starts)


def brute_force_at_q(s, pds: Pds) -> CheckOutcome:
    """Exhaustive scan over all units a and shifts b mod pds.v; the oracle the tests check the scan against.

    It scans s - s[0] with a before b, and its witness maps s itself, as
    fast_extends_at_q's does.
    """
    v = pds.v
    s = tuple(s)
    s0 = s[0]
    s_norm = tuple((x - s0) % v for x in s)
    if len(set(s_norm)) != len(s_norm):
        return _NO_IMAGE
    members = _member_set(pds.elems)
    for a in range(1, v):
        if gcd(a, v) != 1:
            continue
        for b in range(v):
            for x in s_norm:
                if (a * x + b) % v not in members:
                    break
            else:
                return CheckOutcome(EXTENDS, witness=_make_witness(pds, a, b - a * s0, s, members))
    return _NO_IMAGE


def fast_check(s, q_max: int, source) -> CheckReport:
    """Scan prime powers q up to q_max, smallest first, stopping at the first embedding.

    source.get(q) gives the cached PDS at q or None: a PdsSource, or a
    plain {q: Pds} dict.  Skipped moduli (collisions, missing cache
    entries, non prime powers, |S| > q+1) are recorded, never silently
    dropped: a non-extension claim is only as strong as the list of moduli
    actually ruled out.  This is fast_check_many on a batch of one.
    """
    return next(fast_check_many([s], q_max, source))[1]


def fast_check_many(sets, q_max: int, source):
    """fast_check on every set, q-major: yields (index, report) in the order the sets are decided.

    Each report equals fast_check's for that set, witness included, and is
    yielded at the order where the set embeds, or after q_max.  Every set
    is validated before any is scanned, with fast_check's ValueErrors.
    """
    sets = [_check_input(s, q_max) for s in sets]
    return _scan_batch(sets, q_max, source)


def _check_input(s, q_max: int) -> tuple[tuple[int, ...], list[int]]:
    """(sorted s, its positive differences), or the ValueError fast_check raises for s."""
    s = tuple(sorted(s))
    if not s:
        raise ValueError("the empty set () has no element to check")
    ds = positive_differences(s)
    if ds is None:
        raise ValueError(f"{s} is not a Sidon set")
    q_lo = max(2, len(s) - 1)
    if q_max < q_lo:
        raise ValueError(f"q_max={q_max} below the smallest usable order {q_lo}")
    return s, ds


def _set_data(s) -> tuple[int, int, tuple[int, ...], tuple[int, ...]]:
    """(span, g0, whole, divided): what the batch keeps of a sorted set s for every order.

    With t = s - s[0], span is max(t) and g0 = gcd(t) is the content (0 for a
    singleton).  whole and divided are the least of t, resp. t/g0, and its
    reflection.  At v the class key is divided if gcd(g0, v) = 1 and whole
    otherwise: translating, reflecting and dividing by a unit content are
    affine maps with a unit multiplier mod v, so every set with the same key
    has the same fast_extends_at_q kind at this v.
    """
    s0 = s[0]
    t = tuple([x - s0 for x in s])
    g0 = gcd(*t)
    whole = _least_with_reflection(t)
    divided = _least_with_reflection(tuple([x // g0 for x in t])) if g0 > 1 else whole
    return t[-1], g0, whole, divided


def _clash_mask(ds) -> int:
    """The clash mask of a Sidon set with positive differences ds: bit e set for every d, d1 - d2 > 0 and d1 + d2 (2*d included).

    For a Sidon set s, sidon_distinct_mod(s, v) holds iff no multiple of v
    is set, at every v >= 2 (module docstring).  Every bit lies in
    [1, 2*span], so the integer is 2*span + 1 bits long.
    """
    dm = 0
    for d in ds:
        dm |= 1 << d
    # dm << d sets each d1 + d, dm >> d each d1 - d and, from d itself, bit 0
    clash = dm
    for d in ds:
        clash |= dm << d | dm >> d
    return clash & ~1


def _multiples(v: int, top: int) -> int:
    """An integer with bit e set for every multiple e of v in [v, top] (and some past top)."""
    # m holds v, 2v, ..., width; each doubling is one shift, so the work is linear in top
    m, width = 1 << v, v
    while width < top:
        m |= m << width
        width *= 2
    return m


def _least_with_reflection(t: tuple[int, ...]) -> tuple[int, ...]:
    """t itself when it is the lesser, so a normalized set often is its own key."""
    top = t[-1]
    return min(t, tuple([top - x for x in reversed(t)]))


def _scan_batch(sets, q_max: int, source):
    """fast_check_many's loop over the orders, on (sorted Sidon set, positive differences) pairs.

    The batch writes every reason a report carries: (q, "not prime power"),
    (q, "no cached PDS") and (q, "S has collision mod v"); the kernel only
    returns kinds.  A set of span at most half the largest v the batch
    reaches gets a clash mask (_clash_mask).  At each order one AND of the
    mask with the multiples of v up to twice the largest such span settles
    its collision: for a Sidon set this is sidon_distinct_mod at every
    v >= 2.  A wider set would need a mask as long as its span, so it keeps
    sidon_distinct_mod at each order.  Every due set that does not collide
    either has a class key already ruled out at this order or goes to the
    kernel with distinct=True, on the order's one ScanTables.
    """
    # index -> (set, checked, skipped, g0, whole, divided, clash): the set,
    # its report so far, appended to at each order where it is due
    # (|S| <= q+1) and yielded once decided, then its order-free data, the
    # clash mask None for a set too wide for one
    v_top = q_max * q_max + q_max + 1
    live = {}
    top = 0  # twice the largest span with a clash mask: its highest bit
    for i, (s, ds) in enumerate(sets):
        span, g0, whole, divided = _set_data(s)
        clash = None
        if 2 * span <= v_top:
            clash = _clash_mask(ds)
            top = max(top, 2 * span)
        live[i] = (s, [], [], g0, whole, divided, clash)
    del sets  # the difference lists are not needed past the clash masks
    for q in range(2, q_max + 1):
        if not live:
            return
        due = [i for i, d in live.items() if len(d[0]) <= q + 1]
        if not due:
            continue
        pp = is_prime_power(q)
        pds = None if pp is None else source.get(q)
        # one (q, reason) or (q, v) tuple per order, shared by the sets it is appended to
        if pds is None:
            skip = (q, "not prime power" if pp is None else "no cached PDS")
            for i in due:
                live[i][2].append(skip)
            continue
        v = q * q + q + 1
        ruled_out_at = (q, v)
        collision_at = (q, f"S has collision mod {v}")
        multiples = _multiples(v, top)
        ruled_out: set[tuple[int, ...]] = set()  # class keys with NO_IMAGE at q
        tables = ScanTables(pds)
        for i in due:
            s, checked, skipped, g0, whole, divided, clash = live[i]
            collides = clash & multiples if clash is not None else not sidon_distinct_mod(s, v)
            if collides:
                skipped.append(collision_at)
                continue
            key = divided if gcd(g0, v) == 1 else whole
            if key in ruled_out:
                checked.append(ruled_out_at)
                continue
            # a due set fits (|S| <= q+1) and does not collide, so the kernel
            # either embeds it or finds no image
            outcome = fast_extends_at_q(s, pds, tables=tables, distinct=True)
            if outcome.kind == EXTENDS:
                del live[i]
                yield i, CheckReport(True, outcome.witness, tuple(checked), tuple(skipped))
            else:
                ruled_out.add(key)
                checked.append(ruled_out_at)
    for i, (_, checked, skipped, *_) in live.items():
        yield i, CheckReport(False, None, tuple(checked), tuple(skipped))
