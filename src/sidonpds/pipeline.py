"""Experiment drivers: density scans, superset closures, triple verification.

The central objects are four size-4 Sidon patterns: {0,1,3,11} and
{0,1,4,11} plus their reflections.  Everything here classifies Sidon sets
as extending (some affine image embeds into a cached Singer PDS at a prime
power q <= q_max) or non-extending within the scanned range, and checks the
arithmetic facts around them: the non-extenders found by a density scan in
[0, N] are exactly the dilation family, the dilations k*pattern for
11k <= N, four per k.  `family_dilations` and `family_members` define that
family, and `completeness_check` compares a scan with it; a set s is in
the family iff normalize(s) is in family_members(normalize(s)[-1]).

Three independent methods back the non-extension verdicts: the fast
affine-orbit scan, agreement of that scan with an exhaustive enumeration of
all perfect difference sets at small moduli, and a seeded DFS that needs no
Singer or uniqueness input at all.
"""

from __future__ import annotations

from itertools import combinations
from math import isqrt
from typing import NamedTuple

from . import dfs, orbit
from .cache import EnumerationRecord
from .fields import is_prime_power
from .sidon import Pds, dilate, is_sidon, normalize, reflect


class Candidate(NamedTuple):
    elems: tuple[int, ...]
    label: str


_PATTERN_A = (0, 1, 3, 11)
_PATTERN_B = (0, 1, 4, 11)

# The four members of the dilation family, in the order of family_dilations.
_FAMILY = (
    Candidate(_PATTERN_A, "A"),
    Candidate(reflect(_PATTERN_A), "refl(A)"),
    Candidate(_PATTERN_B, "B"),
    Candidate(reflect(_PATTERN_B), "refl(B)"),
)

# A, B, refl(A), refl(B): the order of the triple-verify and independent-check output
BASE_CANDIDATES = _FAMILY[0::2] + _FAMILY[1::2]

CONTROL_CANDIDATES = (
    Candidate((0, 1, 3), "control {0,1,3}"),
    Candidate((0, 1, 3, 19), "control {0,1,3,19}"),
)

# Reference counts for the size-4 density scan at q_max = 250:
# N -> (total Sidon, extending, non-extending).
REFERENCE_DENSITY = {
    20: (802, 798, 4),
    30: (3254, 3246, 8),
    40: (8406, 8394, 12),
    50: (17256, 17240, 16),
}

# Reference superset counts: (base, target size, range bound) -> count.
REFERENCE_SUPERSET_COUNTS = {
    (_PATTERN_A, 5, 30): 13,
    (_PATTERN_A, 6, 50): 335,
}

# First extending order for the positive control.
REFERENCE_CONTROL_WITNESS = {(0, 1, 3, 19): 37}

DEFAULT_ENUMERATION_MODULI = (13, 21, 31, 57, 73, 91)


class MissingCacheError(RuntimeError):
    """The PDS cache does not cover the requested scan range."""


def require_cache(source, q_max: int) -> None:
    missing = [q for q in range(2, q_max + 1) if is_prime_power(q) and source.get(q) is None]
    if missing:
        raise MissingCacheError(
            f"PDS cache missing for q in {missing[:8]}{'...' if len(missing) > 8 else ''}; "
            f"run: sidonpds build-cache {q_max}"
        )


# ---------------------------------------------------------------------------
# Density scan.


class DensityRow(NamedTuple):
    n_max: int
    total: int
    extending: int
    non_extending: int
    predicted: int | None  # 4*floor(N/11): the dilation-family count, size 4 only


def _sidon_sets_through(base: tuple[int, ...], size: int, range_max: int):
    """Sidon sets of `size` elements holding base, the others from [0, range_max], in lex order
    of the added elements; none when base has an element above range_max."""
    if max(base) > range_max:
        return
    pool = [x for x in range(range_max + 1) if x not in base]
    for extra in combinations(pool, size - len(base)):
        s = tuple(sorted(base + extra))
        if is_sidon(s):
            yield s


def iter_sidon_sets(n_max: int, size: int):
    """Normalized Sidon sets {0, ...} with elements <= n_max, in lexicographic order."""
    if size < 1:
        raise ValueError("size must be positive")
    yield from _sidon_sets_through((0,), size, n_max)


def classify(s, q_max: int, source) -> tuple[bool, int | None]:
    """Extending verdict plus the smallest witnessing q, if any.

    The drivers here check their sets in batches; perfbench/tracing.py
    still wraps this name, so it stays.
    """
    report = orbit.fast_check(s, q_max, source)
    return (True, report.witness.q) if report.extends else (False, None)


def _records(sets, q_max: int, source, progress=None) -> list[EnumerationRecord]:
    """One record per set, in input order, from one fast_check_many batch."""
    records: list = [None] * len(sets)
    for done, (i, report) in enumerate(orbit.fast_check_many(sets, q_max, source), 1):
        q_witness = report.witness.q if report.extends else None
        records[i] = EnumerationRecord(sets[i], report.extends, q_witness, q_max)
        if progress is not None and done % 500 == 0:
            progress(f"  {done}/{len(sets)} sets classified")
    return records


def enumerate_sidon(n_max: int, size: int, q_max: int, *, source, jobs: int = 1,
                    progress=None) -> tuple[DensityRow, list[EnumerationRecord]]:
    """Classify every normalized size-`size` Sidon set in [0, n_max] against source's PDSs.

    Records come out in enumeration (lexicographic) order, so repeated runs
    produce identical files.  jobs is accepted for compatibility and has no
    effect: the sets run as one batch in this process, which measured as
    fast as the process pool that once split them.
    """
    require_cache(source, q_max)
    records = _records(list(iter_sidon_sets(n_max, size)), q_max, source, progress)
    extending = sum(1 for r in records if r.extends)
    row = DensityRow(
        n_max=n_max,
        total=len(records),
        extending=extending,
        non_extending=len(records) - extending,
        predicted=4 * (n_max // 11) if size == 4 else None,
    )
    return row, records


# ---------------------------------------------------------------------------
# The dilation family and completeness of the density table.


def family_dilations(k: int) -> tuple[tuple[int, ...], ...]:
    """The four size-4 patterns at dilation k: kA, refl(kA), kB, refl(kB)."""
    return tuple(dilate(c.elems, k) for c in _FAMILY)


def family_members(n_max: int) -> set[tuple[int, ...]]:
    """All family dilations that fit in [0, n_max] (max element 11k <= n_max)."""
    out = set()
    for k in range(1, n_max // 11 + 1):
        out.update(family_dilations(k))
    return out


class CompletenessReport(NamedTuple):
    ok: bool
    missing: tuple[tuple[int, ...], ...]
    unexpected: tuple[tuple[int, ...], ...]


def completeness_check(n_max: int, records) -> CompletenessReport:
    """Do the scan's non-extenders equal the dilation family inside [0, n_max] exactly?"""
    actual = {normalize(r.elems) for r in records if not r.extends}
    expected = family_members(n_max)
    missing = tuple(sorted(expected - actual))
    unexpected = tuple(sorted(actual - expected))
    return CompletenessReport(not missing and not unexpected, missing, unexpected)


# ---------------------------------------------------------------------------
# Superset closure.


class ClosureReport(NamedTuple):
    base: tuple[int, ...]
    precondition_ok: bool  # the base itself is non-extending in the scanned range
    supersets: tuple[EnumerationRecord, ...]
    violations: tuple[tuple[int, ...], ...]

    @property
    def all_non_extending(self) -> bool:
        return all(not s.extends for s in self.supersets)


def superset_closure_check(s, target_size: int, range_max: int, q_max: int = 317,
                           *, source) -> ClosureReport:
    """Check every Sidon superset of s with target_size elements inside [0, range_max].

    Each set is checked against source's PDSs up to q_max.
    If no affine image of s embeds anywhere, none of its supersets can embed
    either (an embedding restricts).  An extending superset of a
    non-extending base is therefore flagged as a violation; when the base
    itself extends the flag list stays empty because nothing is contradicted.
    """
    base = tuple(sorted(s))
    if not base:
        raise ValueError("the base is the empty set (); it needs at least one element")
    if not is_sidon(base):
        raise ValueError(f"{base} is not a Sidon set")
    if target_size <= len(base):
        raise ValueError("target_size must exceed the base size")
    require_cache(source, q_max)
    sets = [base, *_sidon_sets_through(base, target_size, range_max)]
    base_record, *verdicts = _records(sets, q_max, source)  # one batch, the base first
    precondition_ok = not base_record.extends
    violations = tuple(v.elems for v in verdicts if v.extends) if precondition_ok else ()
    return ClosureReport(base, precondition_ok, tuple(verdicts), violations)


# ---------------------------------------------------------------------------
# Triple verification of the base candidates.


class TripleVerdict(NamedTuple):
    candidate: Candidate
    method1: orbit.CheckReport
    method2_agree: bool  # at every order: one affine orbit, and the full list agrees with the Singer set
    method3: dfs.IndependentReport
    non_extending: bool
    is_control: bool


def _exhaustive_extends(s, q: int, v: int, all_pds) -> bool:
    for elems in all_pds:
        out = orbit.fast_extends_at_q(s, Pds(q, v, elems, "enumeration"))
        if out.kind == orbit.EXTENDS:
            return True
    return False


def triple_verify(q_max_fast: int = 317, dfs_q_lo: int = 2, dfs_q_hi: int = 11,
                  budget: dfs.DfsBudget | None = None, *, source,
                  progress=None) -> list[TripleVerdict]:
    """Run all three verification methods over the base and control candidates.

    Method 1: affine-orbit scan against source's cached Singer PDSs up to
    q_max_fast.  Method 2: at each modulus of DEFAULT_ENUMERATION_MODULI,
    enumerate one PDS per translation class outright (the total still counts
    all of Z_v), confirm they lie in one affine orbit of source's PDS at
    that order, and confirm the exhaustive embedding verdict matches the one
    from that PDS alone (the uniqueness assumption carries no weight at
    these sizes).  Both checks are invariant under translation, so one
    member per class decides them for the whole class.  Each order is one
    pass: enumerate, test the orbit, report progress, then fold every
    candidate's two verdicts into its method2_agree and into whether some
    enumerated PDS hosts an image; no enumeration is kept past its pass.
    Method 3: seeded DFS, no Singer input at all.  The cache must cover
    q_max_fast and every enumeration order.
    """
    orders = [((isqrt(4 * v - 3) - 1) // 2, v) for v in DEFAULT_ENUMERATION_MODULI]
    require_cache(source, max(q_max_fast, *(q for q, _ in orders)))
    candidates = BASE_CANDIDATES + CONTROL_CANDIDATES
    agree = [True] * len(candidates)
    exhaustive = [False] * len(candidates)  # some enumerated PDS hosts an image
    for q, v in orders:
        all_pds, total = dfs.enumerate_all_pds(v)
        pds = source.get(q)
        orbit_ok = dfs.all_in_singer_orbit(v, all_pds, pds)
        if progress is not None:
            progress(f"enumerated v={v}: {total} perfect difference sets")
        for i, cand in enumerate(candidates):
            slow = _exhaustive_extends(cand.elems, q, v, all_pds)
            # a collision or size skip rules out embeddings just as a clean
            # no-image scan does; both must then agree with the full list
            fast = orbit.fast_extends_at_q(cand.elems, pds).kind == orbit.EXTENDS
            agree[i] = agree[i] and orbit_ok and slow == fast
            exhaustive[i] = exhaustive[i] or slow
    method1 = dict(orbit.fast_check_many([c.elems for c in candidates], q_max_fast, source))
    verdicts = []
    for i, cand in enumerate(candidates):
        m1 = method1[i]
        m3 = dfs.independent_check([cand.elems], dfs_q_lo, dfs_q_hi, budget)[0]
        verdict = TripleVerdict(
            candidate=cand,
            method1=m1,
            method2_agree=agree[i],
            method3=m3,
            non_extending=not (m1.extends or exhaustive[i] or m3.extends),
            is_control=cand in CONTROL_CANDIDATES,
        )
        verdicts.append(verdict)
        if progress is not None:
            progress(f"{cand.label}: non_extending={verdict.non_extending}")
    return verdicts
