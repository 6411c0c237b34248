"""Experiment drivers: triple verification, dilation families, density scans, closures.

The central objects are four size-4 Sidon patterns: {0,1,3,11} and
{0,1,4,11} plus their reflections.  Everything here classifies Sidon sets
as extending (some affine image embeds into a cached Singer PDS at a prime
power q <= q_max) or non-extending within the scanned range, and checks the
arithmetic facts around them: the non-extenders found by a density scan in
[0, N] are exactly the dilations k*pattern for 11k <= N, four per k.

Three independent methods back the non-extension verdicts: the fast
affine-orbit scan, agreement of that scan with an exhaustive enumeration of
all perfect difference sets at small moduli, and a seeded DFS that needs no
Singer or uniqueness input at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import isqrt

from . import dfs, orbit
from .cache import EnumerationRecord
from .fields import is_prime_power
from .sidon import Pds, dilate, is_sidon, normalize, reflect
from .singer import singer_pds_trace


@dataclass(frozen=True)
class Candidate:
    elems: tuple[int, ...]
    label: str

    def __post_init__(self):
        if not is_sidon(self.elems):
            raise ValueError(f"{self.label}: {self.elems} is not a Sidon set")


_PATTERN_A = (0, 1, 3, 11)
_PATTERN_B = (0, 1, 4, 11)

BASE_CANDIDATES = (
    Candidate(_PATTERN_A, "A"),
    Candidate(_PATTERN_B, "B"),
    Candidate(reflect(_PATTERN_A), "refl(A)"),
    Candidate(reflect(_PATTERN_B), "refl(B)"),
)

CONTROL_CANDIDATES = (
    Candidate((0, 1, 3), "control {0,1,3}"),
    Candidate((0, 1, 3, 19), "control {0,1,3,19}"),
)

KNOWN_SIZE5_NON_EXTENDERS = (
    Candidate((1, 2, 4, 8, 13), "{1,2,4,8,13}"),
    Candidate((1, 3, 9, 10, 13), "{1,3,9,10,13}"),
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

DEFAULT_ENUMERATION_MODULI = (13, 21, 31, 73)


class MissingCacheError(RuntimeError):
    """The PDS cache does not cover the requested scan range."""


def require_cache(source, q_max: int) -> None:
    missing = [q for q in range(2, q_max + 1) if is_prime_power(q) and source.get(q) is None]
    if missing:
        raise MissingCacheError(
            f"PDS cache missing for q in {missing[:8]}{'...' if len(missing) > 8 else ''}; "
            f"run: sidonpds build-cache {q_max}"
        )


def _resolve_source(source, data_root):
    return source if source is not None else orbit.PdsSource(data_root)


# ---------------------------------------------------------------------------
# Density scan.


@dataclass(frozen=True)
class DensityRow:
    n_max: int
    total: int
    extending: int
    non_extending: int
    predicted: int | None  # 4*floor(N/11): the dilation-family count, size 4 only


def iter_sidon_sets(n_max: int, size: int):
    """Normalized Sidon sets {0, ...} with elements <= n_max, in lexicographic order."""
    if size < 1:
        raise ValueError("size must be positive")
    if size == 1:
        yield (0,)
        return
    for rest in combinations(range(1, n_max + 1), size - 1):
        s = (0,) + rest
        if is_sidon(s):
            yield s


def _verdict(report: orbit.CheckReport) -> tuple[bool, int | None]:
    return (True, report.witness.q) if report.extends else (False, None)


def classify(s, q_max: int, source) -> tuple[bool, int | None]:
    """Extending verdict plus the smallest witnessing q, if any.

    The drivers here check their sets in batches; perfbench/tracing.py
    still wraps this name, so it stays.
    """
    return _verdict(orbit.fast_check(s, q_max, source))


def _classify_all(sets, q_max: int, source, progress=None) -> list[tuple[bool, int | None]]:
    """classify on every set, as one fast_check_many batch; verdicts in input order."""
    verdicts: list = [None] * len(sets)
    for done, (i, report) in enumerate(orbit.fast_check_many(sets, q_max, source), 1):
        verdicts[i] = _verdict(report)
        if progress is not None and done % 500 == 0:
            progress(done, len(sets))
    return verdicts


def enumerate_sidon(n_max: int, size: int, q_max: int, *, source=None, data_root=None,
                    jobs: int = 1, progress=None) -> tuple[DensityRow, list[EnumerationRecord]]:
    """Classify every normalized size-`size` Sidon set in [0, n_max].

    Records come out in enumeration (lexicographic) order, so repeated runs
    produce identical files.  jobs is accepted for compatibility and has no
    effect: the sets run as one batch in this process, which measured as
    fast as the process pool that once split them.
    """
    src = _resolve_source(source, data_root)
    require_cache(src, q_max)
    sets = list(iter_sidon_sets(n_max, size))
    verdicts = _classify_all(sets, q_max, src, progress)
    records = [
        EnumerationRecord(s, extends, q_witness, q_max)
        for s, (extends, q_witness) in zip(sets, verdicts)
    ]
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
    return (
        dilate(_PATTERN_A, k),
        dilate(reflect(_PATTERN_A), k),
        dilate(_PATTERN_B, k),
        dilate(reflect(_PATTERN_B), k),
    )


def family_members(n_max: int) -> set[tuple[int, ...]]:
    """All family dilations that fit in [0, n_max] (max element 11k <= n_max)."""
    out = set()
    for k in range(1, n_max // 11 + 1):
        out.update(family_dilations(k))
    return out


def matches_base_family(s) -> tuple[int, str] | None:
    """If normalize(s) is a dilation of one of the four base patterns, name it."""
    ns = normalize(s)
    top = ns[-1]
    if top == 0 or top % 11:
        return None
    k = top // 11
    for pattern, label in (
        (_PATTERN_A, "A"),
        (reflect(_PATTERN_A), "refl(A)"),
        (_PATTERN_B, "B"),
        (reflect(_PATTERN_B), "refl(B)"),
    ):
        if ns == dilate(pattern, k):
            return k, label
    return None


@dataclass(frozen=True)
class CompletenessReport:
    ok: bool
    expected: tuple[tuple[int, ...], ...]
    missing: tuple[tuple[int, ...], ...]
    unexpected: tuple[tuple[int, ...], ...]


def completeness_check(n_max: int, records) -> CompletenessReport:
    """Do the scan's non-extenders equal the dilation family inside [0, n_max] exactly?"""
    actual = {normalize(r.elems) for r in records if not r.extends}
    expected = family_members(n_max)
    missing = tuple(sorted(expected - actual))
    unexpected = tuple(sorted(actual - expected))
    return CompletenessReport(not missing and not unexpected, tuple(sorted(expected)), missing, unexpected)


@dataclass(frozen=True)
class DilationVerdict:
    k: int
    label: str
    elems: tuple[int, ...]
    report: orbit.CheckReport


def dilation_family_check(k_max: int = 10, q_max: int = 317, *, source=None,
                          data_root=None, progress=None) -> list[DilationVerdict]:
    """Fast-check all four patterns at every dilation k = 1..k_max."""
    src = _resolve_source(source, data_root)
    require_cache(src, q_max)
    labels = ("A", "refl(A)", "B", "refl(B)")
    members = [
        (k, base_label if k == 1 else f"{k}*{base_label}", s)
        for k in range(1, k_max + 1)
        for s, base_label in zip(family_dilations(k), labels)
    ]
    reports = dict(orbit.fast_check_many([s for _, _, s in members], q_max, src))
    out = []
    for i, (k, label, s) in enumerate(members):
        out.append(DilationVerdict(k, label, s, reports[i]))
        if progress is not None:
            progress(out[-1])
    return out


# ---------------------------------------------------------------------------
# Superset closure.


@dataclass(frozen=True)
class ClosureReport:
    base: tuple[int, ...]
    target_size: int
    range_max: int
    precondition_ok: bool  # the base itself is non-extending in the scanned range
    supersets: tuple[EnumerationRecord, ...]
    violations: tuple[tuple[int, ...], ...]

    @property
    def count(self) -> int:
        return len(self.supersets)

    @property
    def all_non_extending(self) -> bool:
        return all(not s.extends for s in self.supersets)


def superset_closure_check(s, target_size: int, range_max: int, q_max: int = 317,
                           *, source=None, data_root=None) -> ClosureReport:
    """Check every Sidon superset of s with target_size elements inside [0, range_max].

    If no affine image of s embeds anywhere, none of its supersets can embed
    either (an embedding restricts).  An extending superset of a
    non-extending base is therefore flagged as a violation; when the base
    itself extends the flag list stays empty because nothing is contradicted.
    """
    base = tuple(sorted(s))
    if not is_sidon(base):
        raise ValueError(f"{base} is not a Sidon set")
    if target_size <= len(base):
        raise ValueError("target_size must exceed the base size")
    src = _resolve_source(source, data_root)
    require_cache(src, q_max)
    base_report = orbit.fast_check(base, q_max, src)
    precondition_ok = not base_report.extends
    pool = [x for x in range(range_max + 1) if x not in base]
    sups = []
    for extra in combinations(pool, target_size - len(base)):
        sup = tuple(sorted(base + extra))
        if max(sup) <= range_max and is_sidon(sup):
            sups.append(sup)
    verdicts = [
        EnumerationRecord(sup, extends, q_witness, q_max)
        for sup, (extends, q_witness) in zip(sups, _classify_all(sups, q_max, src))
    ]
    violations = tuple(v.elems for v in verdicts if v.extends) if precondition_ok else ()
    return ClosureReport(base, target_size, range_max, precondition_ok, tuple(verdicts), violations)


# ---------------------------------------------------------------------------
# Sub-pattern novelty: the size-4 patterns are not shadows of known size-5 sets.


@dataclass(frozen=True)
class SubPatternEntry:
    source_label: str
    subset: tuple[int, ...]
    normalized: tuple[int, ...]
    family_match: tuple[int, str] | None


@dataclass(frozen=True)
class SubPatternReport:
    ok: bool  # no size-4 sub-pattern of the known size-5 sets is in the family
    entries: tuple[SubPatternEntry, ...]


def sub_pattern_check() -> SubPatternReport:
    """The four base patterns do not occur inside the known size-5 non-extenders.

    Every size-4 subset of each size-5 set is normalized and matched against
    all dilations and reflections of the base patterns; a genuinely new
    family means no subset matches.
    """
    entries = []
    for cand in KNOWN_SIZE5_NON_EXTENDERS:
        for subset in combinations(cand.elems, 4):
            entries.append(
                SubPatternEntry(cand.label, subset, normalize(subset), matches_base_family(subset))
            )
    return SubPatternReport(all(e.family_match is None for e in entries), tuple(entries))


# ---------------------------------------------------------------------------
# Triple verification of the base candidates.


@dataclass(frozen=True)
class OrbitCrossCheck:
    """At one small modulus: the full PDS list vs the Singer-orbit shortcut."""

    q: int
    v: int
    enumerated_total: int
    all_in_singer_orbit: bool
    exhaustive_extends: bool  # some enumerated PDS hosts an image of the set
    fast_kind: str  # outcome kind of the cached-Singer check at this q
    agree: bool


@dataclass(frozen=True)
class TripleVerdict:
    candidate: Candidate
    method1: orbit.CheckReport
    method2: tuple[OrbitCrossCheck, ...]
    method2_agree: bool
    method3: dfs.IndependentReport
    non_extending: bool
    is_control: bool


def _exhaustive_extends(s, q: int, v: int, all_pds) -> bool:
    for elems in all_pds:
        out = orbit.fast_extends_at_q(s, q, Pds(q, v, elems, "enumeration"))
        if out.kind == orbit.EXTENDS:
            return True
    return False


def triple_verify(q_max_fast: int = 317, dfs_q_lo: int = 2, dfs_q_hi: int = 11,
                  budget: dfs.DfsBudget | None = None, *, source=None, data_root=None,
                  enumeration_moduli=DEFAULT_ENUMERATION_MODULI,
                  include_controls: bool = True, progress=None) -> list[TripleVerdict]:
    """Run all three verification methods over the base candidates.

    Method 1: affine-orbit scan against cached Singer PDSs up to q_max_fast.
    Method 2: at each small modulus, enumerate all PDSs outright, confirm
    they form one affine orbit, and confirm the exhaustive embedding verdict
    matches the Singer-only one (the uniqueness assumption carries no
    weight at these sizes).  Method 3: seeded DFS, no Singer input at all.
    """
    src = _resolve_source(source, data_root)
    require_cache(src, q_max_fast)
    enum_data = {}
    for v in enumeration_moduli:
        q = (isqrt(4 * v - 3) - 1) // 2
        all_pds, total = dfs.enumerate_all_pds(v)
        orbit_ok = dfs.all_in_singer_orbit(v, all_pds, singer_pds_trace(q))
        enum_data[v] = (q, all_pds, total, orbit_ok)
        if progress is not None:
            progress(f"enumerated v={v}: {total} perfect difference sets")
    candidates = list(BASE_CANDIDATES) + (list(CONTROL_CANDIDATES) if include_controls else [])
    method1 = dict(orbit.fast_check_many([c.elems for c in candidates], q_max_fast, src))
    verdicts = []
    for i, cand in enumerate(candidates):
        m1 = method1[i]
        crosses = []
        for v, (q, all_pds, total, orbit_ok) in sorted(enum_data.items()):
            slow = _exhaustive_extends(cand.elems, q, v, all_pds)
            fast_out = orbit.fast_extends_at_q(cand.elems, q, src.get(q))
            # a collision or size skip rules out embeddings just as a clean
            # no-image scan does; both must then agree with the full list
            fast_extends = fast_out.kind == orbit.EXTENDS
            crosses.append(
                OrbitCrossCheck(q, v, total, orbit_ok, slow, fast_out.kind, slow == fast_extends)
            )
        m3 = dfs.independent_check([cand.elems], dfs_q_lo, dfs_q_hi, budget)[0]
        m2_extends = any(c.exhaustive_extends for c in crosses)
        verdict = TripleVerdict(
            candidate=cand,
            method1=m1,
            method2=tuple(crosses),
            method2_agree=all(c.agree and c.all_in_singer_orbit for c in crosses),
            method3=m3,
            non_extending=not (m1.extends or m2_extends or m3.extends),
            is_control=cand in CONTROL_CANDIDATES,
        )
        verdicts.append(verdict)
        if progress is not None:
            progress(f"{cand.label}: non_extending={verdict.non_extending}")
    return verdicts
