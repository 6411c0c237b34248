import os
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

from sidonpds import orbit
from sidonpds.pipeline import (
    BASE_CANDIDATES,
    Candidate,
    MissingCacheError,
    completeness_check,
    dilation_family_check,
    enumerate_sidon,
    family_dilations,
    family_members,
    iter_sidon_sets,
    matches_base_family,
    require_cache,
    sub_pattern_check,
    superset_closure_check,
    triple_verify,
)
from sidonpds.sidon import dilate, reflect

A = (0, 1, 3, 11)
B = (0, 1, 4, 11)


def test_base_candidates_are_the_two_patterns_and_reflections():
    elems = [c.elems for c in BASE_CANDIDATES]
    assert elems == [A, B, (0, 8, 10, 11), (0, 7, 10, 11)]


def test_candidate_validates_sidon():
    with pytest.raises(ValueError):
        Candidate((0, 1, 2, 4), "bad")


def test_iter_sidon_sets_order_and_shape():
    sets = list(iter_sidon_sets(8, 4))
    assert sets == sorted(sets)  # lexicographic
    assert all(s[0] == 0 and len(s) == 4 for s in sets)
    assert (0, 1, 3, 7) in sets
    assert (0, 1, 2, 4) not in sets


def test_density_n10_has_no_nonextenders(source):
    row, records = enumerate_sidon(10, 4, 64, source=source)
    assert row.non_extending == 0
    assert row.predicted == 0
    assert row.total == row.extending
    assert completeness_check(10, records).ok  # vacuously


def test_density_n22_matches_family(source):
    row, records = enumerate_sidon(22, 4, 250, source=source)
    assert row.non_extending == 8
    assert row.predicted == 8
    comp = completeness_check(22, records)
    assert comp.ok
    assert set(comp.expected) == family_members(22)
    assert len(comp.expected) == 8


def test_density_monotone_in_qmax(source):
    # raising the scan bound can only confirm more witnesses
    _, rec250 = enumerate_sidon(20, 4, 250, source=source)
    _, rec317 = enumerate_sidon(20, 4, 317, source=source)
    non250 = {r.elems for r in rec250 if not r.extends}
    non317 = {r.elems for r in rec317 if not r.extends}
    assert non317 <= non250
    assert non250 == non317 == set(family_members(20))


def test_parallel_enumeration_matches_serial(data_root, source):
    # jobs is still accepted and has no effect; a data_root builds its own source
    _, serial = enumerate_sidon(12, 4, 64, source=source)
    _, parallel = enumerate_sidon(12, 4, 64, data_root=data_root, jobs=2)
    assert serial == parallel


def test_import_leaves_the_process_pool_unloaded():
    # nothing in the package starts worker processes, so nothing imports the pool
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = (
        "import sys, sidonpds; "
        "print(sorted(m for m in ('multiprocessing', 'concurrent.futures.process') if m in sys.modules))"
    )
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_family_members_and_matcher():
    assert family_dilations(2) == (
        (0, 2, 6, 22),
        (0, 16, 20, 22),
        (0, 2, 8, 22),
        (0, 14, 20, 22),
    )
    assert matches_base_family(A) == (1, "A")
    assert matches_base_family(dilate(A, 2)) == (2, "A")
    assert matches_base_family(tuple(x + 5 for x in dilate(B, 3))) == (3, "B")
    assert matches_base_family(reflect(A)) == (1, "refl(A)")
    assert matches_base_family((0, 1, 3, 7)) is None
    assert matches_base_family((0, 2, 6, 11)) is None


def test_sub_pattern_check_lists_expected_normalized_sets():
    report = sub_pattern_check()
    assert report.ok
    first = {e.normalized for e in report.entries if e.source_label == "{1,2,4,8,13}"}
    assert first == {(0, 1, 3, 7), (0, 1, 3, 12), (0, 1, 7, 12), (0, 2, 6, 11), (0, 3, 7, 12)}
    assert all(e.family_match is None for e in report.entries)


def test_dilation_rows_k1_match_candidates(source):
    rows = dilation_family_check(1, 64, source=source)
    assert {r.elems for r in rows} == {c.elems for c in BASE_CANDIDATES}
    assert [r.label for r in rows] == ["A", "refl(A)", "B", "refl(B)"]
    assert all(not r.report.extends for r in rows)


def test_dilation_family_small(source):
    rows = dilation_family_check(2, 250, source=source)
    assert len(rows) == 8
    assert all(not r.report.extends for r in rows)
    assert {r.elems for r in rows} == family_members(22)


def test_superset_gate_on_extending_base(source):
    report = superset_closure_check((0, 1, 3, 9), 5, 20, 64, source=source)
    assert not report.precondition_ok  # the base embeds at q=3 already
    assert report.violations == ()
    assert report.count > 0


def test_superset_closure_small_range(source):
    report = superset_closure_check(A, 5, 15, 250, source=source)
    assert report.precondition_ok
    assert report.count >= 1
    assert report.all_non_extending
    assert report.violations == ()


def test_superset_counts_ground_truth(source):
    # counts independently hand-checkable for size 5: with D(A) = {1,2,3,8,10,11},
    # a new element e > 11 works iff none of e, e-1, e-3, e-11 hits D(A),
    # ruling out e in {12,13,14,19,21,22}; no e < 12 works
    report = superset_closure_check(A, 5, 30, 250, source=source)
    assert report.count == 13
    assert report.all_non_extending and report.violations == ()
    report = superset_closure_check(A, 5, 33, 250, source=source)
    assert report.count == 16
    assert report.all_non_extending and report.violations == ()
    report = superset_closure_check(A, 6, 30, 250, source=source)
    assert report.count == 30
    assert report.all_non_extending and report.violations == ()

    # a second count that shares no code with sidonpds: every choice of
    # size - 4 new elements from [0, range_max], kept iff all differences are distinct
    def brute_force_count(size, range_max):
        pool = [x for x in range(range_max + 1) if x not in A]
        count = 0
        for extra in combinations(pool, size - len(A)):
            diffs = [b - a for a, b in combinations(sorted(A + extra), 2)]
            count += len(diffs) == len(set(diffs))
        return count

    for size, range_max, expected in ((5, 30, 13), (5, 33, 16), (6, 30, 30), (6, 50, 335)):
        assert brute_force_count(size, range_max) == expected, (size, range_max)


def test_reflection_verdict_symmetry(source):
    for s in (A, B, (0, 1, 3, 7), (0, 2, 3, 10)):
        r = reflect(s)
        for q in (3, 4, 5, 7, 8, 9, 11, 13):
            pds = source.get(q)
            assert (
                orbit.fast_extends_at_q(s, q, pds).kind
                == orbit.fast_extends_at_q(r, q, pds).kind
            ), (s, q)


def test_dilation_verdict_stability_unit_k(source):
    # 2 is a unit mod every v = q^2+q+1 (always odd)
    for s in (A, B, (0, 1, 3, 7)):
        rep1 = orbit.fast_check(s, 64, source)
        rep2 = orbit.fast_check(dilate(s, 2), 64, source)
        assert rep1.extends == rep2.extends
        if rep1.extends:
            assert rep1.witness.q == rep2.witness.q


def test_require_cache_names_the_build_command():
    with pytest.raises(MissingCacheError, match="build-cache 13"):
        require_cache(orbit.MappingSource({}), 13)


def test_enumerate_requires_cache():
    with pytest.raises(MissingCacheError):
        enumerate_sidon(10, 4, 13, source=orbit.MappingSource({}))


def test_triple_verify_small_scope(source):
    verdicts = triple_verify(
        q_max_fast=64, dfs_q_lo=2, dfs_q_hi=8, source=source, enumeration_moduli=(13, 21)
    )
    by_label = {v.candidate.label: v for v in verdicts}
    for label in ("A", "B", "refl(A)", "refl(B)"):
        v = by_label[label]
        assert v.non_extending and v.method2_agree and v.method3.no_extension_proven
        assert all(c.all_in_singer_orbit for c in v.method2)
    ctrl = by_label["control {0,1,3}"]
    assert not ctrl.non_extending and ctrl.method1.extends and ctrl.method3.extends
    ctrl19 = by_label["control {0,1,3,19}"]
    assert ctrl19.method1.extends and ctrl19.method1.witness.q == 37
