import ast
import hashlib
import os
import subprocess
import sys
from itertools import combinations
from math import isqrt
from pathlib import Path

import pytest

from sidonpds import orbit
from sidonpds.cache import EnumerationRecord, enumeration_path, write_enumeration
from sidonpds.dfs import DfsBudget, DfsRun, IndependentReport, enumerate_all_pds
from sidonpds.fields import FieldCtx, PrimePower
from sidonpds.pipeline import (
    BASE_CANDIDATES,
    CONTROL_CANDIDATES,
    DEFAULT_ENUMERATION_MODULI,
    REFERENCE_DENSITY,
    Candidate,
    ClosureReport,
    CompletenessReport,
    DensityRow,
    MissingCacheError,
    TripleVerdict,
    _exhaustive_extends,
    completeness_check,
    enumerate_sidon,
    family_dilations,
    family_members,
    iter_sidon_sets,
    require_cache,
    superset_closure_check,
    triple_verify,
)
from sidonpds.sidon import Pds, dilate, is_sidon, normalize, reflect
from sidonpds.singer import RecurrenceCoeffs

A = (0, 1, 3, 11)
B = (0, 1, 4, 11)


def test_base_candidates_are_the_two_patterns_and_reflections():
    elems = [c.elems for c in BASE_CANDIDATES]
    assert elems == [A, B, (0, 8, 10, 11), (0, 7, 10, 11)]


def test_every_candidate_is_sidon():
    for cand in BASE_CANDIDATES + CONTROL_CANDIDATES:
        assert is_sidon(cand.elems), cand


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
    assert completeness_check(22, records).ok
    assert {r.elems for r in records if not r.extends} == family_members(22)
    assert len(family_members(22)) == 8


def test_density_monotone_in_qmax(source):
    # raising the scan bound can only confirm more witnesses
    _, rec250 = enumerate_sidon(20, 4, 250, source=source)
    _, rec317 = enumerate_sidon(20, 4, 317, source=source)
    non250 = {r.elems for r in rec250 if not r.extends}
    non317 = {r.elems for r in rec317 if not r.extends}
    assert non317 <= non250
    assert non250 == non317 == set(family_members(20))


def test_jobs_has_no_effect_on_enumeration(data_root, source):
    # jobs is still accepted and has no effect; a fresh source over the same
    # data root gives the same records
    _, default = enumerate_sidon(12, 4, 64, source=source)
    _, jobs2 = enumerate_sidon(12, 4, 64, source=orbit.PdsSource(data_root), jobs=2)
    assert default == jobs2


SRC = Path(__file__).resolve().parents[1] / "src"


def _fresh_python(probe: str) -> str:
    """stdout of probe run in a new interpreter that imports sidonpds from this tree."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True,
                          check=True).stdout


def test_import_leaves_the_process_pool_unloaded():
    # nothing in the package starts worker processes, so nothing imports the
    # pool; nothing imports numpy either, which would add about 12 MB of
    # resident memory at import; records are NamedTuples, so nothing imports
    # dataclasses or the inspect module it pulls in, about 20 ms of every
    # start-up; the CLI module imports every other module
    probe = (
        "import sys, sidonpds.cli; "
        "print(sorted(m for m in ('multiprocessing', 'concurrent.futures.process', 'numpy', "
        "'dataclasses', 'inspect') if m in sys.modules))"
    )
    assert _fresh_python(probe).strip() == "[]"


@pytest.mark.parametrize(
    "module",
    sorted("sidonpds" if p.stem == "__init__" else f"sidonpds.{p.stem}" for p in (SRC / "sidonpds").glob("*.py")),
)
def test_each_module_imports_on_its_own(module):
    # the package imports none of its modules, so each one must import its
    # own dependencies, in an order free of cycles
    assert _fresh_python(f"import {module}; print('ok')").strip() == "ok"


def _top_level_public_names(path: Path):
    """(name, first line, last line) of each def, class and assignment at the top of path, no leading _."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            names = [t.id for t in (node.targets if isinstance(node, ast.Assign) else [node.target])
                     if isinstance(t, ast.Name)]
        else:
            continue
        yield from ((name, node.lineno, node.end_lineno) for name in names if not name.startswith("_"))


def _references(path: Path):
    """(name, line) of every loaded name, attribute, imported name and tracing.TARGETS entry in path."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name, node.lineno
        elif isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["TARGETS"]:
            yield from ((entry.elts[1].value, entry.lineno) for entry in node.value.elts)


def test_every_public_name_is_used_outside_its_definition():
    # a public name that only tests call is an export nothing uses
    files = sorted([*SRC.rglob("*.py"), *(SRC.parent / "perfbench").rglob("*.py")])
    refs = [(name, path, line) for path in files for name, line in _references(path)]
    unused = {
        f"{path.stem}.{name}"
        for path in sorted((SRC / "sidonpds").glob("*.py"))
        for name, lo, hi in _top_level_public_names(path)
        if not any(r == name and not (rp == path and lo <= line <= hi) for r, rp, line in refs)
    }
    assert not unused, sorted(unused)


def test_every_record_field_is_read_outside_its_class():
    # a field that only tests read is a result no caller reads.  A read is
    # matched by attribute name alone, so a field whose name is read on
    # another type passes unseen: a `witness` field on IndependentReport
    # would pass on the reads of CheckReport.witness.  Nor does a read show
    # that anything sets the field: an option that only its own module reads
    # and only tests set passes too.  Records are the classes with a
    # NamedTuple base; DfsBudget validates in a subclass, so its fields sit
    # in a private base
    files = sorted([*SRC.rglob("*.py"), *(SRC.parent / "perfbench").rglob("*.py")])
    loads = [(node.attr, path, node.lineno) for path in files for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)]
    records = [
        (path, cls)
        for path in sorted((SRC / "sidonpds").glob("*.py"))
        for cls in ast.parse(path.read_text()).body
        if isinstance(cls, ast.ClassDef) and any(ast.unparse(b) == "NamedTuple" for b in cls.bases)
    ]
    assert len(records) == 16, sorted(f"{path.stem}.{cls.name}" for path, cls in records)
    unread = [
        f"{path.stem}.{cls.name}.{field.target.id}"
        for path, cls in records
        for field in cls.body
        if isinstance(field, ast.AnnAssign) and isinstance(field.target, ast.Name)
        and not any(attr == field.target.id and not (lp == path and cls.lineno <= line <= cls.end_lineno)
                    for attr, lp, line in loads)
    ]
    assert not unread, unread


def test_every_source_file_parses_as_python_3_10():
    # requires-python is >= 3.10 and CI has a 3.10 leg, which a later
    # interpreter cannot stand in for.  This check is best-effort: ast's
    # feature_version rejects some newer grammar, such as except*, but lets
    # through other 3.11+ syntax (a starred annotation, *Ts) and every newer
    # library call; only a run under 3.10 shows those.
    root = SRC.parent
    files = sorted(path for part in ("src", "tests", "perfbench") for path in (root / part).rglob("*.py"))
    assert len(files) > 20
    for path in files:
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


_WITNESS = orbit.AffineWitness(2, 7, 1, 0, (0, 1, 3))
_RUN = DfsRun(2, 7, "found", 0.5, 3, (0, 1, 3))
_CHECK_REPORT = orbit.CheckReport(True, _WITNESS, ((2, 7),), ((3, "skip_size"),))
_INDEPENDENT = IndependentReport((0, 1, 3), (_RUN,))
_RECORDS = [
    (PrimePower(9, 3, 2), ("q", "p", "m")),
    (FieldCtx(2, 3, (1, 1, 0, 1), (7,)), ("p", "degree", "modulus", "group_order_factorization")),
    (Pds(2, 7, (0, 1, 3), "trace_zero"), ("q", "v", "elems", "method")),
    (RecurrenceCoeffs(2, 0, 1, 1), ("q", "a1", "a2", "a3")),
    (EnumerationRecord((0, 1, 3), True, 2, 5), ("elems", "extends", "q_witness", "q_max")),
    (_WITNESS, ("q", "v", "a", "b", "image")),
    (orbit.CheckOutcome(orbit.EXTENDS, _WITNESS), ("kind", "witness")),
    (_CHECK_REPORT, ("extends", "witness", "checked", "skipped")),
    (DfsBudget(), ("time_limit_s",)),
    (_RUN, ("q", "v", "status", "elapsed", "nodes", "pds")),
    (_INDEPENDENT, ("seed", "runs")),
    (Candidate(A, "A"), ("elems", "label")),
    (DensityRow(30, 3254, 3246, 8, 8), ("n_max", "total", "extending", "non_extending", "predicted")),
    (CompletenessReport(False, ((0, 1, 3, 11),), ()), ("ok", "missing", "unexpected")),
    (ClosureReport(A, True, (), ()), ("base", "precondition_ok", "supersets", "violations")),
    (TripleVerdict(Candidate(A, "A"), _CHECK_REPORT, True, _INDEPENDENT, False, False),
     ("candidate", "method1", "method2_agree", "method3", "non_extending", "is_control")),
]


@pytest.mark.parametrize("record, fields", _RECORDS, ids=[type(r).__name__ for r, _ in _RECORDS])
def test_records_are_immutable_and_print_their_fields(record, fields):
    # the contract the results keep: fields in this order, no field can be
    # set, and the repr names every field
    values = [getattr(record, f) for f in fields]
    assert type(record)(*values) == record
    for f in fields:
        with pytest.raises(AttributeError):
            setattr(record, f, None)
    assert repr(record) == f"{type(record).__name__}({', '.join(f'{f}={v!r}' for f, v in zip(fields, values))})"


def test_dfs_budget_defaults():
    assert DfsBudget() == DfsBudget(60.0) == (60.0,)


def test_family_members_and_membership():
    assert family_dilations(2) == (
        (0, 2, 6, 22),
        (0, 16, 20, 22),
        (0, 2, 8, 22),
        (0, 14, 20, 22),
    )
    # s is in the family iff its translate to 0 is a member that fits under its own top
    members = [A, dilate(A, 2), tuple(x + 5 for x in dilate(B, 3)), reflect(A)]
    for s in members + [(0, 1, 3, 7), (0, 2, 6, 11)]:
        ns = normalize(s)
        assert (ns in family_members(ns[-1])) == (s in members), s


def test_no_size4_subset_of_the_size5_non_extenders_is_in_the_family():
    # the family is new: no 4-subset of {1,2,4,8,13} or {1,3,9,10,13} is a
    # translate of a family member
    for s5 in ((1, 2, 4, 8, 13), (1, 3, 9, 10, 13)):
        for subset in combinations(s5, 4):
            ns = normalize(subset)
            assert ns not in family_members(ns[-1]), (s5, subset)
    first = {normalize(subset) for subset in combinations((1, 2, 4, 8, 13), 4)}
    assert first == {(0, 1, 3, 7), (0, 1, 3, 12), (0, 1, 7, 12), (0, 2, 6, 11), (0, 3, 7, 12)}


def test_dilation_rows_k1_match_candidates(source):
    family = family_dilations(1)
    assert family == (A, reflect(A), B, reflect(B))
    assert set(family) == {c.elems for c in BASE_CANDIDATES}
    reports = dict(orbit.fast_check_many(family, 64, source))
    assert sorted(reports) == [0, 1, 2, 3]
    assert all(not r.extends for r in reports.values())


def test_dilation_family_small(source):
    family = [s for k in (1, 2) for s in family_dilations(k)]
    assert len(family) == 8
    assert set(family) == family_members(22)
    reports = dict(orbit.fast_check_many(family, 250, source))
    assert sorted(reports) == list(range(8))
    assert all(not r.extends for r in reports.values())


def test_superset_gate_on_extending_base(source):
    report = superset_closure_check((0, 1, 3, 9), 5, 20, 64, source=source)
    assert not report.precondition_ok  # the base embeds at q=3 already
    assert report.violations == ()
    assert len(report.supersets) > 0


def test_superset_closure_small_range(source):
    report = superset_closure_check(A, 5, 15, 250, source=source)
    assert report.precondition_ok
    assert len(report.supersets) >= 1
    assert report.all_non_extending
    assert report.violations == ()


def test_superset_counts_ground_truth(source):
    # counts independently hand-checkable for size 5: with D(A) = {1,2,3,8,10,11},
    # a new element e > 11 works iff none of e, e-1, e-3, e-11 hits D(A),
    # ruling out e in {12,13,14,19,21,22}; no e < 12 works
    report = superset_closure_check(A, 5, 30, 250, source=source)
    assert len(report.supersets) == 13
    assert report.all_non_extending and report.violations == ()
    report = superset_closure_check(A, 5, 33, 250, source=source)
    assert len(report.supersets) == 16
    assert report.all_non_extending and report.violations == ()
    report = superset_closure_check(A, 6, 30, 250, source=source)
    assert len(report.supersets) == 30
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


@pytest.mark.parametrize("n_max, total", [(20, 802), (30, 3254), (40, 8406), (50, 17256)])
def test_density_totals_ground_truth(n_max, total):
    # a count that shares no code with sidonpds: every {0, a, b, c} with
    # 0 < a < b < c <= n_max whose six differences are distinct
    count = 0
    for c in range(3, n_max + 1):
        for b in range(2, c):
            for a in range(1, b):
                count += len({a, b, c, b - a, c - a, c - b}) == 6
    assert count == total
    assert REFERENCE_DENSITY[n_max][0] == total


def test_reflection_verdict_symmetry(source):
    for s in (A, B, (0, 1, 3, 7), (0, 2, 3, 10)):
        r = reflect(s)
        for q in (3, 4, 5, 7, 8, 9, 11, 13):
            pds = source.get(q)
            assert (
                orbit.fast_extends_at_q(s, pds).kind
                == orbit.fast_extends_at_q(r, pds).kind
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
        require_cache({}, 13)


def test_enumerate_requires_cache():
    with pytest.raises(MissingCacheError):
        enumerate_sidon(10, 4, 13, source={})


def test_triple_verify_small_scope(source):
    verdicts = triple_verify(q_max_fast=64, dfs_q_lo=2, dfs_q_hi=8, source=source)
    by_label = {v.candidate.label: v for v in verdicts}
    for label in ("A", "B", "refl(A)", "refl(B)"):
        v = by_label[label]
        assert v.non_extending and v.method2_agree and v.method3.no_extension_proven
    ctrl = by_label["control {0,1,3}"]
    assert not ctrl.non_extending and ctrl.method1.extends and ctrl.method3.extends
    ctrl19 = by_label["control {0,1,3,19}"]
    assert ctrl19.method1.extends and ctrl19.method1.witness.q == 37


@pytest.mark.parametrize("v", DEFAULT_ENUMERATION_MODULI)
def test_one_pds_per_translation_class_decides_the_exhaustive_verdict(v):
    # method 2 sees one set per translation class; its verdict must equal the
    # verdict over every PDS of Z_v, all v translates of each
    q = (isqrt(4 * v - 3) - 1) // 2
    sols, total = enumerate_all_pds(v)
    translates = {tuple(sorted((x + t) % v for x in s)) for s in sols for t in range(v)}
    assert len(translates) == total
    for cand in BASE_CANDIDATES + CONTROL_CANDIDATES:
        assert (_exhaustive_extends(cand.elems, q, v, sols)
                == _exhaustive_extends(cand.elems, q, v, sorted(translates))), (cand.label, v)


def test_iter_sidon_sets_stays_inside_the_range():
    assert list(iter_sidon_sets(0, 1)) == [(0,)]
    assert list(iter_sidon_sets(-1, 1)) == []
    assert list(iter_sidon_sets(2, 2)) == [(0, 1), (0, 2)]
    with pytest.raises(ValueError):
        list(iter_sidon_sets(8, 0))


def test_superset_closure_with_the_base_outside_the_range(source):
    # the base is still classified; no superset fits in [0, 10]
    report = superset_closure_check(A, 5, 10, 64, source=source)
    assert report.precondition_ok
    assert len(report.supersets) == 0 and report.violations == ()


def test_superset_closure_rejects_an_empty_base(source):
    with pytest.raises(ValueError, match=r"empty set \(\)"):
        superset_closure_check((), 2, 5, 13, source=source)


def test_density_n50_jsonl_matches_the_pinned_bytes(source, tmp_path):
    # the N = 50 row of the README full reproduction, byte for byte
    _, records = enumerate_sidon(50, 4, 250, source=source)
    path = enumeration_path(50, 4, 250, tmp_path)
    write_enumeration(records, path)
    assert path.name == "size4_N50_qmax250_fast.jsonl"
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == "f389cf62644046741e6e759f526dc32d04d311bf8d94d53a00809978d5087ae5"


def test_size3_row_n200_extends_at_every_set(source):
    # the paper's other side of s = 4: every Sidon 3-set extends.  A count
    # that shares no code with sidonpds: {0, a, b} with 0 < a < b <= 200 is
    # Sidon iff its differences a, b - a, b are distinct, that is iff b != 2a
    n = 200
    assert sum(b != 2 * a for a, b in combinations(range(1, n + 1), 2)) == n * (n - 1) // 2 - n // 2
    row, records = enumerate_sidon(n, 3, 317, source=source)
    assert row.total == len(records) == 19_800
    assert row.extending == row.total and row.non_extending == 0
    latest = max(r.q_witness for r in records)
    assert latest == 13
    late = [r.elems for r in records if r.q_witness == latest]
    assert late == [(0, 28, 105), (0, 35, 154), (0, 77, 105), (0, 119, 154)]
    # the latest first witness is not a miss of the scan at a smaller order
    for s in late:
        for q in (2, 3, 4, 5, 7, 8, 9, 11):
            assert orbit.brute_force_at_q(s, source.get(q)).kind == orbit.NO_IMAGE, (s, q)
