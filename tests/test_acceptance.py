"""Acceptance suite: every pinned count and verdict, one criterion per test.

Each test prints a single PASS line on success; expected values are
hardcoded here rather than imported so a typo in library constants cannot
vouch for itself.
"""

import random
from itertools import combinations

import pytest

from sidonpds import dfs, orbit, pipeline
from sidonpds.fields import (
    elem_from_int,
    field_ctx,
    field_mul,
    field_pow,
    is_prime_power,
    one,
)
from sidonpds.sidon import dilate, is_sidon, reflect, sidon_distinct_mod, verify_pds
from sidonpds.singer import affine_equivalent, find_primitive_coeffs, singer_pds_recurrence, singer_pds_trace

A = (0, 1, 3, 11)
B = (0, 1, 4, 11)
CANDIDATES = (A, B, reflect(A), reflect(B))

# at a prime power q = p^m the total is v * phi(v) / (3m), the size of the
# Singer set's affine orbit: 13*12/3, 21*12/6, 31*30/3, 57*36/3, 73*72/9, 91*72/6
EXPECTED_PDS_TOTALS = {13: 52, 21: 42, 31: 310, 57: 684, 73: 584, 91: 1092}
EXPECTED_DENSITY = {
    20: (802, 798, 4),
    30: (3254, 3246, 8),
    40: (8406, 8394, 12),
    50: (17256, 17240, 16),
}


def _ok(msg):
    print(f"ACCEPTANCE PASS: {msg}")


def test_criterion_01_hall_uniqueness_recheck():
    for v, expected_total in EXPECTED_PDS_TOTALS.items():
        q = {13: 3, 21: 4, 31: 5, 57: 7, 73: 8, 91: 9}[v]
        all_pds, total = dfs.enumerate_all_pds(v)
        assert total == expected_total, f"v={v}: {total} != {expected_total}"
        assert dfs.all_in_singer_orbit(v, all_pds, singer_pds_trace(q)), f"v={v} orbit"
    _ok("criterion 1: PDS totals 52/42/310/684/584/1092 at v=13/21/31/57/73/91, all in the Singer orbit")


@pytest.mark.parametrize("n_max", [20, 30, 40, 50])
def test_criterion_02_density_table(n_max, source):
    row, records = pipeline.enumerate_sidon(n_max, 4, 250, source=source)
    assert (row.total, row.extending, row.non_extending) == EXPECTED_DENSITY[n_max]
    assert row.predicted == 4 * (n_max // 11) == row.non_extending
    comp = pipeline.completeness_check(n_max, records)
    assert comp.ok, f"N={n_max}: missing {comp.missing} unexpected {comp.unexpected}"
    assert {r.elems for r in records if not r.extends} == pipeline.family_members(n_max)
    _ok(f"criterion 2: density row N={n_max} is {EXPECTED_DENSITY[n_max]}, members = dilation family")


def test_criterion_03_fast_scan_non_extension(source):
    for s in CANDIDATES:
        report = orbit.fast_check(s, 317, source)
        assert not report.extends, s
        skip_reasons = dict(report.skipped)
        assert 3 in skip_reasons and "collision" in skip_reasons[3], s
        checked_qs = {q for q, _ in report.checked}
        prime_powers = {q for q in range(5, 318) if is_prime_power(q)}
        assert checked_qs == prime_powers, s
    _ok("criterion 3: affine scan rules out A, B and reflections at every prime power q <= 317")


def test_criterion_04_unconditional_dfs():
    budget = dfs.DfsBudget(time_limit_s=60.0)
    reports = dfs.independent_check(CANDIDATES, 2, 11, budget)
    for rep in reports:
        assert not rep.extends, rep.seed
        assert rep.no_extension_proven, rep.seed
        statuses = {r.v: r.status for r in rep.runs}
        assert all(s != dfs.TIMEOUT for s in statuses.values()), rep.seed
        exhausted = {v for v, s in statuses.items() if s == dfs.EXHAUSTED}
        assert exhausted == {31, 43, 57, 73, 91, 111, 133}, (rep.seed, exhausted)
        assert statuses[7] == dfs.SKIP_SIZE
        assert statuses[13] == statuses[21] == dfs.SKIP_COLLISION
    _ok("criterion 4: seeded DFS exhausts every applicable v <= 133 (incl. 43, 91, 111), no timeouts")


def test_criterion_05_dilation_family(source):
    family = [s for k in range(1, 11) for s in pipeline.family_dilations(k)]
    assert len(family) == 40
    reports = dict(orbit.fast_check_many(family, 317, source))
    assert sorted(reports) == list(range(40))
    for i, s in enumerate(family):
        assert is_sidon(s), s
        assert not reports[i].extends, s
    _ok("criterion 5: all 40 dilation-family sets (k <= 10) non-extending at q <= 317")


# The ids keep the names these cases have always had (from the counts 16
# and 30 once pinned here); the asserted counts are the ones in the tuple.
@pytest.mark.parametrize(
    "target_size,range_max,expected_count",
    [
        pytest.param(5, 30, 13, id="5-30-16"),
        pytest.param(6, 50, 335, id="6-50-30"),
    ],
)
def test_criterion_06_superset_closure(target_size, range_max, expected_count, source):
    report = pipeline.superset_closure_check(A, target_size, range_max, 317, source=source)
    assert report.precondition_ok
    assert report.all_non_extending
    assert report.violations == ()
    # Size 5 by hand: with D(A) = {1,2,3,8,10,11}, a new element e > 11 is
    # admissible iff none of e, e-1, e-3, e-11 lies in D(A).  That excludes
    # exactly {12,13,14,19,21,22} from [12,30], and no e < 12 works, leaving
    # 13.  A brute-force count with its own pairwise-difference check
    # (tests/test_pipeline.py::test_superset_counts_ground_truth) gives 13,
    # 335, 16 and 30 at (5,[0,30]), (6,[0,50]), (5,[0,33]) and (6,[0,30]).
    # The 16 and 30 pinned here before are the counts at the latter two
    # ranges, recorded against the wrong ones.
    assert report.count == expected_count, (
        f"superset count at (size {target_size}, range {range_max}) is {report.count}, "
        f"expected {expected_count}"
    )
    _ok(
        f"criterion 6: exactly {expected_count} size-{target_size} Sidon supersets of"
        f" {list(A)} in [0, {range_max}], all non-extending"
    )


def test_criterion_07_construction_agreement():
    prime_powers = [q for q in range(2, 65) if is_prime_power(q)]
    assert len(prime_powers) == 27
    for q in prime_powers:
        tr = singer_pds_trace(q)
        rec = singer_pds_recurrence(q, find_primitive_coeffs(q))
        assert affine_equivalent(tr.v, tr.elems, rec.elems) is not None, q
    _ok("criterion 7: trace-zero and recurrence constructions affine-equivalent for all q <= 64")


def test_criterion_08_controls(source):
    report = orbit.fast_check((0, 1, 3, 19), 64, source)
    assert report.extends and report.witness.q == 37
    for s in ((1, 2, 4, 8, 13), (1, 3, 9, 10, 13)):
        rep = orbit.fast_check(s, 128, source)
        assert not rep.extends, s
    _ok("criterion 8: {0,1,3,19} first extends at q=37; both size-5 sets non-extending to q <= 128")


def test_criterion_09_oracle_equivalence(source):
    small_qs = [q for q in range(2, 14) if is_prime_power(q)]
    for s in CANDIDATES:
        for q in small_qs:
            pds = source.get(q)
            fast = orbit.fast_extends_at_q(s, pds)
            brute = orbit.brute_force_at_q(s, pds)
            assert (fast.kind == orbit.EXTENDS) == (brute.kind == orbit.EXTENDS), (s, q)
    compared = 0
    for s in pipeline.iter_sidon_sets(20, 4):
        for q in (3, 4, 5):
            v = q * q + q + 1
            if not sidon_distinct_mod(s, v):
                continue
            fast = orbit.fast_extends_at_q(s, source.get(q))
            out = dfs.find_pds_extension(s, v, dfs.DfsBudget(60))
            assert out.status in (dfs.FOUND, dfs.EXHAUSTED)
            assert (fast.kind == orbit.EXTENDS) == (out.status == dfs.FOUND), (s, q)
            compared += 1
    assert compared > 500
    _ok(f"criterion 9: fast scan == brute force on candidates, == DFS on {compared} seeded searches")


def test_criterion_10_invariant_suites(source):
    # field axioms on the three smallest extension fields, full tables
    for p, d in ((2, 2), (2, 3), (3, 2)):
        ctx = field_ctx(p, d)
        elems = [elem_from_int(ctx, n) for n in range(ctx.order)]

        def add(a, b, p=p):
            return tuple((x + y) % p for x, y in zip(a, b))

        for a in elems:
            for b in elems:
                assert field_mul(ctx, a, b) == field_mul(ctx, b, a)
                for c in elems:
                    assert field_mul(ctx, a, field_mul(ctx, b, c)) == field_mul(
                        ctx, field_mul(ctx, a, b), c
                    )
                    assert field_mul(ctx, a, add(b, c)) == add(
                        field_mul(ctx, a, b), field_mul(ctx, a, c)
                    )
            if a != elems[0]:
                # Fermat inverse a^(order - 2)
                assert field_mul(ctx, a, field_pow(ctx, a, ctx.order - 2)) == one(ctx)

    # perfection == difference distinctness at exact cardinality, v <= 31
    for v, n in ((7, 3), (13, 4)):
        for s in combinations(range(v), n):
            assert verify_pds(s, v) == sidon_distinct_mod(s, v)
    rng = random.Random(31)
    for v, n in ((21, 5), (31, 6)):
        for _ in range(4000):
            s = tuple(sorted(rng.sample(range(v), n)))
            assert verify_pds(s, v) == sidon_distinct_mod(s, v)

    # verdict symmetry under reflection and unit dilation
    probes = (A, B, (0, 1, 3, 7), (0, 2, 3, 10), (0, 1, 4, 6))
    for s in probes:
        for q in (3, 4, 5, 7, 8, 9, 11, 13):
            pds = source.get(q)
            assert (
                orbit.fast_extends_at_q(s, pds).kind
                == orbit.fast_extends_at_q(reflect(s), pds).kind
            ), (s, q)
        rep = orbit.fast_check(s, 64, source)
        rep2 = orbit.fast_check(dilate(s, 2), 64, source)
        assert rep.extends == rep2.extends
    _ok("criterion 10: field axioms, perfection/distinctness equivalence, verdict symmetries")
