"""Command-line driver for the cache builder, verifiers, and scan pipelines.

Machine-readable output (tables, verdict lines, JSONL files) goes to stdout
or the data root; progress and timing chatter goes to stderr so repeated
runs with the same flags produce byte-identical stdout.  Exit codes: 0 on
success; 1 when --check finds a mismatch (one MISMATCH line on stderr
each), when `closure` finds an extending superset of a non-extending base
(with or without --check), when `singer --method both` finds the two
constructions not affine-equivalent, or when the PDS cache is missing or
corrupt; 2 on usage errors.
"""

from __future__ import annotations

import argparse
import sys
import time

from . import cache, dfs, orbit, pipeline
from .fields import is_prime_power
from .sidon import is_sidon
from .singer import find_primitive_coeffs, singer_pds_recurrence, singer_pds_trace, affine_equivalent


def _eprint(*args):
    print(*args, file=sys.stderr)


def _usage_error(msg: str):
    _eprint(f"error: {msg}")
    raise SystemExit(2)


def _parse_set(text: str) -> tuple[int, ...]:
    try:
        elems = tuple(sorted(int(x) for x in text.replace(" ", "").split(",") if x != ""))
    except ValueError:
        _usage_error(f"cannot parse set {text!r}; expected comma-separated integers")
    if not elems:
        _usage_error("empty set")
    return elems


def _require_sidon(elems) -> tuple[int, ...]:
    if not is_sidon(elems):
        _usage_error(f"{sorted(elems)} is not a Sidon set")
    return elems


def _mismatch_exit(failures) -> int:
    """Print one MISMATCH line per failure on stderr; the --check exit code, 1 if any."""
    for f in failures:
        _eprint(f"MISMATCH: {f}")
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# Subcommand implementations.


def _cmd_build_cache(args) -> int:
    t0 = time.monotonic()
    built = cache.build_pds_cache(args.q_max, args.data_root, progress=_eprint if args.verbose else None)
    present = sum(1 for q in range(2, args.q_max + 1) if is_prime_power(q))
    _eprint(f"built {built} new entries in {time.monotonic() - t0:.1f}s")
    print(f"{present} prime powers q <= {args.q_max} cached")
    return 0


def _cmd_singer(args) -> int:
    q = args.q
    if is_prime_power(q) is None:
        _usage_error(f"{q} is not a prime power")
    if args.method in ("trace", "both"):
        spds = singer_pds_trace(q)
        print(f"q={q} v={spds.v} method={spds.method} B={list(spds.elems)}")
    if args.method in ("recurrence", "both"):
        coeffs = find_primitive_coeffs(q)
        rpds = singer_pds_recurrence(q, coeffs)
        print(
            f"q={q} v={rpds.v} method={rpds.method} "
            f"coeffs=({coeffs.a1},{coeffs.a2},{coeffs.a3}) B={list(rpds.elems)}"
        )
    if args.method == "both":
        witness = affine_equivalent(spds.v, spds.elems, rpds.elems)
        if witness is None:
            print("constructions NOT affine-equivalent")
            return 1
        print(f"constructions agree: recurrence = {witness[0]}*trace + {witness[1]} mod {spds.v}")
    return 0


def _cmd_check(args) -> int:
    s = _require_sidon(_parse_set(args.set))
    src = orbit.PdsSource(args.data_root)
    pipeline.require_cache(src, args.q_max)
    report = orbit.fast_check(s, args.q_max, src)
    if report.extends:
        w = report.witness
        print(
            f"extends: q={w.q} v={w.v} a={w.a} b={w.b} rigor={orbit.rigor_class(w.q)} "
            f"image={list(w.image)}"
        )
    else:
        print(f"non-extending for prime powers q <= {args.q_max}")
        print(f"checked {len(report.checked)} orders; skipped {len(report.skipped)}")
    if args.verbose:
        for q, reason in report.skipped:
            if reason != "not prime power":
                _eprint(f"  skip q={q}: {reason}")
    return 0


def _cmd_triple_verify(args) -> int:
    budget = dfs.DfsBudget(time_limit_s=args.budget_seconds)
    verdicts = pipeline.triple_verify(
        args.q_max_fast, args.q_lo, args.q_hi, budget, source=orbit.PdsSource(args.data_root),
        progress=_eprint if args.verbose else None,
    )
    failures = []
    for v in verdicts:
        m3 = v.method3
        m3_status = (
            "proven-no-extension" if m3.no_extension_proven
            else ("extends" if m3.extends else "incomplete")
        )
        print(
            f"{v.candidate.label}: non_extending={v.non_extending} "
            f"affine_scan_extends={v.method1.extends} "
            f"orbit_crosscheck_agree={v.method2_agree} dfs={m3_status}"
        )
        if v.is_control:
            if not (v.method1.extends or v.method3.extends):
                failures.append(f"{v.candidate.label}: control failed to extend")
            expected_q = pipeline.REFERENCE_CONTROL_WITNESS.get(v.candidate.elems)
            if expected_q is not None and v.method1.extends and v.method1.witness.q != expected_q:
                failures.append(
                    f"{v.candidate.label}: first witness q={v.method1.witness.q}, expected {expected_q}"
                )
        else:
            if not v.non_extending or not v.method2_agree or not m3.no_extension_proven:
                failures.append(f"{v.candidate.label}: expected a fully concordant non-extension")
    return _mismatch_exit(failures) if args.check else 0


def _cmd_independent_check(args) -> int:
    budget = dfs.DfsBudget(time_limit_s=args.budget_seconds)
    candidates = (
        [_require_sidon(_parse_set(args.set))]
        if args.set
        else [c.elems for c in pipeline.BASE_CANDIDATES]
    )
    failures = []
    for s in candidates:
        runs = []
        for run in dfs.independent_runs(s, args.q_lo, args.q_hi, budget):
            if not runs:  # the q range is checked before the first run: a bad one prints nothing
                print(f"=== S = {s} ===")
            runs.append(run)
            if run.status == dfs.FOUND:
                print(f" q={run.q}, v={run.v}: EXTENDS via B={list(run.pds)}")
            elif run.status == dfs.EXHAUSTED:
                print(f" q={run.q}, v={run.v}: NO extension (exhausted)")
            elif run.status == dfs.TIMEOUT:
                print(f" q={run.q}, v={run.v}: timeout")
            elif args.verbose:
                print(f" q={run.q}, v={run.v}: skipped ({run.status})")
            sys.stdout.flush()  # each order's line is out before the next search starts
            if run.status != dfs.FOUND and args.verbose:
                _eprint(f"   q={run.q}: {run.elapsed:.2f}s, {run.nodes} nodes")
        rep = dfs.IndependentReport(s, tuple(runs))
        if rep.extends:
            found = next(r for r in rep.runs if r.status == dfs.FOUND)
            print(f" conclusion: extends at v={found.v}")
            if not args.set:
                failures.append(f"S = {rep.seed}: base candidate extends at v={found.v}")
        elif rep.no_extension_proven:
            print(
                f" conclusion: NO extension to any PDS with q in [{args.q_lo}, {args.q_hi}] "
                f"(exhaustive, all v including non-prime-power orders)"
            )
        else:
            reason = ("timeouts present" if any(r.status == dfs.TIMEOUT for r in rep.runs)
                      else f"every order in [{args.q_lo}, {args.q_hi}] was skipped")
            print(f" conclusion: INCONCLUSIVE ({reason})")
            failures.append(f"S = {rep.seed}: inconclusive ({reason})")
        sys.stdout.flush()
    return _mismatch_exit(failures) if args.check else 0


def _density_row_line(row: pipeline.DensityRow) -> str:
    predicted = "" if row.predicted is None else f" {row.predicted:>10}"
    return f"{row.n_max:>4} {row.total:>12} {row.extending:>10} {row.non_extending:>14}{predicted}"


_DENSITY_HEADER = f"{'N':>4} {'total':>12} {'extending':>10} {'non-extending':>14} {'4*fl(N/11)':>10}"


def _check_density_row(row: pipeline.DensityRow, records, failures):
    ref = pipeline.REFERENCE_DENSITY.get(row.n_max)
    if ref is None:
        return
    if (row.total, row.extending, row.non_extending) != ref:
        failures.append(
            f"N={row.n_max}: got {(row.total, row.extending, row.non_extending)}, expected {ref}"
        )
    comp = pipeline.completeness_check(row.n_max, records)
    if not comp.ok:
        failures.append(
            f"N={row.n_max}: non-extenders differ from the dilation family "
            f"(missing {comp.missing}, unexpected {comp.unexpected})"
        )


def _cmd_density(args) -> int:
    """enumerate (one N, any size) and density-table (several N, size 4)."""
    if min(args.n_max) < 0:  # before any row is printed or file written
        _usage_error(f"N must be non-negative, got {min(args.n_max)}")
    src = orbit.PdsSource(args.data_root)
    failures: list[str] = []
    for i, n_max in enumerate(args.n_max):
        t0 = time.monotonic()
        row, records = pipeline.enumerate_sidon(n_max, args.size, args.q_max, source=src,
                                                progress=_eprint if args.verbose else None)
        _eprint(f"N={n_max} size={args.size} q_max={args.q_max}: {time.monotonic() - t0:.1f}s")
        path = cache.enumeration_path(n_max, args.size, args.q_max, args.data_root)
        cache.write_enumeration(records, path)
        _eprint(f"wrote {len(records)} records to {path}")
        if args.size == 4 and i == 0:
            print(_DENSITY_HEADER)
        print(_density_row_line(row))
        if args.check and args.size == 4:
            _check_density_row(row, records, failures)
    return _mismatch_exit(failures)


def _cmd_closure(args) -> int:
    s = _require_sidon(_parse_set(args.set))
    report = pipeline.superset_closure_check(s, args.size, args.range_max, args.q_max,
                                             source=orbit.PdsSource(args.data_root))
    count = len(report.supersets)
    print(
        f"base={list(report.base)} non_extending={report.precondition_ok} "
        f"supersets={count} all_non_extending={report.all_non_extending}"
    )
    if args.verbose:
        for sv in report.supersets:
            tag = f"extends at q={sv.q_witness}" if sv.extends else "non-extending"
            print(f"  {list(sv.elems)}: {tag}")
    for v in report.violations:
        print(f"VIOLATION: extending superset {list(v)} of a non-extending base")
    failures = []
    if args.check:
        ref = pipeline.REFERENCE_SUPERSET_COUNTS.get((report.base, args.size, args.range_max))
        if ref is not None and count != ref:
            failures.append(f"superset count {count} != {ref}")
        if report.violations:
            failures.append("closure violated")
    return 1 if _mismatch_exit(failures) or report.violations else 0


# ---------------------------------------------------------------------------
# Parser.


_GLOBAL_DEFAULTS = {
    "data_root": None,
    "budget_seconds": dfs.DfsBudget().time_limit_s,
    "check": False,
    "verbose": False,
}


def _build_parser() -> argparse.ArgumentParser:
    # the shared flags are accepted both before and after the subcommand;
    # SUPPRESS keeps a subparser from clobbering a value parsed at top level
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--data-root", default=argparse.SUPPRESS,
                        help="cache directory (default: $SIDONPDS_DATA_ROOT or ./data)")
    shared.add_argument("--budget-seconds", type=float, default=argparse.SUPPRESS,
                        help=f"DFS time budget per (set, modulus); default {_GLOBAL_DEFAULTS['budget_seconds']:g}")
    shared.add_argument("--jobs", type=int, default=argparse.SUPPRESS,
                        help="accepted for compatibility; has no effect")
    shared.add_argument("--check", action="store_true", default=argparse.SUPPRESS,
                        help="compare results against the reference counts; exit 1 on mismatch")
    shared.add_argument("--verbose", action="store_true", default=argparse.SUPPRESS,
                        help="progress detail on stderr")

    ap = argparse.ArgumentParser(
        prog="sidonpds",
        description="Singer perfect difference sets and Sidon-set extension checks.",
        parents=[shared],
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-cache", parents=[shared],
                       help="construct Singer PDSs for all prime powers up to q_max")
    p.add_argument("q_max", type=int)
    p.set_defaults(fn=_cmd_build_cache)

    p = sub.add_parser("singer", parents=[shared], help="print the Singer PDS for one prime power")
    p.add_argument("q", type=int)
    p.add_argument("--method", choices=("trace", "recurrence", "both"), default="trace")
    p.set_defaults(fn=_cmd_singer)

    p = sub.add_parser("check", parents=[shared], help="fast extension check of one Sidon set")
    p.add_argument("set", help="comma-separated integers, e.g. 0,1,3,11")
    p.add_argument("--q-max", type=int, default=317, dest="q_max")
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("triple-verify", parents=[shared],
                       help="verify the base candidates by three methods")
    p.add_argument("--q-max-fast", type=int, default=317, dest="q_max_fast")
    p.add_argument("--q-lo", type=int, default=2, dest="q_lo")
    p.add_argument("--q-hi", type=int, default=11, dest="q_hi")
    p.set_defaults(fn=_cmd_triple_verify)

    p = sub.add_parser("independent-check", parents=[shared], help="seeded DFS with no Singer input")
    p.add_argument("--set", default=None, help="check one set instead of the four candidates")
    p.add_argument("--q-lo", type=int, default=2, dest="q_lo")
    p.add_argument("--q-hi", type=int, default=11, dest="q_hi")
    p.set_defaults(fn=_cmd_independent_check)

    p = sub.add_parser("enumerate", parents=[shared],
                       help="classify all normalized Sidon sets in [0, N]")
    p.add_argument("n_max", type=int, nargs=1)
    p.add_argument("size", type=int)
    p.add_argument("q_max", type=int)
    p.set_defaults(fn=_cmd_density)

    p = sub.add_parser("density-table", parents=[shared], help="size-4 density rows for several N")
    p.add_argument("n_max", type=int, nargs="+")
    p.add_argument("--q-max", type=int, default=250, dest="q_max")
    p.set_defaults(fn=_cmd_density, size=4)

    p = sub.add_parser("closure", parents=[shared], help="classify all Sidon supersets of a set")
    p.add_argument("set")
    p.add_argument("size", type=int)
    p.add_argument("range_max", type=int)
    p.add_argument("--q-max", type=int, default=317, dest="q_max")
    p.set_defaults(fn=_cmd_closure)

    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    for key, value in _GLOBAL_DEFAULTS.items():
        if not hasattr(args, key):
            setattr(args, key, value)
    try:
        return args.fn(args)
    except (cache.CacheIntegrityError, pipeline.MissingCacheError) as exc:
        _eprint(f"error: {exc}")
        return 1
    except ValueError as exc:
        _eprint(f"error: {exc}")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
