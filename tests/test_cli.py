import io
import json
import re
import sys
from pathlib import Path

import pytest

from sidonpds import dfs, pipeline
from sidonpds.cache import build_pds_cache, enumeration_path, pds_path
from sidonpds.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_build_cache_reports_counts(tmp_path, capsys):
    code, out1, err = run(capsys, "--data-root", str(tmp_path), "build-cache", "13")
    assert code == 0
    assert "9 prime powers q <= 13 cached" in out1  # q in {2,3,4,5,7,8,9,11,13}
    assert "built 9 new entries" in err
    code, out2, err = run(capsys, "--data-root", str(tmp_path), "build-cache", "13")
    assert code == 0
    assert out2 == out1  # machine output identical on re-run
    assert "built 0 new entries" in err


def test_singer_both_methods_agree(capsys, data_root):
    code, out, _ = run(capsys, "--data-root", data_root, "singer", "3", "--method", "both")
    assert code == 0
    assert "B=[0, 1, 3, 9]" in out
    assert "constructions agree" in out


def test_singer_rejects_non_prime_power(capsys, data_root):
    with pytest.raises(SystemExit) as exc:
        main(["--data-root", data_root, "singer", "6"])
    assert exc.value.code == 2
    assert "6 is not a prime power" in capsys.readouterr().err


EXTENDS_0_1_3_19 = "extends: q=37 v=1407 a=1124 b=532 rigor=hall image=[249, 532, 783, 1090]\n"


@pytest.mark.parametrize(
    "elems, expected",
    [
        ("0,1,3,19", EXTENDS_0_1_3_19),
        # every element shares the factor 3 with v = 57 and 183 at the
        # witness order, so both witnesses come from the coset path
        ("0,3,21,33", "extends: q=7 v=57 a=8 b=38 rigor=hall image=[5, 17, 35, 38]\n"),
        ("0,3,27,33", "extends: q=13 v=183 a=79 b=7 rigor=hall image=[7, 52, 61, 127]\n"),
        # sets whose least element is not 0: the witness maps the set given,
        # so 1124*{10,11,13,29} + 548 and 1*{5,6,8} + 3 are the images mod v
        ("10,11,13,29", "extends: q=37 v=1407 a=1124 b=548 rigor=hall image=[249, 532, 783, 1090]\n"),
        ("5,6,8", "extends: q=2 v=7 a=1 b=3 rigor=hall image=[1, 2, 4]\n"),
    ],
    ids=["0,1,3,19", "0,3,21,33", "0,3,27,33", "10,11,13,29", "5,6,8"],
)
def test_check_extending_set(capsys, data_root, elems, expected):
    code, out, _ = run(capsys, "--data-root", data_root, "check", elems, "--q-max", "64")
    assert code == 0
    assert out == expected


def test_check_non_extending_set(capsys, data_root):
    code, out, _ = run(capsys, "--data-root", data_root, "check", "0,1,3,11", "--q-max", "64")
    assert code == 0
    assert out == "non-extending for prime powers q <= 64\nchecked 24 orders; skipped 38\n"
    code, out, _ = run(capsys, "--data-root", data_root, "check", "1,2,4,8,13", "--q-max", "128")
    assert code == 0
    assert out == "non-extending for prime powers q <= 128\nchecked 41 orders; skipped 84\n"


def test_check_rejects_non_sidon(capsys, data_root):
    with pytest.raises(SystemExit) as exc:
        main(["--data-root", data_root, "check", "0,1,2,4"])
    assert exc.value.code == 2


def test_check_rejects_garbage_set(capsys, data_root):
    with pytest.raises(SystemExit) as exc:
        main(["--data-root", data_root, "check", "0,1,x"])
    assert exc.value.code == 2


def test_unknown_command_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_global_flags_accepted_after_subcommand(capsys, data_root):
    code, out, _ = run(capsys, "check", "0,1,3,19", "--q-max", "64", "--data-root", data_root)
    assert code == 0
    assert out == EXTENDS_0_1_3_19


def test_triple_verify_small_scope_check_mode(capsys, data_root):
    code, out, _ = run(
        capsys, "triple-verify", "--q-max-fast", "64", "--q-hi", "8", "--check",
        "--data-root", data_root,
    )
    assert code == 0
    lines = out.splitlines()
    assert sum("non_extending=True" in l for l in lines) == 4
    assert sum("non_extending=False" in l for l in lines) == 2  # the two controls


def test_triple_verify_check_prints_the_readme_verdicts(capsys, data_root):
    # the default ranges, as the README runs it: the last six golden lines
    golden = (Path(__file__).parent / "golden" / "readme_full.stdout").read_text()
    code, out, err = run(capsys, "--data-root", data_root, "triple-verify", "--check")
    assert (code, err) == (0, "")
    assert out == "".join(golden.splitlines(keepends=True)[-6:])


def exit_code(*argv) -> int:
    try:
        return main(list(argv))
    except SystemExit as exc:
        return exc.code


USAGE_ERRORS = [
    ("build-cache", "1"),
    ("singer", "6"),
    ("check", "0,1,2,4"),
    ("independent-check", "--set", "0,1,2"),
    ("enumerate", "10", "0", "13"),
    ("closure", "0,1,3,11", "4", "30"),
]

MISSING_CACHE = [
    ("check", "0,1,3,11", "--q-max", "13"),
    ("enumerate", "10", "4", "13"),
    ("density-table", "10", "--q-max", "13"),
    ("closure", "0,1,3,11", "5", "15", "--q-max", "13"),
    ("triple-verify", "--q-max-fast", "13"),
]


@pytest.mark.parametrize(
    "argv, cached, code",
    [pytest.param(a, True, 2, id="usage:" + a[0]) for a in USAGE_ERRORS]
    + [pytest.param(a, False, 1, id="no-cache:" + a[0]) for a in MISSING_CACHE],
)
def test_exit_codes(capsys, data_root, tmp_path, argv, cached, code):
    root = data_root if cached else str(tmp_path)
    assert exit_code("--data-root", root, "--jobs", "1", *argv) == code
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ("enumerate", "-3", "4", "13"),
    ("density-table", "20", "-3", "--q-max", "13"),
    ("independent-check", "--q-lo", "5", "--q-hi", "4"),
], ids=lambda argv: argv[0])
def test_usage_error_prints_no_row_and_writes_no_file(capsys, data_root, tmp_path, argv):
    # no row (a negative N would predict 4*floor(-3/11) = -4 sets) and no empty JSONL file
    (tmp_path / "pds_cache").symlink_to(f"{data_root}/pds_cache")
    assert exit_code("--data-root", str(tmp_path), *argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ")
    assert [p.name for p in tmp_path.iterdir()] == ["pds_cache"]


def test_missing_cache_names_build_command(tmp_path, capsys):
    code, _, err = run(capsys, "--data-root", str(tmp_path), "check", "0,1,3,11", "--q-max", "13")
    assert code == 1
    assert "build-cache 13" in err


def test_out_of_range_cache_entry_is_a_cache_error(tmp_path, capsys):
    build_pds_cache(5, tmp_path)
    pds_path(2, tmp_path).write_text(json.dumps({"q": 2, "v": 7, "method": "trace_zero", "B": [0, 1, 3, 9]}) + "\n")
    code, _, err = run(capsys, "--data-root", str(tmp_path), "check", "0,1,3", "--q-max", "5")
    assert code == 1
    assert "outside [0, 7)" in err


def test_check_verbose_lists_each_skip(capsys, data_root):
    code, out, err = run(capsys, "--data-root", data_root, "check", "0,3,9,33", "--q-max", "13", "--verbose")
    assert code == 0
    assert out == "non-extending for prime powers q <= 13\nchecked 5 orders; skipped 6\n"
    assert err == (
        "  skip q=3: S has collision mod 13\n"
        "  skip q=4: S has collision mod 21\n"
        "  skip q=7: S has collision mod 57\n"
    )


def test_triple_verify_requires_the_cache_at_its_enumeration_orders(tmp_path, capsys):
    # method 2 reads the cached PDS at q = 3, 4, 5, 7, 8 and 9 (v = 13, 21,
    # 31, 57, 73, 91)
    build_pds_cache(5, tmp_path)
    code, _, err = run(capsys, "triple-verify", "--q-max-fast", "5", "--q-hi", "5",
                       "--data-root", str(tmp_path))
    assert code == 1
    assert "build-cache 9" in err


def test_enumerate_writes_jsonl_and_is_deterministic(capsys, data_root, tmp_path, monkeypatch):
    # separate data root for outputs, reusing the session cache via symlink
    out_root = tmp_path / "data"
    out_root.mkdir()
    (out_root / "pds_cache").symlink_to(f"{data_root}/pds_cache")
    args = ("--data-root", str(out_root), "--jobs", "1", "enumerate", "12", "4", "64")
    code, out1, _ = run(capsys, *args)
    assert code == 0
    path = enumeration_path(12, 4, 64, out_root)
    blob1 = path.read_bytes()
    recs = [json.loads(line) for line in blob1.splitlines()]
    assert all(r["q_max"] == 64 for r in recs)
    assert recs[0]["set"] == [0, 1, 3, 7]  # first Sidon quadruple in lex order
    code, out2, _ = run(capsys, *args)
    assert out1 == out2
    assert path.read_bytes() == blob1


def test_enumerate_size3_is_informational(capsys, data_root):
    code, out, _ = run(capsys, "--check", "--data-root", data_root, "enumerate", "8", "3", "64")
    assert code == 0  # no reference counts for size 3, nothing to mismatch
    lines = [l for l in out.splitlines() if l.strip()]
    assert len(lines) == 1  # bare row, no size-4 header


def test_density_table_positions_columns(capsys, data_root):
    code, out, _ = run(capsys, "--data-root", data_root, "density-table", "10", "--q-max", "64")
    assert code == 0
    header, row = [l for l in out.splitlines() if l.strip()]
    assert header.split() == ["N", "total", "extending", "non-extending", "4*fl(N/11)"]
    assert row.split() == ["10", "50", "50", "0", "0"]


def test_independent_check_single_set(capsys, data_root):
    code, out, _ = run(
        capsys, "--data-root", data_root, "independent-check", "--set", "0,1,4,11", "--q-hi", "8"
    )
    assert code == 0
    assert "q=5, v=31: NO extension (exhausted)" in out
    assert "NO extension to any PDS with q in [2, 8]" in out


def test_independent_check_extending_set(capsys, data_root):
    code, out, _ = run(
        capsys, "--data-root", data_root, "independent-check", "--set", "0,1,3", "--q-hi", "4"
    )
    assert code == 0
    assert "EXTENDS" in out
    assert "conclusion: extends at v=7" in out


@pytest.mark.parametrize(
    "seed,q_hi,line",
    [
        ("0,1,4", "4", " q=3, v=13: EXTENDS via B=[0, 1, 4, 6]"),
        ("0,1,3,7", "8", " q=8, v=73: EXTENDS via B=[0, 1, 3, 7, 15, 31, 36, 54, 63]"),
    ],
)
def test_independent_check_pins_the_dfs_witness(capsys, data_root, seed, q_hi, line):
    # Witnesses found by the DFS (the seed is smaller than the target size),
    # captured before the search kernel moved to rotated masks.
    code, out, _ = run(
        capsys, "--data-root", data_root, "independent-check", "--set", seed, "--q-hi", q_hi
    )
    assert code == 0
    assert line in out.splitlines()


def test_closure_small(capsys, data_root):
    code, out, _ = run(
        capsys, "--data-root", data_root, "closure", "0,1,3,11", "5", "15", "--q-max", "250"
    )
    assert code == 0
    assert "non_extending=True" in out
    assert "all_non_extending=True" in out
    assert "VIOLATION" not in out


def test_closure_check_matches_reference_count(capsys, data_root):
    code, out, err = run(
        capsys, "--data-root", data_root, "closure", "0,1,3,11", "5", "30", "--q-max", "13",
        "--check",
    )
    assert code == 0
    assert "supersets=13" in out
    assert "MISMATCH" not in err


@pytest.mark.parametrize("check, code", [((), 0), (("--check",), 1)])
def test_triple_verify_prints_each_mismatch_only_under_check(capsys, data_root, check, code):
    # to q = 4 every order skips A and B (size, or a collision mod 13 and 21),
    # so the DFS proves nothing and no candidate is a concordant non-extension
    got, _, err = run(capsys, "--data-root", data_root, "triple-verify", "--q-max-fast", "64", "--q-hi", "4", *check)
    assert got == code
    labels = ("A", "B", "refl(A)", "refl(B)") if check else ()
    assert err.splitlines() == [f"MISMATCH: {x}: expected a fully concordant non-extension" for x in labels]


def test_check_exits_1_on_an_entry_that_is_not_json_integers(tmp_path, capsys):
    # int() would read this as the PDS (0, 1, 3) mod 7
    pds_path(2, tmp_path).parent.mkdir(parents=True)
    pds_path(2, tmp_path).write_text(json.dumps({"q": 2, "v": 7, "method": "trace_zero", "B": [0, 1.9, 3]}) + "\n")
    code, _, err = run(capsys, "--data-root", str(tmp_path), "check", "0,1,3", "--q-max", "2")
    assert code == 1
    assert "malformed entry" in err


@pytest.mark.parametrize("check, code", [((), 0), (("--check",), 1)])
def test_independent_check_says_when_every_order_was_skipped(capsys, check, code):
    # {0,1,3,11} is too large for q = 2 and collides mod 13 at q = 3
    got, out, err = run(capsys, "independent-check", "--set", "0,1,3,11", "--q-lo", "2", "--q-hi", "3", *check)
    assert got == code
    assert out == "=== S = (0, 1, 3, 11) ===\n conclusion: INCONCLUSIVE (every order in [2, 3] was skipped)\n"
    mismatch = ["MISMATCH: S = (0, 1, 3, 11): inconclusive (every order in [2, 3] was skipped)"]
    assert err.splitlines() == (mismatch if check else [])


def test_independent_check_says_when_a_run_timed_out(capsys):
    # the search of A at q = 11 takes 1,721 nodes; the deadline is read every 256
    code, out, err = run(capsys, "independent-check", "--set", "0,1,3,11", "--q-lo", "11", "--q-hi", "11",
                         "--budget-seconds", "0.001", "--check")
    assert code == 1
    assert out == (
        "=== S = (0, 1, 3, 11) ===\n q=11, v=133: timeout\n conclusion: INCONCLUSIVE (timeouts present)\n"
    )
    assert err.splitlines() == ["MISMATCH: S = (0, 1, 3, 11): inconclusive (timeouts present)"]


def test_independent_check_flags_a_base_candidate_that_extends(capsys, monkeypatch):
    # with --check an extending set is a mismatch only among the base candidates
    monkeypatch.setattr(pipeline, "BASE_CANDIDATES", (pipeline.Candidate((0, 1, 3), "x"),))
    code, out, err = run(capsys, "independent-check", "--q-hi", "2", "--check")
    assert code == 1
    assert out.endswith(" conclusion: extends at v=7\n")
    assert err.splitlines() == ["MISMATCH: S = (0, 1, 3): base candidate extends at v=7"]
    code, _, err = run(capsys, "independent-check", "--set", "0,1,3", "--q-hi", "2", "--check")
    assert (code, err) == (0, "")


def test_independent_check_writes_each_block_before_the_next_search(capsys, monkeypatch):
    argv = ["independent-check", "--q-lo", "5", "--q-hi", "5"]
    _, want, _ = run(capsys, *argv)
    # a buffered stdout: text reaches `written` only when it is flushed
    written = io.BytesIO()
    monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(written, encoding="utf-8"))
    search = dfs.find_pds_extension
    before = {}  # seed -> the stdout bytes written when its first search starts

    def spy(s, v, budget=None):
        before.setdefault(s, written.getvalue().decode())
        return search(s, v, budget)

    monkeypatch.setattr(dfs, "find_pds_extension", spy)
    assert main(argv) == 0
    sys.stdout.flush()
    seeds = [c.elems for c in pipeline.BASE_CANDIDATES]
    assert before == {s: want[:want.index(f"=== S = {s} ===")] for s in seeds}
    assert written.getvalue().decode() == want


def test_independent_check_writes_each_run_before_the_next_search(capsys, monkeypatch):
    argv = ["independent-check", "--q-lo", "5", "--q-hi", "6", "--verbose"]
    _, want, _ = run(capsys, *argv)
    # where each run's line ends in the full stdout, in run order
    ends, pos = [], 0
    for line in want.splitlines(keepends=True):
        pos += len(line)
        if line.startswith(" q="):
            ends.append(pos)
    written = io.BytesIO()  # a buffered stdout: text reaches it only when flushed
    monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(written, encoding="utf-8"))
    search = dfs.find_pds_extension
    seen = []  # (stdout flushed, stderr written) when each search starts

    def spy(s, v, budget=None):
        seen.append((written.getvalue().decode(), capsys.readouterr().err))
        return search(s, v, budget)

    monkeypatch.setattr(dfs, "find_pds_extension", spy)
    assert main(argv) == 0
    assert len(seen) == len(ends) == 8  # four seeds, two orders each, every one searched
    for k, (out, err) in enumerate(seen):
        assert want.startswith(out) and len(out) >= (ends[k - 1] if k else 0), k
        assert err.count(" nodes\n") == (1 if k else 0), k  # the previous run's --verbose line


def test_nan_budget_is_a_usage_error(capsys):
    assert main(["--budget-seconds", "nan", "independent-check"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_build_cache_verbose_names_each_order(tmp_path, capsys):
    code, _, err = run(capsys, "--data-root", str(tmp_path), "build-cache", "13", "--verbose")
    assert code == 0
    *built, summary = err.splitlines()
    assert built == [f"  built q={q}, v={q * q + q + 1}" for q in (2, 3, 4, 5, 7, 8, 9, 11, 13)]
    assert summary.startswith("built 9 new entries in ")


def test_enumerate_verbose_counts_every_500_sets(capsys, data_root, tmp_path):
    out_root = tmp_path / "data"
    out_root.mkdir()
    (out_root / "pds_cache").symlink_to(f"{data_root}/pds_cache")
    code, _, err = run(capsys, "--data-root", str(out_root), "enumerate", "30", "4", "250", "--verbose")
    assert code == 0
    lines = err.splitlines()
    assert lines[:6] == [f"  {done}/3254 sets classified" for done in range(500, 3254, 500)]
    assert lines[6].startswith("N=30 size=4 q_max=250: ")
    assert lines[7] == f"wrote 3254 records to {enumeration_path(30, 4, 250, out_root)}"


def test_triple_verify_verbose_reports_each_enumeration_and_candidate(capsys, data_root):
    code, _, err = run(capsys, "--data-root", data_root, "triple-verify", "--q-max-fast", "64", "--verbose")
    assert code == 0
    assert err.splitlines() == [
        "enumerated v=13: 52 perfect difference sets",
        "enumerated v=21: 42 perfect difference sets",
        "enumerated v=31: 310 perfect difference sets",
        "enumerated v=57: 684 perfect difference sets",
        "enumerated v=73: 584 perfect difference sets",
        "enumerated v=91: 1092 perfect difference sets",
        "A: non_extending=True",
        "B: non_extending=True",
        "refl(A): non_extending=True",
        "refl(B): non_extending=True",
        "control {0,1,3}: non_extending=False",
        "control {0,1,3,19}: non_extending=False",
    ]


def test_readme_full_reproduction_is_the_ci_step():
    # the README block and the CI step that diffs its stdout against
    # tests/golden/readme_full.stdout list the same commands, in order
    root = Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text()
    block = readme.split("Full reproduction", 1)[1].split("```\n", 2)[1]
    documented = [line.split("#", 1)[0].split(None, 1)[1].strip() for line in block.splitlines()]
    workflow = (root / ".github" / "workflows" / "tier1.yml").read_text()
    step = workflow.split("- name: README full reproduction", 1)[1].split("- name:", 1)[0]
    ran = re.findall(r'python -m sidonpds\.cli --data-root "\$root" (.+)', step)
    assert len(documented) == 10
    assert documented == [cmd.strip() for cmd in ran]
