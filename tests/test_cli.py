import json

import pytest

from sidonpds.cache import enumeration_path
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


def test_check_extending_set(capsys, data_root):
    code, out, _ = run(capsys, "--data-root", data_root, "check", "0,1,3,19", "--q-max", "64")
    assert code == 0
    assert "extends: q=37" in out
    assert "rigor=hall" in out


def test_check_non_extending_set(capsys, data_root):
    code, out, _ = run(capsys, "--data-root", data_root, "check", "0,1,3,11", "--q-max", "64")
    assert code == 0
    assert "non-extending for prime powers q <= 64" in out


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
    assert "extends: q=37" in out


def test_triple_verify_small_scope_check_mode(capsys, data_root):
    code, out, _ = run(
        capsys, "triple-verify", "--q-max-fast", "64", "--q-hi", "8", "--check",
        "--data-root", data_root,
    )
    assert code == 0
    lines = out.splitlines()
    assert sum("non_extending=True" in l for l in lines) == 4
    assert sum("non_extending=False" in l for l in lines) == 2  # the two controls


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


def test_missing_cache_names_build_command(tmp_path, capsys):
    code, _, err = run(capsys, "--data-root", str(tmp_path), "check", "0,1,3,11", "--q-max", "13")
    assert code == 1
    assert "build-cache 13" in err


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
