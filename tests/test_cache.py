import json

import pytest

from sidonpds.cache import (
    CacheIntegrityError,
    EnumerationRecord,
    build_pds_cache,
    enumeration_path,
    load_pds,
    pds_path,
    resolve_data_root,
    write_enumeration,
)
from sidonpds.sidon import Pds


def test_build_small_cache_counts(tmp_path):
    assert build_pds_cache(8, tmp_path) == 6  # q in {2, 3, 4, 5, 7, 8}
    files = sorted(p.name for p in (tmp_path / "pds_cache").iterdir())
    assert files == [f"pds_q{q}.json" for q in (2, 3, 4, 5, 7, 8)]


def test_build_is_idempotent_and_byte_stable(tmp_path):
    build_pds_cache(8, tmp_path)
    before = {q: pds_path(q, tmp_path).read_bytes() for q in (2, 3, 5, 8)}
    assert build_pds_cache(8, tmp_path) == 0
    path = pds_path(3, tmp_path)
    path.unlink()
    assert build_pds_cache(8, tmp_path) == 1  # only the deleted entry is rebuilt
    for q, data in before.items():
        assert pds_path(q, tmp_path).read_bytes() == data


def test_load_roundtrip_and_missing(tmp_path):
    build_pds_cache(5, tmp_path)
    entry = load_pds(3, tmp_path)
    assert entry is not None
    assert (entry.q, entry.v, entry.elems) == (3, 13, (0, 1, 3, 9))
    assert entry.method == "trace_zero"
    assert load_pds(6, tmp_path) is None  # not a prime power, never written
    assert load_pds(11, tmp_path) is None  # outside the built range


def test_load_rejects_tampered_residues(tmp_path):
    build_pds_cache(5, tmp_path)
    path = pds_path(3, tmp_path)
    data = json.loads(path.read_text())
    data["B"][-1] = (data["B"][-1] + 1) % data["v"]
    path.write_text(json.dumps(data) + "\n")
    with pytest.raises(CacheIntegrityError):
        load_pds(3, tmp_path)


def test_load_rejects_a_moved_residue_at_q_317(data_root, tmp_path):
    # one residue moved to an unused one, the file still sorted and distinct
    data = json.loads(pds_path(317, data_root).read_text())
    elems = data["B"]
    taken = set(elems)
    unused = next(r for r in range(data["v"]) if r not in taken)
    moved = sorted(set(elems[1:]) | {unused})
    assert len(moved) == len(elems) and moved != elems
    path = pds_path(317, tmp_path)
    path.parent.mkdir(parents=True)
    path.write_text(json.dumps(dict(data, B=elems)) + "\n")
    assert load_pds(317, tmp_path).elems == tuple(elems)
    path.write_text(json.dumps(dict(data, B=moved)) + "\n")
    with pytest.raises(CacheIntegrityError, match="not a perfect difference set"):
        load_pds(317, tmp_path)


def test_load_rejects_bad_json_and_bad_modulus(tmp_path):
    build_pds_cache(3, tmp_path)
    path = pds_path(2, tmp_path)
    path.write_text("{not json")
    with pytest.raises(CacheIntegrityError):
        load_pds(2, tmp_path)
    path.write_text(json.dumps({"q": 2, "v": 8, "method": "x", "B": [0, 1, 3]}) + "\n")
    with pytest.raises(CacheIntegrityError):
        load_pds(2, tmp_path)


@pytest.mark.parametrize("elems", [[0, 1, 3, 9], [-1, 0, 2]], ids=["above-v", "negative"])
def test_load_rejects_a_residue_outside_the_modulus(tmp_path, elems):
    # sorted and distinct, so only the range test catches it
    path = pds_path(2, tmp_path)
    path.parent.mkdir(parents=True)
    path.write_text(json.dumps({"q": 2, "v": 7, "method": "trace_zero", "B": elems}) + "\n")
    with pytest.raises(CacheIntegrityError, match="outside"):
        load_pds(2, tmp_path)


def test_build_replaces_an_out_of_range_entry(tmp_path):
    build_pds_cache(5, tmp_path)
    path = pds_path(2, tmp_path)
    path.write_text(json.dumps({"q": 2, "v": 7, "method": "trace_zero", "B": [0, 1, 3, 9]}) + "\n")
    assert build_pds_cache(5, tmp_path) == 1
    assert load_pds(2, tmp_path).elems == (1, 2, 4)


def test_build_replaces_corrupt_entry(tmp_path):
    build_pds_cache(3, tmp_path)
    pds_path(3, tmp_path).write_text("garbage")
    assert build_pds_cache(3, tmp_path) == 1
    assert load_pds(3, tmp_path) is not None


def test_build_rejects_bad_bound(tmp_path):
    with pytest.raises(ValueError):
        build_pds_cache(1, tmp_path)


def _parse(path):
    """The records of a JSONL file, by a plain json parse of each line."""
    return [EnumerationRecord(tuple(obj["set"]), obj["extends"], obj["q_witness"], obj["q_max"])
            for obj in map(json.loads, path.read_text().splitlines())]


def test_enumeration_roundtrip(tmp_path):
    records = [
        EnumerationRecord((0, 1, 3, 7), True, 3, 64),
        EnumerationRecord((0, 1, 3, 11), False, None, 64),
    ]
    path = tmp_path / "recs.jsonl"
    write_enumeration(records, path)
    assert _parse(path) == records


def test_enumeration_empty(tmp_path):
    path = tmp_path / "empty.jsonl"
    write_enumeration([], path)
    assert path.read_bytes() == b""
    assert _parse(path) == []


def test_enumeration_roundtrip_of_every_field_shape(tmp_path):
    # singleton, the empty set, null and integer witnesses, both verdicts
    records = [
        EnumerationRecord((5,), True, 2, 2),
        EnumerationRecord((), False, None, 317),
        EnumerationRecord((0, 1, 3, 11), False, None, 250),
        EnumerationRecord((0, 2, 7, 19, 26), True, 173, 250),
    ]
    path = tmp_path / "recs.jsonl"
    write_enumeration(records, path)
    assert _parse(path) == records


def test_enumeration_path_shape(tmp_path):
    p = enumeration_path(50, 4, 250, tmp_path)
    assert p.name == "size4_N50_qmax250_fast.jsonl"


def test_resolve_data_root_env(monkeypatch, tmp_path):
    monkeypatch.setenv("SIDONPDS_DATA_ROOT", str(tmp_path))
    assert resolve_data_root() == tmp_path
    monkeypatch.delenv("SIDONPDS_DATA_ROOT")
    assert str(resolve_data_root()) == "data"
    assert resolve_data_root("/x/y") == resolve_data_root("/x/y")


# Each of these loaded at one time, coerced with int() and str() into a
# valid-looking entry for q = 2.
NOT_JSON_INTEGERS = {
    "floats-and-strings": {"q": 2.4, "v": "7", "method": 5, "B": "013"},
    "float-residue": {"q": 2, "v": 7, "method": "trace_zero", "B": [0, 1.9, 3]},
    "bool-residue": {"q": 2, "v": 7, "method": "trace_zero", "B": [True, 2, 4]},
    "float-q": {"q": 2.0, "v": 7, "method": "trace_zero", "B": [1, 2, 4]},
    "string-v": {"q": 2, "v": "7", "method": "trace_zero", "B": [1, 2, 4]},
    "no-method": {"q": 2, "v": 7, "B": [1, 2, 4]},
    "int-method": {"q": 2, "v": 7, "method": 5, "B": [1, 2, 4]},
    "string-B": {"q": 2, "v": 7, "method": "trace_zero", "B": "124"},
    "not-an-object": [2, 7, "trace_zero", [1, 2, 4]],
}


def _write_entry(root, obj, q=2):
    path = pds_path(q, root)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj) + "\n")
    return path


@pytest.mark.parametrize("obj", NOT_JSON_INTEGERS.values(), ids=NOT_JSON_INTEGERS.keys())
def test_load_rejects_values_that_are_not_json_integers(tmp_path, obj):
    _write_entry(tmp_path, obj)
    with pytest.raises(CacheIntegrityError, match="malformed"):
        load_pds(2, tmp_path)


@pytest.mark.parametrize("obj", NOT_JSON_INTEGERS.values(), ids=NOT_JSON_INTEGERS.keys())
def test_build_replaces_an_entry_that_is_not_json_integers(tmp_path, obj):
    _write_entry(tmp_path, obj)
    assert build_pds_cache(2, tmp_path) == 1
    assert load_pds(2, tmp_path) == Pds(2, 7, (1, 2, 4), "trace_zero")
