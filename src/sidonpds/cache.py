"""On-disk cache of Singer perfect difference sets plus JSONL scan records.

Layout under a data root (flag, SIDONPDS_DATA_ROOT, or ./data):

    pds_cache/pds_q{q}.json         one entry per prime power q
    size{k}_N{N}_qmax{Q}_fast.jsonl one line per enumerated Sidon set

Cache entries are written with a fixed key order and sorted residues so a
rebuild produces byte-identical files; so are the JSONL records, which are
output for the reader: nothing in the package reads them back.  Every load
re-verifies the perfect difference property; a file that fails verification
raises instead of being silently skipped, since a scan with gaps would
weaken non-extension claims.
Writes go through a temp file and rename, so a crash never leaves a torn
entry behind.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import NamedTuple

from .fields import is_prime_power
from .sidon import Pds, verify_pds
from .singer import singer_pds_trace

DATA_ROOT_ENV = "SIDONPDS_DATA_ROOT"


class CacheIntegrityError(Exception):
    """A cache file exists but its contents fail validation."""


class EnumerationRecord(NamedTuple):
    """Classification of one enumerated Sidon set up to the scan bound q_max."""

    elems: tuple[int, ...]
    extends: bool
    q_witness: int | None
    q_max: int


def resolve_data_root(data_root=None) -> Path:
    if data_root is not None:
        return Path(data_root)
    env = os.environ.get(DATA_ROOT_ENV)
    if env:
        return Path(env)
    return Path("data")


def pds_path(q: int, data_root=None) -> Path:
    return resolve_data_root(data_root) / "pds_cache" / f"pds_q{q}.json"


def enumeration_path(n_max: int, size: int, q_max: int, data_root=None) -> Path:
    return resolve_data_root(data_root) / f"size{size}_N{n_max}_qmax{q_max}_fast.jsonl"


def _atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _entry_bytes(pds: Pds) -> str:
    obj = {"q": pds.q, "v": pds.v, "method": pds.method, "B": list(pds.elems)}
    return json.dumps(obj) + "\n"


def write_pds(pds: Pds, data_root=None) -> Path:
    path = pds_path(pds.q, data_root)
    _atomic_write(path, _entry_bytes(pds))
    return path


def load_pds(q: int, data_root=None) -> Pds | None:
    """Load and re-verify the cached entry for q; None if absent.

    Corrupt or inconsistent files raise CacheIntegrityError; a missing file
    is the only silent outcome.
    """
    path = pds_path(q, data_root)
    if not path.exists():
        return None
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise CacheIntegrityError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise CacheIntegrityError(f"{path}: malformed entry (not a JSON object)")
    entry_q, v, elems, method = (data.get(key) for key in ("q", "v", "B", "method"))
    # a float, a string or a bool (an int subclass) is not coerced: the file
    # is malformed, and build-cache rebuilds it
    if not (type(elems) is list and type(method) is str
            and all(type(x) is int for x in (entry_q, v, *elems))):
        raise CacheIntegrityError(f"{path}: malformed entry (q, v and B need JSON integers, method a string)")
    entry = Pds(q=entry_q, v=v, elems=tuple(elems), method=method)
    if entry.q != q:
        raise CacheIntegrityError(f"{path}: entry is for q={entry.q}, expected {q}")
    if entry.v != q * q + q + 1:
        raise CacheIntegrityError(f"{path}: v={entry.v} != q^2+q+1")
    if list(entry.elems) != sorted(set(entry.elems)):
        raise CacheIntegrityError(f"{path}: residues not sorted and distinct")
    if not all(0 <= x < entry.v for x in entry.elems):
        raise CacheIntegrityError(f"{path}: residues outside [0, {entry.v})")
    if not verify_pds(entry.elems, entry.v):
        raise CacheIntegrityError(f"{path}: residues are not a perfect difference set mod {entry.v}")
    return entry


def build_pds_cache(q_max: int, data_root=None, *, progress=None) -> int:
    """Ensure a cache entry exists for every prime power q <= q_max.

    Existing valid entries are left untouched; invalid ones are rebuilt.
    Returns the number of entries newly written.
    """
    if q_max < 2:
        raise ValueError(f"q_max must be >= 2, got {q_max}")
    built = 0
    for q in range(2, q_max + 1):
        if is_prime_power(q) is None:
            continue
        try:
            if load_pds(q, data_root) is not None:
                continue
        except CacheIntegrityError:
            pass  # rebuild over the bad file
        pds = singer_pds_trace(q)
        write_pds(pds, data_root)
        built += 1
        if progress is not None:
            progress(f"  built q={q}, v={pds.v}")
    return built


def write_enumeration(records, path) -> None:
    """Write records as JSONL, one self-contained object per line."""
    lines = []
    for rec in records:
        obj = {
            "set": list(rec.elems),
            "extends": rec.extends,
            "q_witness": rec.q_witness,
            "q_max": rec.q_max,
        }
        lines.append(json.dumps(obj))
    text = "".join(line + "\n" for line in lines)
    _atomic_write(Path(path), text)

