from itertools import count
from types import SimpleNamespace

import pytest

from sidonpds import dfs
from sidonpds.cache import build_pds_cache
from sidonpds.orbit import PdsSource

FULL_Q_MAX = 317


@pytest.fixture(scope="session")
def data_root(tmp_path_factory):
    """One shared cache of Singer PDSs for every prime power q <= 317."""
    root = tmp_path_factory.mktemp("pds_data")
    build_pds_cache(FULL_Q_MAX, root)
    return str(root)


@pytest.fixture(scope="session")
def source(data_root):
    return PdsSource(data_root)


@pytest.fixture
def counting_clock(monkeypatch):
    """A clock for the DFS that reads 0, 1, 2, ... one step per read.

    _search reads it once when it starts and once at each deadline check,
    every 256 nodes, so DfsBudget(k - 0.5) stops a search at its k-th check,
    on any machine.  Only the `time` that dfs sees is replaced: pytest's own
    clock keeps running.
    """
    reads = count()
    monkeypatch.setattr(dfs, "time", SimpleNamespace(monotonic=lambda: float(next(reads))))
