import pytest

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
