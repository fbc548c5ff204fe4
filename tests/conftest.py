import pytest

from usets.catalog import default_catalog
from usets.verify import run_verification


@pytest.fixture(scope="session")
def catalog():
    """Shared catalog so each group's profile is computed once per run."""
    return default_catalog()


@pytest.fixture(scope="session")
def report():
    """One full verification run shared by the harness and acceptance tests."""
    return run_verification()
