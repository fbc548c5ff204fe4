import os

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


@pytest.fixture
def step_summary():
    """Report a line that no assertion gates: appended to the CI run's step
    summary, ``$GITHUB_STEP_SUMMARY``, when it is set, and printed
    otherwise, so ``pytest -s`` shows it."""
    path = os.environ.get("GITHUB_STEP_SUMMARY")

    def write(line):
        if path:
            with open(path, "a", encoding="utf-8") as summary:
                summary.write(line + "\n")
        else:
            print(line)
    return write
