import pytest
from hypothesis import settings

from missingdigit import PrimeTables

# Property tests draw the same examples on every run.
settings.register_profile(
    "missingdigit", derandomize=True, deadline=None, max_examples=25, database=None
)
settings.load_profile("missingdigit")


@pytest.fixture(scope="session")
def tables():
    """Shared table comfortably past every unit-test range (incl. 7^6)."""
    return PrimeTables(200_000)
