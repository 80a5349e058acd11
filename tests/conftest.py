"""The one call-counting seam of the tests, and the hypothesis profile
that makes every run draw the same examples."""

from unittest import mock

import pytest
from hypothesis import settings

# a fixed example sequence and no example database: two runs test the same
# inputs; the tests' own max_examples still apply
settings.register_profile("reproducible", derandomize=True, database=None)
settings.load_profile("reproducible")


@pytest.fixture
def spy(monkeypatch):
    """spy(owner, name, side_effect=None) puts a mock with the signature of
    owner.name in its place for the test and returns it.  The mock calls
    side_effect, or the original when it is None, and keeps call_count and
    call_args_list."""
    def install(owner, name, side_effect=None):
        original = getattr(owner, name)
        fake = mock.create_autospec(original, side_effect=side_effect or original)
        monkeypatch.setattr(owner, name, fake)
        return fake
    return install
