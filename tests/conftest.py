"""The one call-counting seam of the tests."""

from unittest import mock

import pytest


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
