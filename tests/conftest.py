import pytest

from quanvrob import quanv


@pytest.fixture(autouse=True)
def empty_quanv_memo():
    """Start every test with no stored quanv encodings, so that no result rests on another test's."""
    quanv.clear_memo()
