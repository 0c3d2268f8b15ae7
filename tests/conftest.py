"""Fixtures shared by the test modules."""
import pytest

from hartman import delays


def _clear_point_memos():
    delays._phase_point.cache_clear()
    delays._triplet_point.cache_clear()


@pytest.fixture
def fresh_point_memos():
    """Empty the one-point kernel memos of `hartman.delays` before and after
    the test.  A test that patches a `_kernel` entry needs this: a point
    remembered before the patch would hide it from the patched call, and one
    remembered under the patch would outlive it into later tests."""
    _clear_point_memos()
    yield
    _clear_point_memos()
