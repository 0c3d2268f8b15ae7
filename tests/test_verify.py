"""The invariant suite itself: a broken kernel must fail its checks."""
import numpy as np

from hartman import _kernel, verify


def test_monotone_filtering_passes():
    result = verify.check_monotone_filtering()
    assert result.passed, result.line()


def test_nan_from_kernel_fails_checks(monkeypatch):
    """One NaN per kernel call reaches each check's running extreme: the
    check fails and reports nan instead of the extreme of the finite rest."""
    scatter_grid = _kernel.scatter_grid

    def one_nan(g, d, k):
        out = tuple(np.array(x) for x in scatter_grid(g, d, k))
        for x in out:
            x.flat[x.size // 2] = np.nan
        return out

    monkeypatch.setattr(verify._kernel, "scatter_grid", one_nan)
    for check in (verify.check_unitarity_and_symmetry, verify.check_bound_chain):
        result = check()
        assert not result.passed, result.line()
        assert "nan" in result.detail.values(), result.line()
