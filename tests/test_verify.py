"""The invariant suite itself: a broken kernel must fail its checks."""
import numpy as np
import pytest

from hartman import _kernel, verify


def test_monotone_filtering_passes():
    result = verify.check_monotone_filtering()
    assert result.passed, result.line()


@pytest.mark.usefixtures("fresh_point_memos")
def test_nan_from_kernel_fails_checks(monkeypatch):
    """One NaN per kernel call reaches each check's running extreme: the
    check fails and reports nan instead of the extreme of the finite rest.
    In the phase check the NaN goes only into the FD stencils (the calls of
    fewer than 1,000 points, not the dense unwrap), where a stencil holding
    it must not be skipped as a resonance."""
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
    monkeypatch.setattr(verify._kernel, "scatter_grid",
                        lambda g, d, k: (one_nan if np.size(k) < 1000 else scatter_grid)(g, d, k))
    result = verify.check_phases_and_derivatives()
    assert not result.passed and result.detail["max FD rel err"] == "nan", result.line()


def test_crossings_match_scalar_bisection():
    """Bisecting every bracket at once gives the bits of bisecting one
    bracket at a time, one point per kernel call."""
    v0s = np.arange(-2.0, 0.0, 1e-3)
    vals = verify._simple_margin(v0s)
    want = []
    for i in np.nonzero(np.diff(np.sign(vals)))[0]:
        lo, hi, flo = v0s[i], v0s[i + 1], vals[i]
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            fm = verify._simple_margin(np.asarray(mid))
            if (fm > 0) == (flo > 0):
                lo, flo = mid, fm
            else:
                hi = mid
        want.append(0.5 * (lo + hi))
    assert len(want) == 3
    assert verify.find_simple_bound_crossings() == want
