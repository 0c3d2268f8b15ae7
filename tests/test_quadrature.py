"""Adaptive panel quadrature and the improper-endpoint handling."""
import math

import numpy as np
import pytest
from scipy.special import roots_legendre

from hartman import quadrature
from hartman.errors import ConvergenceError, ThresholdDivergenceError
from hartman.quadrature import _BLOCK_PANELS, _lockstep, adaptive_quad, integral_to_zero


def _counting(f):
    """f and the list of batch sizes it has been called with."""
    calls = []

    def counted(x):
        calls.append(len(x))
        return f(x)

    return counted, calls


def _logging_evaluate(monkeypatch):
    """The (lo, hi) panels of every `quadrature._evaluate` call, one list per
    call, recorded while the real `_evaluate` runs."""
    asked, inner = [], quadrature._evaluate

    def evaluate(f, lo, hi, owner):
        asked.append(list(zip(lo.tolist(), hi.tolist())))
        return inner(f, lo, hi, owner)

    monkeypatch.setattr(quadrature, "_evaluate", evaluate)
    return asked


def _live_panels(asked):
    """The live panels of one integral after the `_evaluate` calls `asked`:
    the seeds of the first call and the halves of each later one, less each
    panel bisected, sorted."""
    made = {panel for call in asked for panel in call}
    return sorted(made - {(left[0], right[1]) for left, right in asked[1:]})


def _halvings_reference(f, eps, *, rel_tol, reference):
    """The per-halving algorithm `integral_to_zero` must reproduce bit for
    bit, and the independent reference of the packet integrals' closed-form
    tail: one `adaptive_quad` over [lo/2, lo] per halving of the cutoff, with
    the same scale, tolerances and end rule.  Returns (value, halvings)."""
    total = prev = 0.0
    lo = eps
    for halvings in range(1, 61):
        scale = max(abs(reference + total), abs(reference), 1e-300)
        res = adaptive_quad(f, lo / 2.0, lo, rel_tol=1e-6, abs_tol=1e-14 * scale)
        total += res.value
        if abs(res.value) <= 0.5 * rel_tol * scale and prev <= rel_tol * scale:
            return total, halvings
        prev = abs(res.value)
        lo /= 2.0
    raise ThresholdDivergenceError("diverges", estimate=reference + total, error=prev)


def test_kronrod_pair_is_exact_to_its_degrees():
    """The hard-coded pair: G7's nodes and weights are Gauss-Legendre's, on
    the odd Kronrod nodes, and K15 and G7 integrate x^j over [-1, 1] exactly
    up to degrees 22 and 13."""
    x, wk = quadrature._NODES, quadrature._WEIGHTS_K
    wg = wk - quadrature._WEIGHTS_KG
    gx, gw = roots_legendre(7)
    assert np.allclose(x[1::2], gx[::-1], rtol=0, atol=1e-15)
    assert np.allclose(wg[1::2], gw[::-1], rtol=0, atol=1e-15)
    assert not wg[::2].any()
    for j in range(23):
        exact = 2.0 / (j + 1) if j % 2 == 0 else 0.0
        assert abs(wk @ x**j - exact) <= 1e-15
        if j <= 13:
            assert abs(wg @ x**j - exact) <= 1e-15


def test_smooth_integrand_exact():
    res = adaptive_quad(np.sin, 0.0, math.pi, rel_tol=1e-12)
    assert res.value == pytest.approx(2.0, rel=1e-12)


def test_gaussian_with_breakpoint():
    f, calls = _counting(lambda x: np.exp(-((x - 3.0) ** 2)))
    exact = math.sqrt(math.pi) / 2.0 * (math.erf(3.0) + math.erf(7.0))
    res = adaptive_quad(f, 0.0, 10.0, rel_tol=1e-10, breakpoints=[3.0])
    assert res.value == pytest.approx(exact, rel=1e-10)
    # one call for the 2 seed panels, then one per bisection for its two
    # halves: 2 panels of 15 nodes each time
    assert res.n_panels > 2
    assert calls == [2 * 15] * (res.n_panels - 1)


def test_kinked_integrand():
    f = lambda x: np.where(x < 1.0, x, np.exp(-5.0 * (x - 1.0)))
    exact = 0.5 + (1.0 - math.exp(-5.0 * 9.0)) / 5.0
    res = adaptive_quad(f, 0.0, 10.0, rel_tol=1e-10, breakpoints=[1.0])
    assert res.value == pytest.approx(exact, rel=1e-9)


def test_oscillatory_integrand():
    f = lambda x: np.sin(40.0 * x) * np.exp(-x)
    exact = 40.0 / (1.0 + 1600.0) * (1.0 - math.exp(-2.0 * math.pi * 5.0 / 40.0) * 0)
    # exact antiderivative evaluated on [0, 8]
    def F(x):
        return -math.exp(-x) * (math.sin(40 * x) + 40 * math.cos(40 * x)) / 1601.0
    f, calls = _counting(f)
    res = adaptive_quad(f, 0.0, 8.0, rel_tol=1e-10)
    assert res.value == pytest.approx(F(8.0) - F(0.0), abs=1e-11)
    # one call for the seed panel, then one per bisection
    assert len(calls) == 1 + (res.n_panels - 1)


def test_panel_budget_error_carries_estimate(monkeypatch):
    monkeypatch.setattr(quadrature, "_MAX_PANELS", 8)
    f = lambda x: np.abs(np.sin(1.0 / np.maximum(x, 1e-12)))
    with pytest.raises(ConvergenceError, match="within 8 panels") as err:
        adaptive_quad(f, 1e-9, 1.0, rel_tol=1e-13)
    assert err.value.estimate is not None


def test_invalid_interval():
    with pytest.raises(ValueError):
        adaptive_quad(np.sin, 1.0, 1.0)


def test_integral_to_zero_linear_endpoint():
    # integrand ~ p near 0: integral over (0, eps] = eps^2/2
    main = adaptive_quad(lambda p: p, 0.1, 1.0, rel_tol=1e-12).value
    f, calls = _counting(lambda p: p)
    low = integral_to_zero(f, 0.1, rel_tol=1e-10, reference=main)
    assert main + low == pytest.approx(0.5, rel=1e-9)
    # bitwise the per-halving result, one integrand call per halving (the
    # rules are exact on a linear integrand, so no halving refines)
    want, halvings = _halvings_reference(lambda p: p, 0.1, rel_tol=1e-10, reference=main)
    assert halvings > 8
    assert low == want
    assert len(calls) == halvings


def test_integral_to_zero_refines_inside_a_halving():
    # a kink in the 11th halving's panel, so that one halving refines
    kink = 0.1 * 2.0**-10 * 1.3
    f = lambda p: np.abs(p - kink)
    main = adaptive_quad(f, 0.1, 1.0, rel_tol=1e-12).value
    counted, calls = _counting(f)
    low = integral_to_zero(counted, 0.1, rel_tol=1e-12, reference=main)
    want, halvings = _halvings_reference(f, 0.1, rel_tol=1e-12, reference=main)
    assert halvings > 11
    assert len(calls) > halvings
    assert low == want
    assert low == pytest.approx(0.005 - 0.1 * kink + kink * kink, rel=1e-9)


def test_integral_to_zero_flat_endpoint_converges():
    # bounded integrand: converges even though it does not vanish at 0
    main = adaptive_quad(lambda p: np.ones_like(p), 0.25, 1.0, rel_tol=1e-12).value
    low = integral_to_zero(
        lambda p: np.ones_like(p), 0.25, rel_tol=1e-9, reference=main
    )
    assert main + low == pytest.approx(1.0, rel=1e-8)
    want, _ = _halvings_reference(
        lambda p: np.ones_like(p), 0.25, rel_tol=1e-9, reference=main
    )
    assert low == want


def test_integral_to_zero_scale_follows_running_total():
    # reference 0: each halving's tolerances scale with the total so far, so
    # the tiny kinked tail below 0.125 converges after three halvings, the
    # third of which bisects around the kink at 0.04 to the scaled abs_tol
    f = lambda p: np.where(p > 0.125, 1.0, 1e-10 * np.abs(p - 0.04))
    counted, calls = _counting(f)
    got = integral_to_zero(counted, 0.25, rel_tol=1e-9, reference=0.0)
    want, halvings = _halvings_reference(f, 0.25, rel_tol=1e-9, reference=0.0)
    assert got == want
    assert halvings == 3 and calls == [15, 15, 15, 30, 30, 30]


def test_integral_to_zero_detects_log_divergence():
    main = adaptive_quad(lambda p: 1.0 / p, 0.1, 1.0, rel_tol=1e-12).value
    with pytest.raises(ThresholdDivergenceError) as err:
        integral_to_zero(lambda p: 1.0 / p, 0.1, rel_tol=1e-10, reference=main)
    with pytest.raises(ThresholdDivergenceError) as want:
        _halvings_reference(lambda p: 1.0 / p, 0.1, rel_tol=1e-10, reference=main)
    assert (err.value.estimate, err.value.error) == (want.value.estimate, want.value.error)


def test_integral_to_zero_converges_below_a_narrow_peak():
    """p/(p^2 + e^2) grows like 1/p down to e = eps 2^-10, as the time moment
    of a well close to a bound-state threshold does, and then vanishes
    linearly: ten halvings of nearly equal increments, then convergence."""
    eps = 0.1
    e2 = (eps * 2.0**-10) ** 2
    f = lambda p: p / (p * p + e2)
    got = integral_to_zero(f, eps, rel_tol=1e-10, reference=0.0)
    want, halvings = _halvings_reference(f, eps, rel_tol=1e-10, reference=0.0)
    assert got == want
    assert halvings > 20
    assert got == pytest.approx(0.5 * math.log1p(eps * eps / e2), rel=1e-9)


def test_refine_restarts_from_its_carried_panels(monkeypatch):
    """A refinement of component 0 evaluates every component on its panels;
    the refinement of component 1 started on its final panels, with
    component 1 equal to component 0, is already converged: it bisects
    nothing and ends on the same panels with, up to the order of the sums,
    the same value."""
    f = lambda x: np.sin(40.0 * x) * np.exp(-x)
    want = adaptive_quad(f, 0.0, 8.0, rel_tol=1e-10, breakpoints=[2.0])
    asked = _logging_evaluate(monkeypatch)
    (res, again), = _lockstep(lambda x, _: np.stack([f(x), f(x)]), [(0.0, 8.0, [2.0])],
                              rel_tol=1e-10, gate=lambda i, outcome: None)
    assert res == want and res.n_panels > 20
    assert len(asked) == 1 + (res.n_panels - 2)  # the 2 seeds, then component 0's bisections
    panels = _live_panels(asked)
    assert len(panels) == again.n_panels == res.n_panels
    assert [lo for lo, _ in panels[1:]] == [hi for _, hi in panels[:-1]]
    assert (panels[0][0], panels[-1][1]) == (0.0, 8.0)
    assert again.value == pytest.approx(res.value, rel=1e-14, abs=1e-16)
    assert again.error == pytest.approx(res.error, rel=1e-12)


def test_refine_switches_to_component_1_errors(monkeypatch):
    """Component 1 restarts from component 0's final panels and bisects by its
    own errors: here its worst panel is a seed that component 0 never
    touched.  It ends on the panels a lone refinement of component 1 from
    the same panels ends on."""
    c0 = lambda x: np.exp(-200.0 * (x - 0.5) ** 2)
    c1 = lambda x: np.exp(-x) + 0.3 * np.sin(25.0 * x) * np.exp(-4.0 * (x - 2.5) ** 2)
    asked = _logging_evaluate(monkeypatch)
    (res, again), = _lockstep(lambda x, _: np.stack([c0(x), c1(x)]), [(0.0, 3.0, [1.0, 2.0])],
                              rel_tol=1e-10, gate=lambda i, outcome: None)
    # the 3 seeds and component 0's bisections, then component 1's
    first = _live_panels(asked[:1 + res.n_panels - 3])
    both = _live_panels(asked)
    assert len(first) == res.n_panels and len(both) == again.n_panels
    asked.clear()
    (alone,), = _lockstep(lambda x, _: np.stack([c1(x), c0(x)]),
                          [(0.0, 3.0, [lo for lo, _ in first][1:])], rel_tol=1e-10)
    assert (2.0, 3.0) in first and (2.0, 3.0) not in both
    assert both == _live_panels(asked)
    assert again.value == pytest.approx(alone.value, rel=1e-14)


def test_refine_bisects_equal_errors_first_made_first(monkeypatch):
    """Among panels of equal error the one made first is bisected first: the
    seed [0, 1], then the seed [1, 2] before [0, 1]'s children, which are
    bisected left before right.  Every panel here has error 0.25 exactly."""
    asked = []

    def evaluate(f, lo, hi, owner):  # each panel: value 0.5, error 0.25
        asked.append((lo, hi))
        return np.stack([np.full((1, len(lo)), 0.5), np.full((1, len(lo)), 0.25)])

    monkeypatch.setattr(quadrature, "_evaluate", evaluate)
    monkeypatch.setattr(quadrature, "_MAX_PANELS", 7)
    (out,), = _lockstep(None, [(0.0, 2.0, [1.0])], rel_tol=1e-12)
    assert isinstance(out, ConvergenceError)
    (lo, hi), *halves = asked
    assert lo.tolist() == [0.0, 1.0] and hi.tolist() == [1.0, 2.0]
    for lo, hi in halves:
        assert len(lo) == 2 and lo[1] == hi[0]  # the two halves of one panel, left first
    assert [(lo[0], hi[-1]) for lo, hi in halves] == [
        (0.0, 1.0), (1.0, 2.0), (0.0, 0.5), (0.5, 1.0), (1.0, 1.5)]


def test_all_nan_integrand_raises():
    f = lambda x: np.full_like(x, np.nan)
    with pytest.raises(ConvergenceError, match="not finite") as err:
        adaptive_quad(f, 0.0, 1.0)
    assert math.isnan(err.value.estimate)


def test_half_nan_integrand_raises():
    f = lambda x: np.where(x < 0.5, 1.0, np.nan)
    with pytest.raises(ConvergenceError, match="not finite"):
        adaptive_quad(f, 0.0, 1.0)
    # also when the NaN half is its own panel from the start
    with pytest.raises(ConvergenceError, match="not finite"):
        adaptive_quad(f, 0.0, 1.0, breakpoints=[0.5])


def test_infinite_integrand_raises():
    f = lambda x: np.where(x < 0.5, 1.0, np.inf)
    with pytest.raises(ConvergenceError, match="not finite"), np.errstate(invalid="ignore"):
        adaptive_quad(f, 0.0, 1.0)


def test_lockstep_matches_integrals_run_alone():
    """Integrals run in lockstep give bitwise what each gives alone, an
    integral that raises gets its exception in its place, and every
    integrand call stays within one block of nodes."""
    centers = np.linspace(0.5, 9.5, 60)
    sizes = []

    def f(x, owner):
        sizes.append(len(x))
        return np.exp(-3.0 * (x - centers[owner % 60]) ** 2)

    intervals = [(0.0, 10.0, [c]) for c in centers]
    intervals[7] = (1.0, 1.0, ())
    got = [out for out, in _lockstep(f, intervals, rel_tol=1e-10)]
    assert isinstance(got[7], ValueError)
    for i, c in enumerate(centers):
        if i != 7:
            want = adaptive_quad(lambda x: np.exp(-3.0 * (x - c) ** 2), 0.0, 10.0,
                                 rel_tol=1e-10, breakpoints=[c])
            assert got[i] == want
    assert max(sizes) <= 4096
    assert len(sizes) < 100


def test_lockstep_rows_of_many_seeds_match_lone_runs():
    """Rows of very different seed counts, 40 seeds beside one, give
    bitwise what each gives alone, whichever rows beside them end first."""
    centers = np.linspace(0.5, 9.5, 12)

    def f(x, owner):
        return np.exp(-3.0 * (x - centers[owner]) ** 2) + 0.1 * np.sin(7.0 * x)

    intervals = [(0.0, 10.0, [c] if i % 5 else list(np.geomspace(1e-6, c, 40)))
                 for i, c in enumerate(centers)]
    got = [out for out, in _lockstep(f, intervals, rel_tol=1e-10)]
    for i, (a, b, breakpoints) in enumerate(intervals):
        want = adaptive_quad(lambda x: f(x, i), a, b, rel_tol=1e-10, breakpoints=breakpoints)
        assert got[i] == want


def test_row_out_of_panels_stays_in_its_row():
    """An integral that exhausts `_MAX_PANELS` in a lockstep run gets its own
    ConvergenceError, with the estimate and error bound it reaches alone; the
    integrals beside it are bitwise what they give alone."""
    hard = lambda x: np.abs(np.sin(1.0 / x))
    smooth = lambda x: np.exp(-3.0 * (x - 0.4) ** 2)
    intervals = [(0.0, 1.0, [0.4]), (1e-9, 1.0, ()), (0.1, 2.0, ())]
    got = [out for out, in _lockstep(
        lambda x, owner: np.where(owner == 1, hard(x), smooth(x)), intervals, rel_tol=1e-13)]
    with pytest.raises(ConvergenceError, match="within 4000 panels") as alone:
        adaptive_quad(hard, 1e-9, 1.0, rel_tol=1e-13)
    assert isinstance(got[1], ConvergenceError) and got[1].args == alone.value.args
    assert (got[1].estimate, got[1].error) == (alone.value.estimate, alone.value.error)
    for i in (0, 2):
        a, b, breakpoints = intervals[i]
        want = adaptive_quad(smooth, a, b, rel_tol=1e-13, breakpoints=breakpoints)
        assert got[i] == want


@pytest.mark.parametrize("n", [1, 3, 4, 24])
def test_lockstep_reply_does_not_depend_on_place(n):
    """A panel's value and error are bitwise the same whether it is reduced
    alone or first, middle or last among other panels in one block, or in a
    block after a full one (a BLAS product's row sums vary with the rows
    around them)."""

    def other(size, shift):
        lo = np.linspace(shift, shift + 3.0, size)
        return lo, lo + 0.37

    def f(x, _):
        return np.sin(3.0 * x) * np.exp(-x) / (1.0 + x * x)

    def evaluate(parts):
        lo, hi = map(np.concatenate, zip(*parts))
        return quadrature._evaluate(f, lo, hi, np.zeros(len(lo), dtype=int))

    mine = np.linspace(0.1, 2.0, n), np.linspace(0.3, 2.2, n) ** 1.5
    want = evaluate([mine])
    layouts = [(0, [other(3, 1.0), other(7, 2.0)]), (1, [other(3, 1.0), other(7, 2.0)]),
               (1, [other(2, 1.5), other(5, 2.5)]), (2, [other(1, 4.0), other(7, 2.0)]),
               (1, [other(_BLOCK_PANELS - 2, 0.5)])]
    for place, rest in layouts:
        start = sum(len(lo) for lo, _ in rest[:place])
        rest.insert(place, mine)
        got = evaluate(rest)[..., start:start + n]
        assert got.tobytes() == want.tobytes(), (place, len(rest))
