"""Adaptive panel quadrature and the improper-endpoint handling."""
import math

import numpy as np
import pytest

from hartman import quadrature
from hartman.errors import ConvergenceError, ThresholdDivergenceError
from hartman.quadrature import (_BLOCK_PANELS, _adaptive, _lockstep, _refine, _to_zero,
                               adaptive_quad, integral_to_zero)


def _counting(f):
    """f and the list of batch sizes it has been called with."""
    calls = []

    def counted(x):
        calls.append(len(x))
        return f(x)

    return counted, calls


def _halvings_reference(f, eps, *, rel_tol, reference):
    """The per-halving algorithm `integral_to_zero` must reproduce bit for
    bit: one `adaptive_quad` over [lo/2, lo] per halving of the cutoff, with
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


def test_smooth_integrand_exact():
    res = adaptive_quad(np.sin, 0.0, math.pi, rel_tol=1e-12)
    assert res.value == pytest.approx(2.0, rel=1e-12)


def test_gaussian_with_breakpoint():
    f, calls = _counting(lambda x: np.exp(-((x - 3.0) ** 2)))
    exact = math.sqrt(math.pi) / 2.0 * (math.erf(3.0) + math.erf(7.0))
    res = adaptive_quad(f, 0.0, 10.0, rel_tol=1e-10, breakpoints=[3.0])
    assert res.value == pytest.approx(exact, rel=1e-10)
    # one call for the 2 seed panels and their halves, then one per bisection
    assert res.n_panels > 2
    assert calls == [3 * 2 * 22] + [4 * 22] * (res.n_panels - 2)


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
    # one call for the seed panel and its halves, then one per bisection
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
    # more halvings than one seed batch, and bitwise the per-halving result
    want, halvings = _halvings_reference(lambda p: p, 0.1, rel_tol=1e-10, reference=main)
    assert halvings > 8
    assert low == want
    assert len(calls) == math.ceil(halvings / 8)


def test_integral_to_zero_refines_inside_a_halving():
    # a kink in the 11th halving's panel, so that one refines after a batch
    kink = 0.1 * 2.0**-10 * 1.3
    f = lambda p: np.abs(p - kink)
    main = adaptive_quad(f, 0.1, 1.0, rel_tol=1e-12).value
    counted, calls = _counting(f)
    low = integral_to_zero(counted, 0.1, rel_tol=1e-12, reference=main)
    want, halvings = _halvings_reference(f, 0.1, rel_tol=1e-12, reference=main)
    assert halvings > 11
    assert len(calls) > math.ceil(halvings / 8)
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
    # the tiny kinked tail below 0.125 converges and stops inside one batch
    f = lambda p: np.where(p > 0.125, 1.0, 1e-10 * np.abs(p - 0.04))
    counted, calls = _counting(f)
    got = integral_to_zero(counted, 0.25, rel_tol=1e-9, reference=0.0)
    want, halvings = _halvings_reference(f, 0.25, rel_tol=1e-9, reference=0.0)
    assert got == want
    assert halvings == 3 and len(calls) == 1


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


def test_refine_restarts_from_its_carried_panels():
    """A refinement of component 0 returns every component on its final
    panels; a refinement of component 1 started there, with component 1
    equal to component 0, is already converged: it returns at once with the
    same panels and, up to the order of the sums, the same value."""
    f = lambda x: np.sin(40.0 * x) * np.exp(-x)
    res = _lockstep(lambda x, _: np.stack([f(x), f(x)]),
                    [_adaptive(0.0, 8.0, rel_tol=1e-10, breakpoints=[2.0])])[0]
    assert res == adaptive_quad(f, 0.0, 8.0, rel_tol=1e-10, breakpoints=[2.0])
    assert res.panels.shape == (2, 8, res.n_panels) and res.n_panels > 20
    restart = _refine(res.panels, 1e-10, 0.0, on=1)
    with pytest.raises(StopIteration) as stop:
        next(restart)  # no bisection requested
    again = stop.value.value
    assert again.n_panels == res.n_panels
    assert again.panels.tobytes() == res.panels.tobytes()
    assert again.value == pytest.approx(res.value, rel=1e-14, abs=1e-16)
    assert again.error == pytest.approx(res.error, rel=1e-12)


def test_refine_bisects_equal_errors_first_made_first():
    """Among panels of equal error the one made first is bisected first: the
    seed [0, 1], then the seed [1, 2] before [0, 1]'s children, which are
    bisected left before right.  Every panel here has error 0.25 exactly."""
    seeds = np.array([[[0.0, 1.0], [1.0, 2.0], [1.0, 1.0], [0.375, 0.375], [0.375, 0.375],
                       [1.0, 1.0], [0.5, 0.5], [0.5, 0.5]]])
    reply = np.full((2, 1, 4), 0.0625)  # each child: value 0.125, error 0.25
    refine = _refine(seeds, 1e-12, 0.0)
    lo, hi = next(refine)
    bisected = []
    for _ in range(5):
        bisected.append((lo[0], hi[-1]))
        assert np.array_equal(lo[1:], hi[:-1])  # four quarters of one panel
        lo, hi = refine.send(reply)
    refine.close()
    assert bisected == [(0.0, 1.0), (1.0, 2.0), (0.0, 0.5), (0.5, 1.0), (1.0, 1.5)]


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

    integrals = [_adaptive(0.0, 10.0, rel_tol=1e-10, breakpoints=[c]) for c in centers]
    integrals += [_to_zero(0.25, rel_tol=1e-9, reference=1.0) for _ in range(10)]
    integrals[7] = _adaptive(1.0, 1.0)
    got = _lockstep(f, integrals)
    assert isinstance(got[7], ValueError)
    for i, c in enumerate(centers):
        if i != 7:
            want = adaptive_quad(lambda x: np.exp(-3.0 * (x - c) ** 2), 0.0, 10.0,
                                 rel_tol=1e-10, breakpoints=[c])
            assert got[i] == want
    for i, c in enumerate(centers[:10]):
        want = integral_to_zero(lambda x: np.exp(-3.0 * (x - c) ** 2), 0.25,
                                rel_tol=1e-9, reference=1.0)
        assert got[60 + i][0] == want
    assert max(sizes) <= 4096
    assert len(sizes) < 100


@pytest.mark.parametrize("n", [1, 3, 4, 24])
def test_lockstep_reply_does_not_depend_on_place(n):
    """A request's (GL15, GL7) reply is bitwise the same whether it is reduced
    alone or first, middle or last among other requests in one block, or in
    a block after a full one (a BLAS product's row sums vary with the rows
    around them)."""

    def ask(lo, hi):
        return (yield np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))

    def other(size, shift):
        lo = np.linspace(shift, shift + 3.0, size)
        return ask(lo, lo + 0.37)

    def f(x, _):
        return np.sin(3.0 * x) * np.exp(-x) / (1.0 + x * x)

    mine = np.linspace(0.1, 2.0, n), np.linspace(0.3, 2.2, n) ** 1.5
    want = _lockstep(f, [ask(*mine)])[0]
    layouts = [(0, [other(3, 1.0), other(7, 2.0)]), (1, [other(3, 1.0), other(7, 2.0)]),
               (1, [other(2, 1.5), other(5, 2.5)]), (2, [other(1, 4.0), other(7, 2.0)]),
               (1, [other(_BLOCK_PANELS - 2, 0.5)])]
    for place, rest in layouts:
        rest.insert(place, ask(*mine))
        got = _lockstep(f, rest)[place]
        assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want)), (place, len(rest))


def test_to_zero_never_requests_the_halvings_it_is_given():
    """A tail of component 1 started from the halvings a tail of component 0
    seeded requests only halvings past them, and gives bitwise what a tail of
    component 1 alone gives."""
    f0 = lambda x: x**3
    f1 = lambda x: np.ones_like(x)  # converges more slowly than f0
    (value, halvings), = _lockstep(lambda x, _: np.stack([f0(x), f1(x)]),
                                   [_to_zero(0.25, rel_tol=1e-9, reference=1.0)])
    assert value == integral_to_zero(f0, 0.25, rel_tol=1e-9, reference=1.0)
    assert len(halvings) == 8
    requested = []

    def f(x, _):
        requested.append(x)
        return np.stack([f0(x), f1(x)])

    (again, more), = _lockstep(f, [_to_zero(0.25, rel_tol=1e-9, reference=1.0, on=1,
                                             seeds=halvings)])
    assert again == integral_to_zero(f1, 0.25, rel_tol=1e-9, reference=1.0)
    assert len(more) > len(halvings)
    assert all(x.tobytes() == y.tobytes() for x, y in zip(more, halvings))
    # one call per new batch of halvings, all below the halvings given
    assert len(requested) == math.ceil((len(more) - len(halvings)) / 8)
    assert max(x.max() for x in requested) < 0.25 * 2.0 ** -len(halvings)
