"""Adaptive panel quadrature and the improper-endpoint handling."""
import math

import numpy as np
import pytest

from hartman.errors import ConvergenceError, ThresholdDivergenceError
from hartman.quadrature import adaptive_quad, integral_to_zero


def test_smooth_integrand_exact():
    res = adaptive_quad(np.sin, 0.0, math.pi, rel_tol=1e-12)
    assert res.value == pytest.approx(2.0, rel=1e-12)


def test_gaussian_with_breakpoint():
    f = lambda x: np.exp(-((x - 3.0) ** 2))
    exact = math.sqrt(math.pi) / 2.0 * (math.erf(3.0) + math.erf(7.0))
    res = adaptive_quad(f, 0.0, 10.0, rel_tol=1e-10, breakpoints=[3.0])
    assert res.value == pytest.approx(exact, rel=1e-10)


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
    res = adaptive_quad(f, 0.0, 8.0, rel_tol=1e-10)
    assert res.value == pytest.approx(F(8.0) - F(0.0), abs=1e-11)


def test_panel_budget_error_carries_estimate():
    f = lambda x: np.abs(np.sin(1.0 / np.maximum(x, 1e-12)))
    with pytest.raises(ConvergenceError) as err:
        adaptive_quad(f, 1e-9, 1.0, rel_tol=1e-13, max_panels=8)
    assert err.value.estimate is not None


def test_invalid_interval():
    with pytest.raises(ValueError):
        adaptive_quad(np.sin, 1.0, 1.0)


def test_integral_to_zero_linear_endpoint():
    # integrand ~ p near 0: integral over (0, eps] = eps^2/2
    main = adaptive_quad(lambda p: p, 0.1, 1.0, rel_tol=1e-12).value
    low = integral_to_zero(lambda p: p, 0.1, rel_tol=1e-10, reference=main)
    assert main + low == pytest.approx(0.5, rel=1e-9)


def test_integral_to_zero_flat_endpoint_converges():
    # bounded integrand: converges even though it does not vanish at 0
    main = adaptive_quad(lambda p: np.ones_like(p), 0.25, 1.0, rel_tol=1e-12).value
    low = integral_to_zero(
        lambda p: np.ones_like(p), 0.25, rel_tol=1e-9, reference=main
    )
    assert main + low == pytest.approx(1.0, rel=1e-8)


def test_integral_to_zero_detects_log_divergence():
    main = adaptive_quad(lambda p: 1.0 / p, 0.1, 1.0, rel_tol=1e-12).value
    with pytest.raises(ThresholdDivergenceError):
        integral_to_zero(lambda p: 1.0 / p, 0.1, rel_tol=1e-10, reference=main)


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
