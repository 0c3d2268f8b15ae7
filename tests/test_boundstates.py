"""Bound-state counting, the transcendental solver, and the Levinson limit."""
import math
import warnings

import numpy as np
import pytest

from hartman import (
    ATOMIC,
    ConvergenceError,
    SquarePotential,
    ThresholdDivergenceError,
    count_bound_states,
    is_at_threshold,
    levinson_check,
    low_momentum_limits,
    solve_bound_states,
    threshold_depths,
)
from hartman._kernel import scatter_grid


def scan_oracle(v0: float, a: float, n: int = 2_000_001):
    """Dense sign-change scan of the bound-state conditions, refined by pure
    midpoint bisection; independent of the packaged bracketing logic."""
    z0 = a * math.sqrt(2.0 * abs(v0))
    z = np.linspace(1e-9, z0 * (1 - 1e-12), n)
    chi = np.sqrt(z0 * z0 - z * z)
    out = []
    for vals, parity in (
        (z * np.sin(z) - chi * np.cos(z), "even"),
        (-z * np.cos(z) - chi * np.sin(z), "odd"),
    ):
        for i in np.nonzero(np.diff(np.sign(vals)))[0]:
            lo, hi = z[i], z[i + 1]
            flo = vals[i]

            def f(zz):
                c = math.sqrt(max(z0 * z0 - zz * zz, 0.0))
                if parity == "even":
                    return zz * math.sin(zz) - c * math.cos(zz)
                return -zz * math.cos(zz) - c * math.sin(zz)

            for _ in range(80):
                mid = 0.5 * (lo + hi)
                if (f(mid) > 0) == (flo > 0):
                    lo, flo = mid, f(mid)
                else:
                    hi = mid
            zr = 0.5 * (lo + hi)
            out.append((parity, math.sqrt(max(z0 * z0 - zr * zr, 0.0)) / a))
    out.sort(key=lambda t: -t[1])
    return out


class TestCount:
    def test_no_well_no_states(self):
        assert count_bound_states(SquarePotential(5.0, 1.0), ATOMIC) == 0
        assert count_bound_states(SquarePotential(0.0, 1.0), ATOMIC) == 0
        assert not is_at_threshold(SquarePotential(5.0, 1.0), ATOMIC)

    def test_single_level(self):
        # 2 sqrt(2)/pi ~ 0.900 < 1
        assert count_bound_states(SquarePotential(-1.0, 1.0), ATOMIC) == 1

    def test_two_levels(self):
        assert count_bound_states(SquarePotential(-1.3, 1.0), ATOMIC) == 2

    def test_three_levels(self):
        assert count_bound_states(SquarePotential(-5.0, 1.0), ATOMIC) == 3

    def test_threshold_depths_bracket_count_change(self):
        # offsets sit outside the 1e-8 at-threshold detection band
        for n, v_thr in enumerate(threshold_depths(1.0, 3, ATOMIC), start=1):
            above = count_bound_states(SquarePotential(v_thr + 1e-6, 1.0), ATOMIC)
            below = count_bound_states(SquarePotential(v_thr - 1e-6, 1.0), ATOMIC)
            assert below == above + 1 == n + 1

    def test_exactly_at_threshold_excludes_zero_energy_state(self):
        v_thr = threshold_depths(1.0, 1, ATOMIC)[0]
        pot = SquarePotential(v_thr, 1.0)
        assert is_at_threshold(pot, ATOMIC)
        assert count_bound_states(pot, ATOMIC) == 1
        assert solve_bound_states(pot, ATOMIC).at_threshold


class TestSolver:
    def test_single_level_matches_scan_oracle(self):
        spec = solve_bound_states(SquarePotential(-1.0, 1.0), ATOMIC)
        assert spec.n_b == 1
        assert spec.levels[0].parity == "even"
        # frozen from the dense-scan oracle at resolution < 1e-10
        assert spec.levels[0].k_b == pytest.approx(1.0989975740313485, abs=1e-10)

    def test_three_levels_match_scan_oracle(self):
        spec = solve_bound_states(SquarePotential(-5.0, 1.0), ATOMIC)
        assert [lv.parity for lv in spec.levels] == ["even", "odd", "even"]
        oracle = scan_oracle(-5.0, 1.0)
        got = sorted((lv.k_b for lv in spec.levels), reverse=True)
        want = sorted((kb for _, kb in oracle), reverse=True)
        assert len(got) == len(want) == 3
        for g, w in zip(got, want):
            assert g == pytest.approx(w, abs=1e-9)

    def test_levels_sorted_by_energy_and_on_circle(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            v0 = rng.uniform(-20.0, -1e-3)
            a = rng.uniform(0.1, 5.0)
            x = 2.0 * a * math.sqrt(2.0 * abs(v0)) / math.pi
            if abs(x - round(x)) < 1e-6:
                continue
            pot = SquarePotential(v0, a)
            spec = solve_bound_states(pot, ATOMIC)
            assert spec.n_b == count_bound_states(pot, ATOMIC)
            assert len(spec.levels) == spec.n_b
            energies = [lv.energy for lv in spec.levels]
            assert energies == sorted(energies)
            q0_sq = 2.0 * abs(v0)
            for lv in spec.levels:
                # circle constraint: q^2 + K_b^2 = 2 m |v0| / hbar^2
                q = math.sqrt(q0_sq - lv.k_b**2)
                resid = (
                    q * math.tan(q * a) - lv.k_b
                    if lv.parity == "even"
                    else -q / math.tan(q * a) - lv.k_b
                )
                assert abs(resid) < 1e-6 * max(1.0, lv.k_b)

    def test_residual_tolerance_tight(self):
        spec = solve_bound_states(SquarePotential(-7.7, 0.9), ATOMIC, tol=1e-12)
        z0 = 0.9 * math.sqrt(2.0 * 7.7)
        for lv in spec.levels:
            z = 0.9 * math.sqrt(2.0 * 7.7 - lv.k_b**2)
            chi = lv.k_b * 0.9
            f = (
                z * math.sin(z) - chi * math.cos(z)
                if lv.parity == "even"
                else -z * math.cos(z) - chi * math.sin(z)
            )
            assert abs(f) / z0 < 1e-12

    def test_shallowest_level_appears_continuously(self):
        """K_b of the newest state grows continuously past its threshold."""
        v_thr = threshold_depths(1.0, 2, ATOMIC)[1]  # third state onset
        prev = 0.0
        for dv in (1e-6, 1e-5, 1e-4, 1e-3, 1e-2):
            spec = solve_bound_states(SquarePotential(v_thr - dv, 1.0), ATOMIC)
            k_new = min(lv.k_b for lv in spec.levels)
            assert k_new > prev
            prev = k_new
        assert prev < 0.2  # still loosely bound at dv = 1e-2

    def test_barrier_rejected(self):
        with pytest.raises(ValueError):
            solve_bound_states(SquarePotential(2.0, 1.0), ATOMIC)

    def test_free_case_has_empty_spectrum(self):
        spec = solve_bound_states(SquarePotential(0.0, 1.0), ATOMIC)
        assert spec.n_b == 0 and spec.levels == () and not spec.at_threshold

    @pytest.mark.parametrize("v0", [-2.0e3, -2.0e4, -5.0e5])
    def test_deep_well_level_count(self, v0):
        """z0 = 632, 2000 and 10^4: every level is solved, in order."""
        pot = SquarePotential(v0, 10.0)
        spec = solve_bound_states(pot, ATOMIC)
        z0 = 10.0 * math.sqrt(2.0 * abs(v0))
        n_formula = math.floor(2.0 * z0 / math.pi) + 1
        assert spec.n_b == len(spec.levels) == n_formula
        energies = [lv.energy for lv in spec.levels]
        assert energies == sorted(energies)
        assert all(v0 < e < 0 for e in energies)


class TestLevinson:
    def test_barrier_half_step(self):
        rep = levinson_check(SquarePotential(5.0, 1.0), ATOMIC, k_min=1e-4)
        assert rep.predicted == pytest.approx(-math.pi / 2)
        assert rep.residual < 1e-2 * math.pi
        assert rep.n_bound_states == 0

    def test_single_level_well(self):
        rep = levinson_check(SquarePotential(-1.0, 1.0), ATOMIC, k_min=1e-4)
        assert rep.predicted == pytest.approx(math.pi / 2)
        assert rep.residual < 1e-2 * math.pi

    def test_opaque_barrier_raises(self):
        """kappa d ~ 632 at k_min: |D|^2 overflows, so a typed error, not NaN."""
        with pytest.raises(ConvergenceError):
            levinson_check(SquarePotential(5.0, 100.0), ATOMIC)

    def test_free_trivial_branch(self):
        rep = levinson_check(SquarePotential(0.0, 1.0), ATOMIC)
        assert rep.predicted == 0.0
        assert rep.residual == 0.0

    def test_refuses_at_threshold(self):
        v_thr = threshold_depths(1.0, 1, ATOMIC)[0]
        with pytest.raises(ValueError):
            levinson_check(SquarePotential(v_thr, 1.0), ATOMIC)

    @pytest.mark.parametrize("k_min", [-1.0, 0.0, math.inf, math.nan])
    def test_bad_k_min_rejected(self, k_min):
        """k_min = -1 returned a report with residual 4.09; 0 and inf ended in
        a ConvergenceError that blamed an opaque barrier."""
        with pytest.raises(ValueError, match="k_min must be positive and finite"):
            levinson_check(SquarePotential(2.0, 1.0), ATOMIC, k_min=k_min)

    def test_residuals_for_multi_level_wells(self):
        """The wide a = 5 wells (21, 46 and 64 levels) need the exact phase
        anchor: with the principal-value anchor they raised or read 2 pi low.
        The 403-level (-2000, 10) well read 264.5 pi through the sampling
        unwrap."""
        wells = ((-2.5, 1.0), (-5.0, 1.0), (-20.0, 5.0), (-100.0, 5.0), (-200.0, 5.0),
                 (-2000.0, 10.0))
        for v0, a in wells:
            rep = levinson_check(SquarePotential(v0, a), ATOMIC, k_min=1e-4)
            assert rep.residual < 1e-2 * math.pi, (v0, a)


class TestLowMomentumLimits:
    def test_free_case(self):
        """T = 1: |T|^2 -> 1 (alpha = 0, beta = 1) and every slope is 0."""
        lim = low_momentum_limits(SquarePotential(0.0, 1.0), ATOMIC)
        assert (lim.alpha, lim.beta, lim.k_scale) == (0.0, 1.0, 0.0)
        assert (lim.dphi_t, lim.ddelta0, lim.ddelta1) == (0.0, 0.0, 0.0)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_refuses_exact_threshold(self, n):
        v_thr = threshold_depths(1.0, n, ATOMIC)[-1]
        with pytest.raises(ThresholdDivergenceError):
            low_momentum_limits(SquarePotential(v_thr, 1.0), ATOMIC)

    def test_opaque_barrier_raises_without_warning(self):
        """kappa0 d ~ 1,900: alpha overflows, a typed error and no RuntimeWarning."""
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ConvergenceError):
                low_momentum_limits(SquarePotential(5.0, 300.0), ATOMIC)

    def test_slope_diverges_across_threshold(self):
        """dPhi_T/dk(0) is large and positive just before the first threshold
        (71.19 at v0 = -1.22) and large and negative just after it; |T|^2 is
        k^2/alpha to 1e-6 at k = K/1000."""
        before = low_momentum_limits(SquarePotential(-1.22, 1.0), ATOMIC)
        after = low_momentum_limits(SquarePotential(-1.25, 1.0), ATOMIC)
        assert before.dphi_t == pytest.approx(71.18664980329909, rel=1e-12)
        assert after.dphi_t < -20.0
        k = before.k_scale / 1000.0
        t = scatter_grid(-2.44, 2.0, np.array([k]))[0][0]
        assert abs(t) ** 2 == pytest.approx(k * k / before.alpha, rel=1e-6)
