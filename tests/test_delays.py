"""Wigner delays, causality bounds, dwell times, and the boundary identity."""
import math

import numpy as np
import pytest
from scipy.integrate import quad as scipy_quad

from hartman import (
    ATOMIC,
    ConvergenceError,
    GaussianPacketSpec,
    PhysicalConstants,
    SquarePotential,
    build_phase_table,
    causality_bounds,
    dwell_time,
    eigen_channels,
    amplitudes,
    eigenphase_derivative_bounds,
    interior_norm,
    levinson_check,
    mean_exit_time_via_flux,
    phase_time,
    smith_identity_check,
    solve_bound_states,
    threshold_depths,
    van_kampen_check,
    wigner_delay,
)
from hartman import _kernel, delays
from hartman.delays import channel_floors, delay_rows, oscillatory_delay_bound

H = 2.0 * math.pi

FREE = SquarePotential(0.0, 1.0)
WELL1 = SquarePotential(-1.0, 1.0)
BARRIER_D2 = SquarePotential(5.0, 1.0)


@pytest.fixture(scope="module")
def free_table():
    return build_phase_table(FREE, ATOMIC, 0.01, 40.0)


@pytest.fixture(scope="module")
def barrier_table():
    return build_phase_table(BARRIER_D2, ATOMIC, 0.01)


class TestWignerDelay:
    def test_free_is_zero(self, free_table):
        assert wigner_delay(free_table, ATOMIC, 1.0) == pytest.approx(0.0, abs=1e-14)

    def test_tunneling_advancement_respects_simple_bound(self, barrier_table):
        dt = wigner_delay(barrier_table, ATOMIC, 0.1)
        assert dt < 0.0
        assert dt >= -2.0 / 0.1  # -m d / p with d = 2

    def test_well_beats_simple_bound_near_crossing(self):
        """Just above the first delay crossing a weak well advances the
        packet more than -m d/p allows (only possible with a bound state)."""
        pot = SquarePotential(-0.29, 1.0)
        table = build_phase_table(pot, ATOMIC, 0.01)
        dt = wigner_delay(table, ATOMIC, 0.1)
        assert dt < -2.0 / 0.1
        rec = causality_bounds(pot, ATOMIC, table, 0.1)
        assert dt >= rec.bound_tight_osc

    def test_outside_table_rejected(self, barrier_table):
        with pytest.raises(ValueError):
            wigner_delay(barrier_table, ATOMIC, 1e-4)

    def test_mismatched_table_rejected(self, barrier_table):
        with pytest.raises(ValueError):
            phase_time(WELL1, ATOMIC, barrier_table, 0.5)
        with pytest.raises(ValueError):
            causality_bounds(WELL1, ATOMIC, barrier_table, 0.5)

    @pytest.mark.parametrize("call", [
        lambda table, consts: wigner_delay(table, consts, 1.0),
        lambda table, consts: phase_time(BARRIER_D2, consts, table, 1.0),
        lambda table, consts: causality_bounds(BARRIER_D2, consts, table, 1.0),
        lambda table, consts: eigenphase_derivative_bounds(BARRIER_D2, consts, table),
    ], ids=["wigner_delay", "phase_time", "causality_bounds", "eigenphase_derivative_bounds"])
    def test_table_under_other_constants_rejected(self, barrier_table, call):
        """A table's range and values are in the units of the constants it was
        built under: with this atomic table, causality_bounds under
        (hbar, m) = (2, 3) returned dt = -1.823 at k = 1, its range checked
        in atomic units."""
        with pytest.raises(ValueError, match="built under"):
            call(barrier_table, PhysicalConstants(2.0, 3.0))
        call(barrier_table, PhysicalConstants(1.0, 1.0))  # equal to ATOMIC: accepted


class TestPhaseTime:
    def test_free_crossing_time(self, free_table):
        k = 0.5
        assert phase_time(FREE, ATOMIC, free_table, k) == pytest.approx(2.0 / 0.5)

    def test_hartman_plateau(self):
        p0 = 0.5
        taus = {}
        for d in (8.0, 12.0):
            pot = SquarePotential(5.0, d / 2.0)
            table = build_phase_table(pot, ATOMIC, 0.01, 100.0, samples=400)
            taus[d] = phase_time(pot, ATOMIC, table, p0)
        assert abs(taus[8.0] - taus[12.0]) < 1e-6
        asymptote = 2.0 / (math.sqrt(10.0) * p0)
        assert abs(taus[8.0] - asymptote) / asymptote < 0.10


class TestCausalityBounds:
    def test_barrier_obeys_simple_bound_everywhere(self, barrier_table):
        for k in (0.05, 0.1, 0.5, 1.0, 3.0):
            rec = causality_bounds(BARRIER_D2, ATOMIC, barrier_table, k)
            assert rec.delta_t >= rec.bound_simple - 1e-12
            assert rec.n_bound_states == 0
            assert rec.bound_bound_state is None

    def test_bound_ordering_and_fields(self):
        pot = SquarePotential(-0.29, 1.0)
        table = build_phase_table(pot, ATOMIC, 0.01)
        rec = causality_bounds(pot, ATOMIC, table, 0.1)
        assert rec.bound_tight_osc >= rec.bound_tight_weak
        assert rec.delta_t < rec.bound_simple  # the naive bound fails here
        assert rec.delta_t >= rec.bound_tight_osc
        assert rec.n_bound_states == 1 and rec.single_bound_state
        assert rec.bound_bound_state is not None
        assert rec.tau_ph == pytest.approx(rec.delta_t + 2.0 / (0.1), rel=1e-12)
        assert rec.spatial_delay == pytest.approx(rec.delta_t * 0.1, rel=1e-12)

    def test_single_bound_state_bound_on_grid(self):
        """Wells with one level: dt >= -(m/p)(d + 1/K_b) at every k."""
        for v0 in (-0.2, -0.5, -1.0, -1.2):
            pot = SquarePotential(v0, 1.0)
            spec = solve_bound_states(pot, ATOMIC)
            if spec.n_b != 1:
                continue
            k_b = spec.levels[0].k_b
            table = build_phase_table(pot, ATOMIC, 0.01)
            for k in np.linspace(0.02, 10.0, 200):
                rec = causality_bounds(pot, ATOMIC, table, k)
                floor = -(1.0 / k) * (2.0 + 1.0 / k_b)
                assert rec.delta_t >= floor - 1e-9
                assert rec.bound_bound_state == pytest.approx(floor)


    def test_one_level_solve_matches_full_spectrum(self):
        """`causality_bounds` solves only the shallowest level; its bound-state
        fields equal, bitwise, those formed from every level that
        `solve_bound_states` returns, on random wells of 1 to about 900 levels
        (v0 = -1e6, a = 1 holds 901) and on wells within 1e-8 to 1e-2
        (relative) of the thresholds n = 1 to 3, on both sides."""
        rng = np.random.default_rng(27)
        pots = [SquarePotential(-1e6, 1.0)]
        for _ in range(40):
            a = rng.uniform(0.2, 2.0)
            z0 = math.exp(rng.uniform(math.log(0.05), math.log(1400.0)))
            pots.append(SquarePotential(-0.5 * (z0 / a) ** 2, a))
        for _ in range(6):
            a = rng.uniform(0.3, 2.0)
            rels = [1e-8, 1e-2, 10.0 ** rng.uniform(-8.0, -2.0)]
            pots += [SquarePotential(depth * (1.0 + sign * rel), a)
                     for depth in threshold_depths(a, 3, ATOMIC)
                     for rel in rels for sign in (-1.0, 1.0)]
        for pot in pots:
            k = rng.uniform(0.25, 5.0)
            table = build_phase_table(pot, ATOMIC, 0.5 * k, 2.0 * k, samples=2)
            record = causality_bounds(pot, ATOMIC, table, k)
            spectrum = solve_bound_states(pot, ATOMIC)
            k_b = min(level.k_b for level in spectrum.levels)
            want = -(1.0 / k) * (pot.width + 1.0 / k_b) if k_b > 0 else None
            assert repr(record.bound_bound_state) == repr(want), pot
            assert record.n_bound_states == spectrum.n_b, pot
            assert record.single_bound_state is (spectrum.n_b == 1), pot
        assert max(len(solve_bound_states(pot, ATOMIC).levels) for pot in pots) == 901


def test_oscillatory_bound_is_sum_of_channel_floors():
    """dt = (m/(hbar k))(delta_0' + delta_1'), so the delay bound must be the
    sum of the two channel floors in the same units."""
    consts = PhysicalConstants(hbar=1.3, mass=0.7)
    rng = np.random.default_rng(21)
    k = rng.uniform(0.05, 10.0, 500)
    a = rng.uniform(0.1, 3.0)
    d0, d1 = rng.uniform(-math.pi / 2, math.pi / 2, (2, 500))
    floor0, floor1 = channel_floors(k, a, d0, d1)
    bound = oscillatory_delay_bound(k, a, d0, d1, consts)
    want = consts.mass / (consts.hbar * k) * (floor0 + floor1)
    assert np.abs(bound - want).max() < 1e-12 * np.abs(want).max()
    # the weak bound (m/p)(-d - 1/k) lies below it
    assert np.all(bound >= consts.mass / (consts.hbar * k) * (-2 * a - 1 / k) - 1e-12)


class TestEigenphaseDerivativeBounds:
    def test_free_trivially_passes(self, free_table):
        rep = eigenphase_derivative_bounds(FREE, ATOMIC, free_table)
        assert rep.passed
        assert rep.min_margin_simple >= 1.0 - 1e-12  # delta_j' = 0 > -a

    def test_barrier_passes_including_simple_bound(self):
        pot = SquarePotential(5.0, 1.0)
        table = build_phase_table(pot, ATOMIC, 0.01, samples=2000)
        rep = eigenphase_derivative_bounds(pot, ATOMIC, table)
        assert rep.passed
        assert rep.simple_bound_asserted
        assert rep.min_margin_osc > -1e-9
        assert rep.min_margin_simple > -1e-9

    def test_well_passes_oscillatory_but_breaks_simple(self):
        table = build_phase_table(WELL1, ATOMIC, 0.01, samples=2000)
        rep = eigenphase_derivative_bounds(WELL1, ATOMIC, table)
        assert rep.passed  # oscillatory bounds hold for any real potential
        assert not rep.simple_bound_asserted
        assert rep.min_margin_simple < 0  # bound state drives delta_0' < -a


    @pytest.mark.parametrize("tol", [1e-9, -0.25])
    def test_stored_floors_decide_as_channel_floors(self, tol):
        """On the benchmark's `analysis` ranges (barriers and wells with
        |v0| in [0.05, 10], a in [0.2, 2], and wells 1-10% from threshold
        depths n = 1-3), with tables on k in [0.25, 5], the report from the
        table's stored floors has the `passed`, the violations (k, channel,
        bound) and, within 1e-12, the minimum margins of the sine route,
        `channel_floors` of the table's delta_j.  tol = -0.25 asks for a
        margin of 0.25, so that the violation sets are not empty."""
        rng = np.random.default_rng(31)
        pots = [SquarePotential(sign * rng.uniform(0.05, 10.0), rng.uniform(0.2, 2.0))
                for sign in (1.0, -1.0) for _ in range(20)]
        for i in range(18):
            level, a = 1 + i % 3, rng.uniform(0.3, 2.0)
            eps = (1.0 if i % 2 else -1.0) * 10.0 ** rng.uniform(-2.0, -1.0)
            pots.append(SquarePotential(threshold_depths(a, level, ATOMIC)[-1] * (1.0 + eps), a))
        n_violations = 0
        for pot in pots:
            table = build_phase_table(pot, ATOMIC, 0.25, 5.0, samples=300)
            rep = eigenphase_derivative_bounds(pot, ATOMIC, table, tol=tol)
            a, k = pot.half_width, table.k_grid
            floors = channel_floors(k, a, table.delta0, table.delta1)
            osc = [dd - floor for dd, floor in zip((table.ddelta0, table.ddelta1), floors)]
            simple = [table.ddelta0 + a, table.ddelta1 + a]
            rows = [("oscillatory", osc)] + [("no-bound-state", simple)] * (pot.v0 >= 0)
            want = {(float(k[i]), ch, name) for name, margins in rows
                    for ch, margin in enumerate(margins) for i in np.flatnonzero(margin < -tol)}
            got = {(v.k, v.channel, v.bound) for v in rep.violations}
            assert got == want and rep.passed is not want, pot
            assert abs(rep.min_margin_osc - min(m.min() for m in osc)) <= 1e-12, pot
            assert abs(rep.min_margin_simple - min(m.min() for m in simple)) <= 1e-12, pot
            n_violations += len(got)
        assert (n_violations > 0) is (tol < 0)


class TestDwellTime:
    def test_free_interior_norm_closed_form(self):
        for k in (0.3, 1.0, 2.7):
            even = interior_norm(FREE, ATOMIC, k, "even")
            odd = interior_norm(FREE, ATOMIC, k, "odd")
            assert even == pytest.approx(
                (2.0 / H) * (1.0 + math.sin(2.0 * k) / (2.0 * k)), rel=1e-13
            )
            assert odd == pytest.approx(
                (2.0 / H) * (1.0 - math.sin(2.0 * k) / (2.0 * k)), rel=1e-13
            )

    def test_positivity_random(self):
        rng = np.random.default_rng(9)
        for _ in range(300):
            pot = SquarePotential(rng.uniform(-10, 10), rng.uniform(0.1, 3.0))
            rec = dwell_time(
                pot, ATOMIC, rng.uniform(0.02, 10.0),
                "even" if rng.integers(2) == 0 else "odd",
            )
            assert rec.tau_d > 0
            assert rec.interior_norm > 0

    @pytest.mark.parametrize(
        "v0,k,parity",
        [(-1.0, 0.5, "even"), (-1.0, 0.3, "odd"), (5.0, 1.0, "even"),
         (5.0, 0.7, "odd"), (2.0, math.sqrt(4.0) , "even"),
         # |mu| d^2 inside the series window, above and below the barrier top
         (2.0, math.sqrt(4.0 + 1e-4), "odd"), (2.0, math.sqrt(4.0 - 2e-4), "odd")],
    )
    def test_matches_quadrature_oracle(self, v0, k, parity):
        """Closed form vs direct numerical integration of psi^2."""
        pot = SquarePotential(v0, 1.0)
        amp = amplitudes(pot, ATOMIC, k)
        ec = eigen_channels(amp)
        q = complex(math.sqrt(complex(k * k - 2.0 * v0).real)
                    if k * k >= 2.0 * v0 else 1j * math.sqrt(2.0 * v0 - k * k))

        def psi_sq(x):
            if parity == "even":
                val = (math.cos(k + ec.delta0) * np.cos(q * x) / np.cos(q)).real
            else:
                val = (math.sin(k + ec.delta1) * np.sin(q * x) / np.sin(q)).real
            return (2.0 / H) * val * val

        oracle, _ = scipy_quad(psi_sq, -1.0, 1.0, epsabs=1e-14, epsrel=1e-13)
        assert interior_norm(pot, ATOMIC, k, parity) == pytest.approx(
            oracle, rel=1e-10
        )

    def test_matches_mpmath_around_series_switch(self):
        """Both parities against 40-digit arithmetic on the full-width
        closed forms, over |mu| d^2 in [1e-4, 0.3] of either sign: at the
        half width a that `interior_norm` uses, the kernel's series switch
        |mu| a^2 = 1e-3 lies at |mu| d^2 = 4e-3."""
        mp = pytest.importorskip("mpmath")
        rng = np.random.default_rng(13)
        for _ in range(150):
            a, k = rng.uniform(0.1, 3.0), rng.uniform(0.01, 5.0)
            w = rng.choice([-1.0, 1.0]) * 10 ** rng.uniform(-4.0, math.log10(0.3))
            mu = w / (2.0 * a) ** 2
            pot = SquarePotential((k * k - mu) / 2.0, a)
            with mp.workdps(40):
                kk, aa, mm = mp.mpf(k), mp.mpf(a), mp.mpf(mu)
                q = mp.sqrt(abs(mm))
                C = mp.cos(2 * q * aa) if mu > 0 else mp.cosh(2 * q * aa)
                S1 = (mp.sin(2 * q * aa) if mu > 0 else mp.sinh(2 * q * aa)) / q
                even = (aa + S1 / 2) / ((kk * kk * (1 + C) + mm * (1 - C)) / 2)
                odd = (aa - S1 / 2) / ((mm * (1 + C) + kk * kk * (1 - C)) / 2)
                wants = {p: float(kk * kk * x / mp.pi) for p, x in (("even", even), ("odd", odd))}
            for parity, want in wants.items():
                got = interior_norm(pot, ATOMIC, k, parity)
                assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_matches_mpmath_on_opaque_barriers(self):
        """Both parities against 50-digit arithmetic on 500 barriers with
        kappa d in [2, 300], where the odd numerator is (a - c s1)/mu: the
        form a s1^2 + c s2 loses digits in proportion to kappa a there.
        Below kappa d = 2 the odd form carries S2's error near the series
        switch, which the test above bounds."""
        mp = pytest.importorskip("mpmath")
        rng = np.random.default_rng(17)
        for _ in range(500):
            a, k = rng.uniform(0.1, 3.0), rng.uniform(0.01, 5.0)
            kappa = rng.uniform(2.0, 300.0) / (2.0 * a)
            pot = SquarePotential((k * k + kappa * kappa) / 2.0, a)
            mu = k * k - pot.strength(ATOMIC)  # as interior_norm rounds it
            with mp.workdps(50):
                kk, aa, mm = mp.mpf(k), mp.mpf(a), mp.mpf(mu)
                q = mp.sqrt(-mm)
                C, S1 = mp.cosh(2 * q * aa), mp.sinh(2 * q * aa) / q
                even = (aa + S1 / 2) / ((kk * kk * (1 + C) + mm * (1 - C)) / 2)
                odd = (aa - S1 / 2) / ((mm * (1 + C) + kk * kk * (1 - C)) / 2)
                wants = {p: float(kk * kk * x / mp.pi) for p, x in (("even", even), ("odd", odd))}
            for parity, want in wants.items():
                got = interior_norm(pot, ATOMIC, k, parity)
                assert got == pytest.approx(want, rel=2e-15, abs=0.0)

    def test_parity_validated(self):
        with pytest.raises(ValueError):
            dwell_time(FREE, ATOMIC, 1.0, "mixed")

    @pytest.mark.parametrize("k", [0.0, -1.0])
    def test_nonpositive_k_rejected(self, k):
        with pytest.raises(ValueError, match="k must be positive"):
            interior_norm(FREE, ATOMIC, k, "even")


@pytest.mark.parametrize("k", [math.inf, math.nan, -1.0])
@pytest.mark.parametrize("check", [interior_norm, dwell_time, smith_identity_check])
def test_non_finite_k_rejected(check, k):
    """k = inf ended in a ConvergenceError that blamed an opaque barrier."""
    with pytest.raises(ValueError, match="k must be positive and finite"):
        check(BARRIER_D2, ATOMIC, k, "even")


@pytest.mark.parametrize("v0, k", [(0.0, 1e-170), (1e-300, 1e-162)])
@pytest.mark.parametrize("parity", ["even", "odd"])
@pytest.mark.parametrize("check", [interior_norm, dwell_time, smith_identity_check])
def test_underflowing_k_squared_rejected(check, parity, v0, k):
    """Where k^2 underflows to 0 the even norm was 0/0, a bare
    ZeroDivisionError, and the odd one 0, a dwell time of 0."""
    with pytest.raises(ValueError, match="k\\^2 must be a normal float"):
        check(SquarePotential(v0, 1.0), ATOMIC, k, parity)


def _boundary_values(pot, k, parity, delta_ref=None):
    """psi_j(a), psi_j'(a) and delta_j from the outside form (amplitude
    sqrt(2/h)); delta_ref pins the mod-pi branch for differences in energy."""
    ec = eigen_channels(amplitudes(pot, ATOMIC, k))
    delta = ec.delta0 if parity == "even" else ec.delta1
    if delta_ref is not None:
        delta -= math.pi * round((delta - delta_ref) / math.pi)
    amp = math.sqrt(2.0 / H)
    theta = k * pot.half_width + delta
    if parity == "even":
        return amp * math.cos(theta), -amp * k * math.sin(theta), delta
    return amp * math.sin(theta), amp * k * math.cos(theta), delta


def finite_difference_identity(pot, k, parity):
    """Oracle for the right side of the boundary identity (atomic units):
    (hbar^2/m)(psi_E psi' - psi psi_E') at x = a, the energy derivative a
    central difference Richardson-extrapolated from steps dE and dE/2."""
    E = 0.5 * k * k
    dE = 1e-5 * E
    psi, dpsi, delta = _boundary_values(pot, k, parity)

    def bilinear(step):
        (psi_p, dpsi_p, _), (psi_m, dpsi_m, _) = (
            _boundary_values(pot, math.sqrt(2.0 * (E + s)), parity, delta)
            for s in (step, -step)
        )
        return ((psi_p - psi_m) * dpsi - psi * (dpsi_p - dpsi_m)) / (2.0 * step)

    return (4.0 * bilinear(dE / 2.0) - bilinear(dE)) / 3.0


def _worst_identity_error(seed, n, k_min):
    """Worst `smith_identity_check` rel_error, both parities, over n random
    barriers and wells (|v0| <= 10, a in [0.2, 3]) at log-uniform k in
    [k_min, 10]."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n):
        pot = SquarePotential(rng.uniform(-10, 10), rng.uniform(0.2, 3.0))
        k = math.exp(rng.uniform(math.log(k_min), math.log(10.0)))
        for parity in ("even", "odd"):
            worst = max(worst, smith_identity_check(pot, ATOMIC, k, parity).rel_error)
    return worst


class TestSmithIdentity:
    def test_free_particle_exact(self):
        rep = smith_identity_check(FREE, ATOMIC, 1.0, "even")
        assert rep.rel_error < 1e-8

    def test_barrier_and_well_cases(self):
        r1 = smith_identity_check(SquarePotential(5.0, 1.0), ATOMIC, 1.0, "even")
        assert r1.rel_error < 1e-6
        r2 = smith_identity_check(WELL1, ATOMIC, 0.3, "odd")
        assert r2.rel_error < 1e-6

    def test_random_sample(self):
        """The closed-form right side agrees with the interior norm and with
        the finite-difference oracle."""
        rng = np.random.default_rng(13)
        worst = worst_oracle = 0.0
        for _ in range(50):
            pot = SquarePotential(rng.uniform(-10, 10), rng.uniform(0.2, 2.0))
            k = rng.uniform(0.1, 5.0)
            parity = "even" if rng.integers(2) == 0 else "odd"
            rep = smith_identity_check(pot, ATOMIC, k, parity)
            oracle = finite_difference_identity(pot, k, parity)
            worst = max(worst, rep.rel_error)
            worst_oracle = max(worst_oracle, abs(oracle - rep.rhs) / abs(rep.rhs))
        assert worst < 1e-6
        assert worst_oracle < 1e-6

    def test_exact_on_wide_random_sample(self):
        assert _worst_identity_error(31, 1000, 0.1) < 1e-9

    def test_real_floor_keeps_digits_at_low_k(self):
        """floor_j from the real parts, sin 2(ka + delta_j) = (+-A rho - B)/|D|^2,
        keeps the digits that the angle and sine of the eigenphases lost: on
        these 2,000 inputs, k in [0.02, 10], the complex route read 1.16e-9
        and the real floor reads 4.5e-11."""
        assert _worst_identity_error(37, 2000, 0.02) < 1e-9

    def test_low_momentum_barrier(self):
        """Where central differences in energy cancel (6.7e-6 with them)."""
        rep = smith_identity_check(SquarePotential(9.0, 1.2), ATOMIC, 0.1, "even")
        assert rep.rel_error < 1e-9

    def test_lhs_is_interior_norm(self):
        rep = smith_identity_check(WELL1, ATOMIC, 0.7, "even")
        assert rep.lhs == pytest.approx(
            interior_norm(WELL1, ATOMIC, 0.7, "even"), rel=1e-14
        )

    def test_signature_has_no_step(self):
        with pytest.raises(TypeError):
            smith_identity_check(WELL1, ATOMIC, 1.0, "even", 1e-5)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_opaque_barrier_raises_typed_error():
    """kappa d ~ 2500: a ConvergenceError, not NaN or a bare ValueError, and
    no NumPy RuntimeWarning on the way.  The flux oracle finds no transmitted
    weight behind a wholly opaque barrier, and reports the NaN flux of a
    partly opaque one (its window's slow momenta overflow the kernel) as
    missing flux."""
    pot = SquarePotential(5.0, 400.0)
    calls = [
        lambda: amplitudes(pot, ATOMIC, 0.5),
        lambda: amplitudes(pot, ATOMIC, 0.5 + 0.1j),
        lambda: van_kampen_check(pot, ATOMIC, [0.5 + 0.1j]),
        *(lambda p=p: interior_norm(pot, ATOMIC, 0.5, p) for p in ("even", "odd")),
        *(lambda p=p: dwell_time(pot, ATOMIC, 0.5, p) for p in ("even", "odd")),
        lambda: smith_identity_check(pot, ATOMIC, 0.5, "even"),
    ]
    for call in calls:
        with pytest.raises(ConvergenceError, match="opaque"):
            call()
    with pytest.raises(ValueError, match="transmitted weight vanishes"):
        mean_exit_time_via_flux(GaussianPacketSpec(0.5, 0.1, -450.0), pot, ATOMIC)
    for spec, partly in ((GaussianPacketSpec(3.6, 0.3, -400.0), SquarePotential(5.0, 150.0)),
                         (GaussianPacketSpec(1.2, 0.2, -600.0), SquarePotential(0.4, 300.0))):
        with pytest.raises(ConvergenceError, match="misses transmitted flux"):
            mean_exit_time_via_flux(spec, partly, ATOMIC)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_opaque_barrier_raises_without_warning():
    """kappa d ~ 375 at k = 0.5: the phase, delay and floor paths read
    |D|^2 = inf from the kernel and raise the typed error, with no NumPy
    RuntimeWarning on the way; the second Smith check raises from the
    remembered point."""
    pot = SquarePotential(5.0, 60.0)
    calls = (lambda: build_phase_table(pot, ATOMIC, 0.01),
             lambda: levinson_check(pot, ATOMIC),
             lambda: smith_identity_check(pot, ATOMIC, 0.5, "odd"),
             lambda: smith_identity_check(pot, ATOMIC, 0.5, "even"),
             lambda: delay_rows([5.0, 6.0], 0.5, pot.width, ATOMIC))
    for call in calls:
        with pytest.raises(ConvergenceError, match="opaque"):
            call()


class TestPointMemo:
    """The one-point calls share their kernel values through two memos that
    keep the last point only; every result is the bits of a fresh call."""

    POTS = (SquarePotential(5.0, 1.0), SquarePotential(0.3, 0.4),  # barriers
            SquarePotential(-1.0, 1.0), SquarePotential(-7.3, 1.7),  # wells
            # wells 1% and 0.1% off their first and second thresholds
            SquarePotential(threshold_depths(1.0, 1)[0] * 1.01, 1.0),
            SquarePotential(threshold_depths(0.6, 2)[1] * 0.999, 0.6),
            SquarePotential(0.0, 1.0), SquarePotential(-0.0, 1.0))
    KS = (0.05, 0.7, 3.1)

    @staticmethod
    def _calls(pot, consts, table, k):
        """Every entry point that reads a memo, by name, at one (pot, k)."""
        calls = {
            "causality_bounds": lambda: causality_bounds(pot, consts, table, k),
            "wigner_delay": lambda: wigner_delay(table, consts, k),
            "phase_time": lambda: phase_time(pot, consts, table, k),
        }
        for p in ("even", "odd"):
            calls[f"interior_norm {p}"] = lambda p=p: interior_norm(pot, consts, k, p)
            calls[f"dwell_time {p}"] = lambda p=p: dwell_time(pot, consts, k, p)
            calls[f"smith_identity_check {p}"] = lambda p=p: smith_identity_check(pot, consts, k, p)
        return calls

    @staticmethod
    def _fresh(call):
        delays._phase_point.cache_clear()
        delays._triplet_point.cache_clear()
        return repr(call())

    def _cases(self, consts):
        for pot in self.POTS:
            table = build_phase_table(pot, consts, 0.01)
            for k in self.KS:
                yield from ((f"{pot} k={k} {name}", call)
                            for name, call in self._calls(pot, consts, table, k).items())

    @pytest.mark.parametrize("consts", [ATOMIC, PhysicalConstants(hbar=1.3, mass=0.7)],
                             ids=["atomic", "other"])
    @pytest.mark.parametrize("order", ["forward", "reversed", "shuffled"])
    def test_memo_gives_fresh_bits(self, order, consts):
        """In order by point, and with the points interleaved at random, each
        result equals the one computed with both memos emptied, in repr."""
        cases = list(self._cases(consts))
        if order == "reversed":
            cases.reverse()
        elif order == "shuffled":
            cases = [cases[i] for i in np.random.default_rng(7).permutation(len(cases))]
        got = [(name, repr(call())) for name, call in cases]
        assert got == [(name, self._fresh(call)) for name, call in cases]

    def test_numpy_scalar_k_gives_the_float_bits(self):
        """An np.float64 k, whether it misses or hits the memo, gives what a
        float k gives."""
        for pot in self.POTS[:4]:
            table = build_phase_table(pot, ATOMIC, 0.01)
            for k in self.KS:
                floats = self._calls(pot, ATOMIC, table, k)
                scalars = self._calls(pot, ATOMIC, table, np.float64(k))
                for name, call in floats.items():
                    want = self._fresh(call)
                    assert self._fresh(scalars[name]) == want, name
                    call()
                    assert repr(scalars[name]()) == want, name

    @pytest.mark.parametrize("pair", [
        (SquarePotential(5.0, 1.0), SquarePotential(-5.0, 1.0), ATOMIC, ATOMIC),
        (SquarePotential(5.0, 1.0), SquarePotential(5.0, 1.5), ATOMIC, ATOMIC),
        (WELL1, WELL1, ATOMIC, PhysicalConstants(hbar=1.3, mass=0.7)),
    ], ids=["depth", "width", "constants"])
    def test_other_potential_or_constants_is_a_new_entry(self, pair):
        """Alternating two potentials, or two constant sets, at one k misses
        the memo on every switch and gives each its own fresh bits."""
        pot_a, pot_b, consts_a, consts_b = pair
        calls = [self._calls(pot, consts, build_phase_table(pot, consts, 0.01), 0.7)
                 for pot, consts in ((pot_a, consts_a), (pot_b, consts_b))]
        memos = (delays._phase_point, delays._triplet_point)
        for name in calls[0]:
            want = [self._fresh(c[name]) for c in calls]
            before = [memo.cache_info() for memo in memos]
            got = [repr(c[name]()) for c in (*calls, *calls)]
            after = [memo.cache_info() for memo in memos]
            assert got == want + want, name
            assert [a.hits - b.hits for a, b in zip(after, before)] == [0, 0], name
            assert {a.misses - b.misses for a, b in zip(after, before)} <= {0, 4}, name

    @pytest.mark.usefixtures("fresh_point_memos")
    def test_one_point_analysis_makes_two_kernel_calls(self, monkeypatch):
        """The delay, both dwell times and both Smith checks at one (pot, k)
        cost one `phase_parts` and one `trig_triplet` call."""
        pot = SquarePotential(-2.3, 0.8)
        table = build_phase_table(pot, ATOMIC, 0.01)
        calls, depth = [], [0]

        def counted(name, inner):
            def call(*args):  # counts calls from outside the kernel only
                if not depth[0]:
                    calls.append(name)
                depth[0] += 1
                try:
                    return inner(*args)
                finally:
                    depth[0] -= 1
            return call

        for name in ("phase_parts", "trig_triplet"):
            monkeypatch.setattr(_kernel, name, counted(name, getattr(_kernel, name)))
        causality_bounds(pot, ATOMIC, table, 1.1)
        for p in ("even", "odd"):
            dwell_time(pot, ATOMIC, 1.1, p)
        for p in ("even", "odd"):
            smith_identity_check(pot, ATOMIC, 1.1, p)
        assert sorted(calls) == ["phase_parts", "trig_triplet"]
