"""Packets, transmission probability, passage times, and the crossover width."""
import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import roots_legendre

from hartman import (
    ATOMIC,
    ConvergenceError,
    GaussianPacketSpec,
    PhysicalConstants,
    SquarePotential,
    ThresholdDivergenceError,
    classical_reference_time,
    critical_width,
    crossover_width_empirical,
    mean_exit_time,
    mean_exit_time_via_flux,
    packet_amplitude,
    threshold_depths,
    transmission_probability,
)
from hartman._kernel import W_CUT, scatter_grid
from hartman.quadrature import _lockstep, adaptive_quad, integral_to_zero
from hartman import _kernel, quadrature, wavepacket
from hartman.cli import v0_grid
from hartman.verify import CROSS_VALIDATION_CONFIGS, transmission_probability_simpson
from hartman.wavepacket import _bulk_wave

FIG3_PACKET = GaussianPacketSpec(k0=math.pi / 8, delta_p=1.0, x0=-41.0)
NARROW = GaussianPacketSpec(k0=2.0, delta_p=0.1, x0=-30.0)


@pytest.mark.parametrize(
    "build",
    [
        lambda: SquarePotential(1.0, math.inf),
        lambda: SquarePotential(math.inf, 1.0),
        lambda: GaussianPacketSpec(math.inf, 1.0, -5.0),
        lambda: GaussianPacketSpec(1.0, math.inf, -5.0),
        lambda: GaussianPacketSpec(1.0, 1.0, -math.inf),
        lambda: PhysicalConstants(hbar=math.inf),
        lambda: PhysicalConstants(mass=math.inf),
    ],
    ids=["half_width", "v0", "k0", "delta_p", "x0", "hbar", "mass"],
)
def test_infinite_inputs_rejected(build):
    """An infinite width, height, momentum, position or constant would give
    NaN amplitudes."""
    with pytest.raises(ValueError):
        build()


class TestPacket:
    def test_peak_at_central_momentum(self):
        p = np.linspace(0.01, 3.0, 2000)
        w = np.abs(packet_amplitude(FIG3_PACKET, p)) ** 2
        p_peak = p[np.argmax(w)]
        assert p_peak == pytest.approx(FIG3_PACKET.k0, abs=2e-3)

    def test_unit_normalization(self):
        for spec in (FIG3_PACKET, NARROW):
            w = lambda p: np.abs(packet_amplitude(spec, p)) ** 2
            norm = adaptive_quad(w, 1e-12, spec.p_max(), rel_tol=1e-12).value
            assert norm == pytest.approx(1.0, abs=1e-10)

    def test_x0_of_p_matches_phase_derivative(self):
        """x0(p) = -hbar d(arg phi)/dp, by central differences, is the spec's
        x0 at every p: the packet's phase puts its center at x0."""
        h = 1e-6
        for spec in (FIG3_PACKET, NARROW):
            for p in (0.3, 1.1, 2.0):
                args = np.unwrap(
                    [np.angle(packet_amplitude(spec, pp)) for pp in (p - h, p + h)]
                )
                fd = -(args[1] - args[0]) / (2.0 * h)
                assert fd == pytest.approx(spec.x0, rel=1e-8)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            packet_amplitude(FIG3_PACKET, -0.5)
        with pytest.raises(ValueError):
            GaussianPacketSpec(k0=-1.0, delta_p=1.0, x0=-5.0)


class TestTransmissionProbability:
    def test_free_is_unity(self):
        """The free packet's P_T is its norm, 1, to 1e-11."""
        pt = transmission_probability(FIG3_PACKET, SquarePotential(0.0, 1.0))
        assert pt == pytest.approx(1.0, abs=1e-11)

    @pytest.mark.parametrize("v0", [5e-324, 2.2250738585e-313, -1e-310])
    def test_subnormal_heights_behave_as_free(self, v0):
        """|v0| below the smallest normal double overflows the kernel's k -> 0
        slopes ~ 1/(g d); no RuntimeWarning escapes, P_T is the free packet's
        1, and the exit time diverges with a typed error, as when free."""
        spec, pot = GaussianPacketSpec(1.0, 0.5, -11.0), SquarePotential(v0, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert transmission_probability(spec, pot) == pytest.approx(1.0, abs=1e-15)
            with pytest.raises(ThresholdDivergenceError):
                mean_exit_time(spec, pot)

    def test_matches_fixed_grid_oracle(self):
        pot = SquarePotential(5.0, 1.0)
        pt = transmission_probability(FIG3_PACKET, pot)
        oracle = transmission_probability_simpson(FIG3_PACKET, pot)
        assert pt == pytest.approx(oracle, abs=1e-6)

    def test_never_exceeds_one(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            pot = SquarePotential(rng.uniform(-3, 6), rng.uniform(0.3, 1.5))
            pt = transmission_probability(FIG3_PACKET, pot)
            assert pt <= 1.0 + 1e-10

    def test_monotone_filtering_in_width(self):
        spec = GaussianPacketSpec(1.0, 0.2, -30.0)
        values = [
            transmission_probability(spec, SquarePotential(5.0, d / 2.0))
            for d in (0.5, 1.0, 2.0, 4.0)
        ]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_local_maximum_near_second_onset(self):
        """The transmission peak tracks the zero-energy resonance of a newly
        injected bound state."""
        v_thr = threshold_depths(1.0, 1, ATOMIC)[0]  # -pi^2/8
        v0s = np.arange(v_thr - 0.15, v_thr + 0.15, 0.01)
        pts = [
            transmission_probability(FIG3_PACKET, SquarePotential(v, 1.0))
            for v in v0s
        ]
        i = int(np.argmax(pts))
        assert 0 < i < len(v0s) - 1  # interior maximum
        assert abs(v0s[i] - v_thr) < 0.1


class TestClassicalReference:
    def test_free(self):
        t, defined = classical_reference_time(NARROW, SquarePotential(0.0, 1.0))
        assert defined
        assert t == pytest.approx((1.0 + 30.0) / 2.0)

    def test_well_value_frozen(self):
        # 40/(pi/8) + 2/sqrt((pi/8)^2 + 2)
        t, defined = classical_reference_time(FIG3_PACKET, SquarePotential(-1.0, 1.0))
        assert defined
        assert t == pytest.approx(103.22181796327214, rel=1e-13)

    def test_forbidden_height_flagged(self):
        spec = GaussianPacketSpec(k0=0.5, delta_p=0.1, x0=-10.0)
        t, defined = classical_reference_time(spec, SquarePotential(5.0, 1.0))
        assert not defined
        assert t == pytest.approx((1.0 + 10.0) / 0.5)


class TestCriticalWidth:
    def test_frozen_value(self):
        spec = GaussianPacketSpec(1.0, 0.1, -50.0)
        d_c = critical_width(spec, SquarePotential(5.0, 0.5))
        assert d_c == pytest.approx(38.96203899719368, rel=1e-13)

    def test_vanishes_at_barrier_momentum(self):
        pot = SquarePotential(5.0, 0.5)
        pb = math.sqrt(10.0)
        prev = math.inf
        for frac in (0.5, 0.9, 0.99):
            d_c = critical_width(GaussianPacketSpec(frac * pb, 0.1, -10.0), pot)
            assert d_c < prev
            prev = d_c
        assert prev < 0.2

    def test_inverse_square_dispersion_scaling(self):
        pot = SquarePotential(5.0, 0.5)
        d1 = critical_width(GaussianPacketSpec(1.0, 0.1, -10.0), pot)
        d2 = critical_width(GaussianPacketSpec(1.0, 0.2, -10.0), pot)
        assert d1 == pytest.approx(4.0 * d2, rel=1e-13)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            critical_width(GaussianPacketSpec(4.0, 0.1, -10.0), SquarePotential(5.0, 0.5))
        with pytest.raises(ValueError):
            critical_width(GaussianPacketSpec(1.0, 0.1, -10.0), SquarePotential(-5.0, 0.5))


class TestMeanExitTime:
    def test_free_narrow_matches_momentum_average(self):
        """T = 1: the mean exit time is the weighted free arrival time."""
        rep = mean_exit_time(NARROW, SquarePotential(0.0, 1.0))
        p = np.linspace(NARROW.k0 - 9 * 0.1, NARROW.k0 + 9 * 0.1, 200_001)
        w = np.abs(packet_amplitude(NARROW, p)) ** 2
        oracle = np.trapezoid(w * 31.0 / p, p) / np.trapezoid(w, p)
        assert rep.p_t == pytest.approx(1.0, abs=1e-8)
        assert rep.t_out == pytest.approx(float(oracle), rel=1e-7)
        assert rep.t_classical == pytest.approx(31.0 / 2.0)

    def test_packet_must_start_left(self):
        bad = GaussianPacketSpec(1.0, 0.1, -0.5)
        with pytest.raises(ValueError):
            mean_exit_time(bad, SquarePotential(1.0, 1.0))

    def test_threshold_divergence_detected_for_well(self):
        v_thr = threshold_depths(1.0, 1, ATOMIC)[0]
        with pytest.raises(ThresholdDivergenceError):
            mean_exit_time(FIG3_PACKET, SquarePotential(v_thr, 1.0))

    def test_threshold_divergence_detected_for_narrow_packet(self):
        """phi_in(0) is tiny but not zero: the cutoff halvings alone would
        return a finite time, the threshold pre-check refuses it."""
        v_thr = threshold_depths(1.0, 1, ATOMIC)[0]
        with pytest.raises(ThresholdDivergenceError):
            mean_exit_time(NARROW, SquarePotential(v_thr, 1.0))

    def test_p_t_is_transmission_probability(self):
        pot = SquarePotential(-0.30, 1.0)
        rep = mean_exit_time(FIG3_PACKET, pot)
        assert rep.p_t == transmission_probability(FIG3_PACKET, pot)

    def test_vanishing_transmission_raises(self):
        """P_T underflows to 0 behind an opaque barrier: no exit time rather
        than t_out = nan."""
        spec = GaussianPacketSpec(0.5, 1e-9, -200.0)
        with np.errstate(all="ignore"), pytest.raises(ValueError, match="weight vanishes"):
            mean_exit_time(spec, SquarePotential(5.0, 120.0))

    @pytest.mark.parametrize("dp", [1e-5, 1e-6, 1e-7, 1e-8, 1e-9, 1e-10])
    def test_narrow_packet_tends_to_stationary_phase(self, dp):
        """As dp -> 0, P_T -> |T(p0)|^2 and t_out -> m(a - x0 + Phi_T'(k0))/p0:
        the lower support edge p0 - 9 dp is seeded, so the nodes land inside
        the packet.  They lie on the float grid of spacing ulp(p0), so P_T
        agrees only to about ulp(p0)/dp."""
        pot, spec = SquarePotential(0.1, 1.0), GaussianPacketSpec(math.pi / 8, dp, -41.0)
        t, _, dphi, _, _ = scatter_grid(pot.strength(), pot.width, np.array([spec.k0]))
        rep = mean_exit_time(spec, pot)
        assert rep.p_t == transmission_probability(spec, pot)
        assert rep.p_t == pytest.approx(abs(t[0]) ** 2, rel=1e-8 + math.ulp(spec.p0()) / dp)
        assert rep.t_out == pytest.approx((pot.half_width - spec.x0 + dphi[0]) / spec.k0,
                                          rel=1e-8)

    @pytest.mark.parametrize("dp", [1e-200, 1e-160, 1e-17, 1e155, 1e200])
    def test_unresolved_or_unsquarable_width_rejected(self, dp):
        """Below 2^-32 p0 the nodes stop resolving the packet (dp = 1e-17 gave
        P_T = 3.47), and dp^2 must be a normal float."""
        spec, pot = GaussianPacketSpec(math.pi / 8, dp, -41.0), SquarePotential(0.1, 1.0)
        for run in (transmission_probability, mean_exit_time):
            with pytest.raises(ValueError, match="out of range"):
                run(spec, pot)
        with pytest.raises(ValueError, match="out of range"):
            crossover_width_empirical(GaussianPacketSpec(1.0, dp, -200.0),
                                      SquarePotential(5.0, 0.5))

    def test_free_divergence_detected_for_broad_packet(self):
        """v0 = 0 is the trivial threshold: T(0) = 1, so a packet with
        phi(0) != 0 has no finite mean exit time."""
        with pytest.raises(ThresholdDivergenceError):
            mean_exit_time(FIG3_PACKET, SquarePotential(0.0, 1.0))

    def test_enhancement_report_near_threshold(self):
        rep = mean_exit_time(FIG3_PACKET, SquarePotential(-0.30, 1.0))
        assert rep.p_t > 0.5
        assert rep.t_subtracted < 0.0
        assert rep.classical_defined

    def test_wells_close_to_threshold_are_finite(self):
        """Depths -(n pi)^2/8 (1 + delta) next to the first three thresholds:
        the time moment grows like 1/(n^2 |delta|) but converges.  Oracle: composite
        Simpson over u = ln p in [ln 1e-14, ln p_max], where |T|^2 rising over
        p ~ |delta| is as smooth as the packet's top."""
        deltas = (1e-5, -1e-5, 1e-6, -1e-6, 3e-8, -3e-8)
        u = np.linspace(math.log(1e-14), math.log(FIG3_PACKET.p_max()), 20001)
        p = np.exp(u)
        simpson = np.ones_like(u)
        simpson[1:-1:2], simpson[2:-1:2] = 4.0, 2.0
        simpson *= (u[1] - u[0]) / 3.0
        for n in (1, 2, 3):
            v0s = np.array([-((n * math.pi) ** 2) / 8.0 * (1.0 + d) for d in deltas])
            t, _, dphi, _, _ = _kernel.scatter_grid(2.0 * v0s[:, None], 2.0, p)
            w = wavepacket.packet_weight(FIG3_PACKET, p) * np.abs(t) ** 2
            p_t = (w * p) @ simpson
            t_out = (w * (1.0 - FIG3_PACKET.x0 + dphi)) @ simpson / p_t
            for v0, want_p_t, want_t, delta in zip(v0s, p_t, t_out, deltas):
                rep = mean_exit_time(FIG3_PACKET, SquarePotential(v0, 1.0))
                assert rep.p_t == pytest.approx(want_p_t, rel=1e-7), (n, delta)
                assert rep.t_out == pytest.approx(want_t, rel=1e-7), (n, delta)
                assert math.copysign(1.0, rep.t_out) == -math.copysign(1.0, delta)
                assert abs(rep.t_out) > 0.2 / (n * n * abs(delta))


@pytest.mark.parametrize("pot, spec", list(CROSS_VALIDATION_CONFIGS) + [
    (SquarePotential(-math.pi**2 / 8.0 * (1.0 + d), 1.0), FIG3_PACKET) for d in (1e-5, -1e-5)] + [
    (SquarePotential(0.0, 1.0), GaussianPacketSpec(0.65, 0.1, -30.0))])
def test_moment_from_p_t_panels_matches_fresh_seeds(pot, spec):
    """The time moment starts from the panels P_T evaluated, and both end in
    the closed-form tail below p_c; integrated from fresh seeds over
    [eps, p_max], with the cutoff halvings of `integral_to_zero` below eps,
    each agrees to twice the integrals' rel_tol."""
    aprime = pot.half_width - spec.x0
    g = pot.strength(ATOMIC)

    def weight(p):
        return wavepacket._transmitted_weight(spec, ATOMIC, g, pot.width, p)[0]

    def moment(p):
        wgt, dphi = wavepacket._transmitted_weight(spec, ATOMIC, g, pot.width, p)
        return wgt * (aprime + dphi) / p

    eps, p_hi = wavepacket._cutoff(spec, ATOMIC), spec.p_max()
    (_, _, breaks), = wavepacket._intervals(spec, ATOMIC, g, pot.width, eps, p_hi)
    tol = wavepacket._REL_TOL
    fresh = []
    for f in (weight, moment):
        main = adaptive_quad(f, eps, p_hi, rel_tol=tol, breakpoints=breaks).value
        fresh.append(main + integral_to_zero(f, eps, rel_tol=tol, reference=main))
    rep = mean_exit_time(spec, pot)
    assert rep.p_t == pytest.approx(fresh[0], rel=2.0 * tol)
    assert rep.t_out == pytest.approx(ATOMIC.mass * fresh[1] / rep.p_t, rel=2.0 * tol)

@pytest.mark.parametrize("v0", [5.0, 0.4, 0.0, -0.3, -1.6] + [
    threshold_depths(1.0, 1, ATOMIC)[0] * (1.0 + s) for s in (1e-6, -1e-6)])
def test_packet_weight_is_scatter_grid_abs_t2(v0):
    """|phi_in|^2/|D|^2, the packet integrand's weight, is |phi_in|^2 |T|^2
    with T from `scatter_grid` to 1e-14 relative, and its dPhi_T/dk is
    `scatter_grid`'s, on barriers, wells, wells next to a threshold and the
    free case."""
    pot = SquarePotential(v0, 1.0)
    g = pot.strength(ATOMIC)
    p = np.geomspace(1e-8, FIG3_PACKET.p_max(), 4001)
    wgt, dphi = wavepacket._transmitted_weight(FIG3_PACKET, ATOMIC, g, pot.width, p)
    t, _, want_dphi, _, _ = scatter_grid(g, pot.width, p)
    want = wavepacket.packet_weight(FIG3_PACKET, p) * np.abs(t) ** 2
    assert np.all(want > 0)
    np.testing.assert_allclose(wgt, want, rtol=1e-14, atol=0)
    assert dphi.tobytes() == want_dphi.tobytes()


class TestLowMomentumTail:
    """The closed-form tail of the packet integrals below p_c."""

    @staticmethod
    def _fig3_pots():
        return [SquarePotential(-1.6 + 0.01 * i, 1.0) for i in range(201)]

    def test_fig3_starts_at_k_over_256_without_halving(self):
        """On fig3's rows the two-term |T|^2 holds at min(eps, hbar K/256) to
        1e-10, so no p_c is halved; the free row starts at eps/256."""
        g = np.array([pot.strength() for pot in self._fig3_pots()])
        p_c = wavepacket._tails(FIG3_PACKET, ATOMIC, g, 2.0)[0]
        eps = wavepacket._cutoff(FIG3_PACKET, ATOMIC)
        K = _kernel.low_k_limits(g, 2.0)[2]
        want = np.clip(K / wavepacket._TAIL_DEPTH, eps * wavepacket._TAIL_FLOOR, eps)
        want[160] = eps / 256.0  # v0 = 0: K = 0 puts it at the floor
        assert p_c.tobytes() == want.tobytes()

    def test_fig3_rows_seed_at_most_14_panels(self, monkeypatch):
        """No fig3 row seeds more than 14 panels, the free row's 14 the most:
        its p_c = eps/256 gives it 8 geometric panels below eps."""
        seeds = []
        inner = quadrature._evaluate

        def evaluate(f, lo, hi, owner):
            if not seeds:
                seeds.extend(np.bincount(owner).tolist())
            return inner(f, lo, hi, owner)

        monkeypatch.setattr(quadrature, "_evaluate", evaluate)
        wavepacket._exit_times(FIG3_PACKET, self._fig3_pots(), ATOMIC)
        assert len(seeds) == 201 and max(seeds) == seeds[160] == 14

    def test_guard_halves_p_c_until_two_term_model_holds(self, monkeypatch):
        """Started at K itself, where k^2/(alpha + beta k^2) misses the kernel's
        |T|^2 by more than 1e-10, p_c is halved until the two agree."""
        monkeypatch.setattr(wavepacket, "_TAIL_DEPTH", 1.0)
        pots = [SquarePotential(-math.pi**2 / 8.0 * (1.0 + d), 1.0) for d in (1e-3, 1e-4, -1e-3)]
        g = np.array([pot.strength() for pot in pots])
        p_c = wavepacket._tails(FIG3_PACKET, ATOMIC, g, 2.0)[0]
        alpha, beta, K = _kernel.low_k_limits(g, 2.0)[:3]
        eps = wavepacket._cutoff(FIG3_PACKET, ATOMIC)
        assert np.all(p_c < np.minimum(K, eps)) and np.all(p_c > eps * 2.0**-60)
        for k, ok in ((p_c, True), (2.0 * p_c, False)):
            model = k * k / (alpha + beta * k * k)
            kernel = 1.0 / _kernel.transmission_grid(g, 2.0, k)[0]
            assert np.all((np.abs(kernel - model) <= 1e-10 * model) == ok)

    def test_free_moment_diverges_by_the_halving_rule(self):
        """alpha = 0: the moment grows by w0 |a' + Phi_T'(0)| ln 2/beta per
        halving of p_c, and raises exactly when that exceeds half of rel_tol
        of the integral above p_c, as the cutoff halvings' end rule did."""
        pot = SquarePotential(0.0, 1.0)
        outcomes = []
        for k0 in (0.55, 0.6, 0.62, 0.65, 0.7, 2.0):
            spec = GaussianPacketSpec(k0, 0.1, -30.0)
            (p_c,), _, _, (log_coef,) = wavepacket._tails(spec, ATOMIC, np.zeros(1), pot.width)
            assert p_c == wavepacket._cutoff(spec, ATOMIC) / 256.0
            w0 = wavepacket.packet_weight(spec, 0.0)
            assert log_coef == pytest.approx(w0 * (1.0 + 30.0) * math.log(2.0), rel=1e-14)
            (main,), = _lockstep(lambda p, _: wavepacket.packet_weight(spec, p) * 31.0 / p,
                                 wavepacket._intervals(spec, ATOMIC, 0.0, pot.width, p_c,
                                                       spec.p_max()),
                                 rel_tol=wavepacket._REL_TOL)
            diverges = log_coef > 0.5 * wavepacket._REL_TOL * main.value
            try:
                rep = mean_exit_time(spec, pot)
            except ThresholdDivergenceError:
                outcomes.append(True)
            else:
                outcomes.append(False)
                assert rep.t_out == pytest.approx(main.value / rep.p_t, rel=1e-8)
            assert outcomes[-1] == diverges, k0
        assert outcomes == [True, True, True, False, False, False]
        # the free cross-validation packet keeps its exit time
        rep = mean_exit_time(NARROW, SquarePotential(0.0, 1.0))
        assert rep.t_out == pytest.approx(15.539044322857809, rel=1e-8)

    def test_opaque_barrier_tail_is_zero(self):
        """beta overflows from kappa0 d ~ 353 (d = 111.7 at v0 = 5), alpha from
        355 (d = 120): p_c = eps, both tails are 0, and P_T stays finite."""
        spec = GaussianPacketSpec(1.0, 0.1, -400.0)
        pots = [SquarePotential(5.0, a) for a in (55.872, 60.0, 64.0, 300.0)]
        eps = wavepacket._cutoff(spec, ATOMIC)
        with np.errstate(all="ignore"):
            for pot in pots:
                tails = wavepacket._tails(spec, ATOMIC, np.array([pot.strength()]), pot.width)
                assert tails[0] == eps and not np.any(tails[1:])
                p_t = transmission_probability(spec, pot)
                assert math.isfinite(p_t) and 0.0 <= p_t < 1e-250


def _reference_rows(spec, pots, lo, hi, consts=ATOMIC):
    """The per-row loop `wavepacket._intervals` replaced: lo 2^j below eps, eps,
    and above eps the lower support edge p0 - 9 dp, the barrier momentum and
    the resonances q d = n pi below hi."""
    eps = wavepacket._cutoff(spec, consts)
    rows = []
    for pot, a, b in zip(pots, lo, hi):
        low, p = [], 2.0 * a
        while p < eps:
            low.append(p)
            p *= 2.0
        g, d = pot.strength(consts), pot.width
        pts = [spec.p0(consts) - 9.0 * spec.delta_p]
        pts += [pot.barrier_momentum(consts)] if pot.v0 > 0 else []
        k_hi = b / consts.hbar
        for n in range(1, int(d * math.sqrt(max(k_hi * k_hi - g, 0.0)) / math.pi) + 2):
            mu = (n * math.pi / d) ** 2 + g
            if mu > 0:
                pts.append(consts.hbar * math.sqrt(mu))
        rows.append((a, b, low + [eps] + [p for p in pts if eps < p < b]))
    return rows


def _edges(rows):
    """The panel edges `_lockstep` seeds each row with."""
    return [[a, *sorted(p for p in set(bp) if a < p < b), b] for a, b, bp in rows]


class TestIntervals:
    """`wavepacket._intervals` forms every row's seeds in arrays; they must be
    the per-row loop's, bit for bit."""

    @staticmethod
    def _check(spec, pots, lo, hi):
        g = np.array([pot.strength() for pot in pots])
        rows = wavepacket._intervals(spec, ATOMIC, g, pots[0].width, lo, hi)
        want = _edges(_reference_rows(spec, pots, np.broadcast_to(lo, len(pots)),
                                      np.broadcast_to(hi, len(pots))))
        assert [[x.hex() for x in e] for e in _edges(rows)] == [[x.hex() for x in e] for e in want]
        return rows

    def test_fig3_rows(self):
        pots = [SquarePotential(v0, 1.0) for v0 in v0_grid(-1.6, 0.4, 0.01)]
        g = np.array([pot.strength() for pot in pots])
        p_c = wavepacket._tails(FIG3_PACKET, ATOMIC, g, 2.0)[0]
        rows = self._check(FIG3_PACKET, pots, p_c, FIG3_PACKET.p_max())
        assert len(rows) == 201 and max(len(_edges([r])[0]) - 1 for r in rows) == 14

    @pytest.mark.parametrize("pot, spec", CROSS_VALIDATION_CONFIGS)
    def test_cross_validation_rows(self, pot, spec):
        p_c = wavepacket._tails(spec, ATOMIC, np.array([pot.strength()]), pot.width)[0]
        self._check(spec, [pot], p_c, spec.p_max())

    @pytest.mark.parametrize("width", [1e-3, 1.0, 41.14098217773437, 112.0, 4096.0])
    def test_crossover_rows(self, width):
        """Below p_b only the low seeds and eps; above it the resonances."""
        spec, v0 = GaussianPacketSpec(1.0, 0.06, -200.0), 5.0
        pot = SquarePotential(v0, width / 2.0)
        p_b = pot.barrier_momentum()
        with np.errstate(over="ignore", invalid="ignore"):
            (p_c,) = wavepacket._tails(spec, ATOMIC, np.array([pot.strength()]), width)[0]
        self._check(spec, [pot, pot], [p_c, p_b], [p_b, max(spec.p_max(), p_b + 0.36)])

    def test_too_many_seeds_raise_before_forming(self, monkeypatch):
        """A row spanning more resonances than the panel budget raises
        ConvergenceError from its closed-form count, with no array formed."""
        monkeypatch.setattr(np, "repeat", None)  # the formation's first step
        spec = GaussianPacketSpec(math.pi / 8, 1e150, -41.0)
        with pytest.raises(ConvergenceError, match="more than the budget of 4000"):
            wavepacket._intervals(spec, ATOMIC, [0.2], 2.0, [1e-3], spec.p_max())


class TestExitTimeBatch:
    """`wavepacket._exit_times` runs the rows of a packet sweep in lockstep;
    each row must come out as its own `mean_exit_time` call gives it."""

    @staticmethod
    def _single(pot):
        try:
            return mean_exit_time(FIG3_PACKET, pot)
        except (ConvergenceError, ValueError) as exc:
            return exc

    def test_matches_single_rows_bitwise(self):
        v_thr = threshold_depths(1.0, 1, ATOMIC)[0]
        v0s = (0.4, 0.35, 0.1, 0.02, 0.0, -0.05, -0.3, -0.9, -1.2, -1.22, -1.233,
               v_thr, -1.234, -1.24, -1.3, -1.6, -2.5, -4.9, v_thr * 4 - 1e-3, -5.0)
        pots = [SquarePotential(v0, 1.0) for v0 in v0s]
        rows = wavepacket._exit_times(FIG3_PACKET, pots, ATOMIC)
        assert len(rows) == len(pots)
        diverged = 0
        for pot, (p_t, rep) in zip(pots, rows):
            assert p_t == transmission_probability(FIG3_PACKET, pot)
            want = self._single(pot)
            if isinstance(want, Exception):
                assert type(rep) is type(want) and rep.args == want.args
                diverged += isinstance(rep, ThresholdDivergenceError)
            else:
                assert rep == want
        assert diverged >= 2  # the free row and the exact threshold

    def test_row_error_stays_in_its_row(self, monkeypatch):
        """A row whose integrand is NaN gets its own ConvergenceError; the
        rows beside it are unchanged."""
        pots = [SquarePotential(v0, 1.0) for v0 in (-0.3, 0.2, -0.9)]
        want = [mean_exit_time(FIG3_PACKET, pot) for pot in pots]
        bad_g = pots[1].strength(ATOMIC)
        inner = _kernel.transmission_grid

        def poisoned(g, width, k):
            den, *rest = inner(g, width, k)
            return np.where(g == bad_g, np.nan, den), *rest

        monkeypatch.setattr(_kernel, "transmission_grid", poisoned)
        rows = wavepacket._exit_times(FIG3_PACKET, pots, ATOMIC)
        assert isinstance(rows[1][0], ConvergenceError) and rows[1][1] is rows[1][0]
        assert [rows[0][1], rows[2][1]] == [want[0], want[2]]


class TestFluxOracle:
    def test_reversed_window_rejected(self):
        with pytest.raises(ValueError, match="invalid time window"):
            mean_exit_time_via_flux(NARROW, SquarePotential(0.0, 1.0), t_window=(5.0, 1.0))

    def test_free_narrow_matches_analytic_arrival(self):
        t_flux = mean_exit_time_via_flux(NARROW, SquarePotential(0.0, 1.0))
        p = np.linspace(NARROW.k0 - 9 * 0.1, NARROW.k0 + 9 * 0.1, 200_001)
        w = np.abs(packet_amplitude(NARROW, p)) ** 2
        oracle = float(np.trapezoid(w * 31.0 / p, p) / np.trapezoid(w, p))
        assert t_flux == pytest.approx(oracle, rel=1e-4)

    def test_cross_validates_momentum_route(self):
        pot = SquarePotential(5.0, 0.5)
        spec = GaussianPacketSpec(1.0, 0.1, -20.0)
        rep = mean_exit_time(spec, pot)
        t_flux = mean_exit_time_via_flux(spec, pot)
        assert t_flux == pytest.approx(rep.t_out, rel=1e-3)

    @pytest.mark.parametrize("v0", [0.0, 0.4], ids=["free", "barrier"])
    def test_non_unit_constants(self, v0):
        """hbar and m enter the oracle's phase, stationary point, window and
        psi_x; at hbar = 2, m = 3 it still matches the momentum route."""
        consts = PhysicalConstants(hbar=2.0, mass=3.0)
        spec = GaussianPacketSpec(1.0, 0.1, -60.0)
        pot = SquarePotential(v0, 1.0)
        rep = mean_exit_time(spec, pot, consts)
        assert mean_exit_time_via_flux(spec, pot, consts) == pytest.approx(rep.t_out, rel=1e-3)

    @pytest.mark.parametrize("v0", [5.0, -1.3, -1e-4, 0.0])
    @pytest.mark.parametrize(
        "consts", [ATOMIC, PhysicalConstants(hbar=2.0, mass=3.0)], ids=["atomic", "hbar2_m3"]
    )
    def test_bulk_wave_matches_separate_factors(self, v0, consts):
        """The fused integrand N/sqrt(h) (1/D) e^{...} equals
        phi_in T / sqrt(h) e^{i(p a - p^2 t/2m)/hbar} built from
        `packet_amplitude` and `scatter_grid`, on both sides of the series
        switch |mu| d^2 = W_CUT, and in the oracle's 2-D call (times x nodes,
        the times as a column), where the barrier's rows hold both kernel
        branches and take the masked path."""
        pot = SquarePotential(v0, 0.7)
        spec = GaussianPacketSpec(1.1, 0.4, -6.0)
        g, d = pot.strength(consts), pot.width
        mu = np.outer([-1.0, 1.0], [0.3, 0.9, 1.1, 3.0]).ravel() * W_CUT / d**2
        k = np.concatenate([np.sqrt(g + mu[g + mu > 0]), np.linspace(0.02, 3.0, 40)])
        if v0 in (0.0, -1e-4):
            w = np.abs(k * k - g) * d * d
            assert np.any(w < W_CUT) and np.any(w > W_CUT)
        p = consts.hbar * k

        def expected(p, t):
            return (
                packet_amplitude(spec, p, consts) * scatter_grid(g, d, p / consts.hbar)[0]
                / math.sqrt(consts.h)
                * np.exp(1j * (p * pot.half_width - p * p * t / (2.0 * consts.mass)) / consts.hbar)
            )

        for t in (0.0, 3.7, 25.0):
            fused = _bulk_wave(spec, pot, consts, p, t)
            np.testing.assert_allclose(fused, expected(p, t), rtol=1e-12, atol=0.0)
        ts = np.array([0.0, 3.7, 25.0, 140.0])
        rows = p * (1.0 + 0.05 * np.arange(len(ts)))[:, None]
        if v0 > 0:
            direct = (rows / consts.hbar) ** 2 - g
            direct = np.where(np.abs(direct) * d * d > W_CUT, direct, 0.0)
            assert np.all(np.any(direct < 0, axis=1) & np.any(direct > 0, axis=1))
        fused = _bulk_wave(spec, pot, consts, rows, ts[:, None])
        assert fused.shape == rows.shape
        for row, t, f_row in zip(rows, ts, fused):
            np.testing.assert_allclose(f_row, expected(row, t), rtol=1e-12, atol=0.0)

    def test_oracle_nodes_match_scipy(self):
        """The rule from Newton steps on P_n's recurrence: ascending nodes
        within 2e-16 of SciPy's `roots_legendre`, weights within 5e-9 of its
        (its end weights are off by 2.3e-9, these by 5.6e-12 against 40-digit
        mpmath), and exact on even powers."""
        x, w = wavepacket._oracle_nodes()
        sx, sw = roots_legendre(len(x))
        assert np.all(np.diff(x) > 0)
        np.testing.assert_allclose(x, sx, rtol=0, atol=2e-16)
        np.testing.assert_allclose(w, sw, rtol=5e-9, atol=0)
        for k in (0, 10, 200):
            assert w @ x ** (2 * k) == pytest.approx(2.0 / (2 * k + 1), rel=1e-13)

    def test_window_deficit_raises(self):
        with pytest.raises(ConvergenceError) as err:
            mean_exit_time_via_flux(
                NARROW, SquarePotential(0.0, 1.0), t_window=(0.0, 8.0)
            )
        assert "deficit" in str(err.value)

    def test_window_covers_packet_width(self):
        """A packet wide in x (hbar/(2 dp) = 10) still arrives after
        1.5 a'/p_cut; the default window reaches past its far side."""
        spec = GaussianPacketSpec(2.0, 0.05, -45.0)
        pot = SquarePotential(0.0, 1.0)
        rep = mean_exit_time(spec, pot)
        assert mean_exit_time_via_flux(spec, pot) == pytest.approx(rep.t_out, rel=1e-3)

    def test_halved_step_moves_cross_validation_little(self, monkeypatch):
        """The half-grid check's claim, checked directly: halving the time
        step moves every cross-validation result by at most 1e-6."""
        results = [mean_exit_time_via_flux(spec, pot) for pot, spec in CROSS_VALIDATION_CONFIGS]
        monkeypatch.setattr(wavepacket, "_DT", wavepacket._DT / 2.0)
        for (pot, spec), t in zip(CROSS_VALIDATION_CONFIGS, results):
            assert mean_exit_time_via_flux(spec, pot) == pytest.approx(t, rel=1e-6, abs=0.0)

    @pytest.mark.parametrize(
        "spec, pot",
        [
            (GaussianPacketSpec(0.4, 0.02, -250.0), SquarePotential(0.5, 0.5)),
            (GaussianPacketSpec(0.3, 0.03, -120.0), SquarePotential(-1.0, 1.0)),
        ],
        ids=["barrier", "well"],
    )
    def test_halved_step_moves_late_arrival_little(self, spec, pot, monkeypatch):
        """Slow packets that arrive well after t0 + _T_UNIFORM: their main
        pulse lies on the geometric grid, and halving the step still moves
        the result by at most 1e-6."""
        t = mean_exit_time_via_flux(spec, pot)
        assert t == pytest.approx(mean_exit_time(spec, pot).t_out, rel=1e-3)
        monkeypatch.setattr(wavepacket, "_DT", wavepacket._DT / 2.0)
        assert mean_exit_time_via_flux(spec, pot) == pytest.approx(t, rel=1e-6, abs=0.0)

    @pytest.mark.xfail(
        strict=True,
        reason="near-threshold flux tail outlasts the default window (ROADMAP item 5)",
    )
    def test_near_threshold_well_matches_momentum_route(self):
        """v0 = -1.22 lies just below a new bound state of fig3's well: the
        oracle passes both of its checks yet reads 143.39 against 142.64
        (5.2e-3), and wider explicit windows keep moving its result."""
        pot = SquarePotential(-1.22, 1.0)
        rep = mean_exit_time(FIG3_PACKET, pot)
        assert mean_exit_time_via_flux(FIG3_PACKET, pot) == pytest.approx(rep.t_out, rel=1e-3)

    def test_coarse_step_raises_half_grid_error(self, monkeypatch):
        """A time step far too coarse for the flux is caught by the half-grid
        estimate before the window's deficit is judged."""
        monkeypatch.setattr(wavepacket, "_DT", 4.0)
        with pytest.raises(ConvergenceError, match="half-grid") as err:
            mean_exit_time_via_flux(NARROW, SquarePotential(0.0, 1.0))
        assert "deficit" not in str(err.value)
        assert err.value.error > 1e-4

    def test_cost_guard(self, monkeypatch):
        """Times and kernel points on the coarse-grid cross-validation config
        (v0 = 0.4): 1,676 times (0.97M points) with the geometric grid from
        t0 + 80, 4,302 (2.48M) when it started at 2.5 arrival times; no
        batch holds more than _CHUNK points."""
        pot, spec = CROSS_VALIDATION_CONFIGS[4]
        batches = []
        inner = wavepacket._windowed_wave

        def counting(spec, pot, consts, tc, p_hi):
            batches.append(len(tc) * len(wavepacket._oracle_nodes()[0]))
            return inner(spec, pot, consts, tc, p_hi)

        monkeypatch.setattr(wavepacket, "_windowed_wave", counting)
        mean_exit_time_via_flux(spec, pot)
        nodes = len(wavepacket._oracle_nodes()[0])
        assert sum(batches) // nodes <= 2000
        assert sum(batches) <= 2000 * nodes
        assert max(batches) <= wavepacket._CHUNK


class TestCrossoverWidth:
    def test_narrower_packet_needs_wider_barrier(self):
        pot = SquarePotential(5.0, 0.5)
        wide = crossover_width_empirical(
            GaussianPacketSpec(1.0, 0.30, -10.0), pot, tol=1e-2
        )
        narrow = crossover_width_empirical(
            GaussianPacketSpec(1.0, 0.22, -10.0), pot, tol=1e-2
        )
        assert narrow > wide

    def test_wide_trial_barriers_raise_no_warning(self):
        """The bracket reaches d = 128 (kappa d about 384), barriers wide enough
        to overflow the kernel's intermediates; |T|^2 is 0 there, no
        RuntimeWarning escapes, and the width agrees with an independent
        split (SciPy `quad` on the closed-form |T|^2, in logs) to `tol`."""
        v0, spec, tol = 5.0, GaussianPacketSpec(1.0, 0.06, -200.0), 1e-3
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            width = crossover_width_empirical(spec, SquarePotential(v0, 0.5), tol=tol)
        assert width == 112.09387426757812

        p_b, k0, dp = math.sqrt(2.0 * v0), spec.k0, spec.delta_p
        shift = (p_b - k0) ** 2 / (2.0 * dp * dp) - 5.0  # scales both shares to about 1e-6

        def weight(p):  # |phi_in|^2 up to its norm, times e^shift
            return math.exp(shift - (p - k0) ** 2 / (2.0 * dp * dp))

        def below(p, d):  # |T|^2 = 1/(1 + X), X = (p^2 + kappa^2)^2 sinh^2(kappa d)/(4 p^2 kappa^2)
            kap2 = p_b * p_b - p * p
            x = math.sqrt(kap2) * d
            log_x = (2.0 * (x + math.log1p(-math.exp(-2.0 * x)) - math.log(2.0))
                     + 2.0 * math.log(p * p + kap2) - math.log(4.0 * p * p * kap2))
            return weight(p) * math.exp(-np.logaddexp(0.0, log_x))

        def above(p, d):  # X = (v0 sin(q d)/(q p))^2
            q = math.sqrt(p * p - p_b * p_b)
            return weight(p) / (1.0 + (v0 * d * np.sinc(q * d / math.pi) / p) ** 2)

        def split(d):
            return (quad(below, 0.0, p_b, args=(d,), epsabs=0.0, epsrel=1e-10, limit=200)[0]
                    - quad(above, p_b, p_b + 0.5, args=(d,), epsabs=0.0, epsrel=1e-10,
                           limit=400)[0])

        root = brentq(split, width * (1.0 - 2.0 * tol), width * (1.0 + 2.0 * tol), xtol=1e-6)
        assert abs(root - width) <= tol * width

    def test_unrepresentable_above_barrier_share_raises(self):
        """The above-barrier share of this packet, about e^-933, is 0.0 at
        every width: the only "crossover" left would be where the below-barrier
        share underflows too."""
        with pytest.raises(ConvergenceError, match="no crossover can be represented"):
            crossover_width_empirical(GaussianPacketSpec(1.0, 0.05, -200.0),
                                      SquarePotential(5.0, 0.5))

    def test_no_bracket_when_above_barrier_dominates(self):
        pot = SquarePotential(0.5, 0.5)
        spec = GaussianPacketSpec(0.9, 1.5, -10.0)  # almost all mass above p_b
        with pytest.raises(ConvergenceError):
            crossover_width_empirical(spec, pot)
