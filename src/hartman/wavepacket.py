"""Truncated-Gaussian packets and flux-averaged passage times.

The incident state is Gaussian in momentum, restricted to p > 0 and
renormalized:

    phi_in(p, 0) = N exp(-(p - p0)^2 / (4 dp^2)) exp(-i p x0 / hbar),

with N fixed by integral |phi_in|^2 dp = 1 over (0, inf).  The mean exit
time of the transmitted packet past the right edge x = a is the flux average

    <t> = (m / P_T) integral dp/p |phi_in|^2 |T|^2 [a - x0(p) + hbar Phi_T'(p)],
    P_T = integral dp |phi_in|^2 |T|^2,

where x0(p) = -hbar Im(phi'/phi) is constant (= x0) for this packet.  The
same average can be formed directly in the time domain from the transmitted
flux J_T(a, t); `mean_exit_time_via_flux` does that reconstruction on a time
grid and serves as the independent cross-check.

Both integrals are improper at p = 0.  Off the bound-state thresholds
|T(p)| = O(p) keeps them finite; exactly at a threshold |T(0)| = 1 and the
mean exit time diverges for any packet with phi_in(0) != 0, which is
detected and reported rather than silently truncated.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import _kernel
from .boundstates import is_at_threshold
from .errors import ConvergenceError, ThresholdDivergenceError
from .potential import ATOMIC, PhysicalConstants, SquarePotential
from .quadrature import _adaptive, _first_error, _lockstep, _refine, _to_zero

# packet momentum support: beyond p0 + _SUPPORT_SIGMAS * dp the Gaussian
# mass is below 1e-16 of the total
_SUPPORT_SIGMAS = 9.0
# adaptive panels of a packet integral start at this fraction of min(p0, dp)
_CUTOFF_FRACTION = 1e-3
_REL_TOL = 1e-8  # P_T and the exit-time moment
_SPLIT_REL_TOL = 1e-6  # crossover_width_empirical's split integrals
_D_MAX = 1e4  # widest barrier crossover_width_empirical tries
# flux oracle: window half-width in units of sqrt(2 pi hbar m / t); the one
# time step and the span t0 + 80 over which it stays uniform, the step being
# continuous, _DT max(1, t/(t0 + 80)), and proportional to t on the
# geometric grid beyond; the share of tol the half-grid error estimate of the
# time integrals may take; spatial widths hbar/(2 dp) of the packet's far side
# the default window waits for; momentum points of the P_T reference; and
# kernel points (times x Gauss nodes) per batch: 1 MB complex arrays, which
# stay in L2 cache (1.40 s for the five cross-validation configs, 1.95 s at
# 2**18 points, on a 2-core Xeon with 2 MB of L2 per core)
_W_MULT = 12.0
_DT = 0.25
_T_UNIFORM = 80.0
_GRID_TOL_SHARE = 0.1
_WINDOW_SIGMAS = 4.0
_P_POINTS = 20001
_CHUNK = 2**16


@dataclass(frozen=True)
class GaussianPacketSpec:
    """Truncated-Gaussian incident packet in momentum representation."""

    k0: float  # central wavenumber
    delta_p: float  # momentum standard deviation
    x0: float  # packet center at t = 0

    def __post_init__(self):
        if not (0 < self.k0 < math.inf):
            raise ValueError(f"k0 must be positive and finite, got {self.k0}")
        if not (0 < self.delta_p < math.inf):
            raise ValueError(f"delta_p must be positive and finite, got {self.delta_p}")
        if not math.isfinite(self.x0):
            raise ValueError(f"x0 must be finite, got {self.x0}")

    def p0(self, consts: PhysicalConstants = ATOMIC) -> float:
        return consts.hbar * self.k0

    def norm_constant(self, consts: PhysicalConstants = ATOMIC) -> float:
        """N with integral over (0, inf) of |phi_in|^2 dp equal to one."""
        z = self.p0(consts) / self.delta_p
        truncated_mass = 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))
        return 1.0 / math.sqrt(self.delta_p * math.sqrt(2.0 * math.pi) * truncated_mass)

    def p_max(self, consts: PhysicalConstants = ATOMIC) -> float:
        return self.p0(consts) + _SUPPORT_SIGMAS * self.delta_p


@dataclass(frozen=True)
class PassageTimeReport:
    p_t: float  # transmission probability
    t_out: float  # mean exit time at x = a
    t_classical: float  # classical reference (in-well speed inside)
    t_subtracted: float  # t_out - t_classical
    classical_defined: bool  # False when p0^2 <= 2 m V0


def packet_amplitude(
    spec: GaussianPacketSpec, p, consts: PhysicalConstants = ATOMIC
):
    """phi_in(p, 0); p must be positive (the packet has no p <= 0 content)."""
    arr = np.asarray(p, dtype=float)
    if np.any(arr <= 0):
        raise ValueError("packet amplitude is defined for p > 0 only")
    p0 = spec.p0(consts)
    n = spec.norm_constant(consts)
    out = n * np.exp(
        -((arr - p0) ** 2) / (4.0 * spec.delta_p**2)
        - 1j * arr * spec.x0 / consts.hbar
    )
    return complex(out) if np.isscalar(p) else out


def packet_weight(spec, p, consts: PhysicalConstants = ATOMIC):
    """|phi_in(p)|^2 without the phase evaluation."""
    arr = np.asarray(p, dtype=float)
    p0 = spec.p0(consts)
    n = spec.norm_constant(consts)
    return n * n * np.exp(-((arr - p0) ** 2) / (2.0 * spec.delta_p**2))


def _resonance_breakpoints(pot, consts, p_lo, p_hi):
    """Momenta of unit-transmission resonances q d = n pi, plus the barrier
    momentum where the tunneling/propagating kink sits."""
    g = pot.strength(consts)
    d = pot.width
    pts = []
    if pot.v0 > 0:
        pts.append(pot.barrier_momentum(consts))
    k_hi = p_hi / consts.hbar
    n_max = int(d * math.sqrt(max(k_hi * k_hi - g, 0.0)) / math.pi) + 1
    for n in range(1, n_max + 1):
        mu = (n * math.pi / d) ** 2 + g
        if mu > 0:
            pts.append(consts.hbar * math.sqrt(mu))
    return [p for p in pts if p_lo < p < p_hi]


def _transmitted_weight(spec, consts, g, width, p):
    """|phi_in|^2 |T|^2 = |phi_in|^2/|D|^2 and dPhi_T/dk at momenta p, from one kernel call."""
    p = np.asarray(p, dtype=float)
    den, dphi = _kernel.transmission_grid(g, width, p / consts.hbar)[:2]
    return packet_weight(spec, p, consts) / den, dphi


def _span(spec, pot, consts, p_hi):
    """(eps, p_hi, breakpoints) of a packet integral over (0, p_hi]: the
    packet's low cutoff eps and the resonances of `pot` between."""
    eps = min(spec.p0(consts), spec.delta_p) * _CUTOFF_FRACTION
    return eps, p_hi, _resonance_breakpoints(pot, consts, eps, p_hi)


def _from_zero(eps, p_hi, breaks, rel_tol=_REL_TOL, start=None):
    """Lockstep integral of component 0 over (0, p_hi]: adaptive panels from
    eps up, seeded at `breaks`, and halvings below eps.  Returns (value,
    panels): the final main panels and the seeded halvings, every component.
    Given those panels as `start`, it integrates component 1 from them instead."""
    on, halvings = (0, ()) if start is None else (1, start[1])
    main = (_adaptive(eps, p_hi, rel_tol=rel_tol, breakpoints=breaks) if start is None
            else _refine(start[0], rel_tol, 0.0, 1))
    start = None  # the refinement copies the main panels into its own store
    main = yield from main
    tail, halvings = yield from _to_zero(eps, rel_tol=rel_tol, reference=main.value, on=on,
                                         seeds=halvings)
    return main.value + tail, (main.panels, halvings)


def _packet_integrals(spec, consts, pots, integrals) -> list:
    """Lockstep results (or exceptions) of `integrals` over `pots`, all of one
    width, one kernel call per block of nodes: integral i integrates component
    0, |phi_in|^2 |T|^2 over pots[i], or component 1, that times
    (a - x0 + dPhi_T/dk)/p."""
    g, width = np.array([pot.strength(consts) for pot in pots]), pots[0].width
    aprime = width / 2.0 - spec.x0

    def f(p, owner):
        wgt, dphi = _transmitted_weight(spec, consts, g[owner], width, p)
        return np.stack([wgt, wgt * (aprime + dphi) / p])

    return _lockstep(f, integrals)


def _require_left_start(spec, pot) -> None:
    edge = spec.x0 + pot.half_width
    if edge >= 0:
        raise ValueError(f"packet must start left of the potential: x0 + a = {edge}")


def _require_below_barrier(spec, pot, consts) -> float:
    """The barrier momentum p_b, which the packet momentum must not reach."""
    p_b = pot.barrier_momentum(consts)  # raises for v0 <= 0
    p0 = spec.p0(consts)
    if p0 >= p_b:
        raise ValueError(
            f"packet momentum p0 = {p0} must lie below the barrier momentum {p_b}"
        )
    return p_b


def _require_transmitted(p_t: float) -> None:
    if not p_t > 0:
        raise ValueError("transmitted weight vanishes; no flux to average")


def transmission_probability(
    spec: GaussianPacketSpec,
    pot: SquarePotential,
    consts: PhysicalConstants = ATOMIC,
) -> float:
    """P_T = integral |phi_in|^2 |T|^2 dp over (0, inf)."""
    integral = _from_zero(*_span(spec, pot, consts, spec.p_max(consts)))
    return _first_error(_packet_integrals(spec, consts, [pot], [integral]))[0][0]


def classical_reference_time(
    spec: GaussianPacketSpec,
    pot: SquarePotential,
    consts: PhysicalConstants = ATOMIC,
) -> tuple[float, bool]:
    """Classical particle from x0 to +a, moving at the in-well speed inside.

    For classically forbidden heights (p0^2 <= 2 m V0) the free-motion time
    is returned with a False flag instead of omitting the value.
    """
    p0 = spec.p0(consts)
    m = consts.mass
    a = pot.half_width
    if p0 * p0 > 2.0 * m * pot.v0:
        inside = math.sqrt(p0 * p0 - 2.0 * m * pot.v0)
        return m * (-a - spec.x0) / p0 + m * pot.width / inside, True
    return m * (a - spec.x0) / p0, False


def mean_exit_time(
    spec: GaussianPacketSpec,
    pot: SquarePotential,
    consts: PhysicalConstants = ATOMIC,
) -> PassageTimeReport:
    """Flux-averaged exit time at x = a, by momentum-space quadrature.

    The time integrand uses the analytic dPhi_T/dk; P_T comes first, as
    `transmission_probability` computes it.
    """
    return _first_error([_exit_times(spec, [pot], consts)[0][1]])[0]


def _exit_times(spec, pots, consts) -> list[tuple]:
    """(P_T, `mean_exit_time` report) per potential of one width, in lockstep;
    either may be the exception a serial run raises, and a refused row has P_T."""
    _require_left_start(spec, pots[0])
    rows = [_exit_time_row(spec, pot, consts) for pot in pots]
    return _packet_integrals(spec, consts, pots, rows)


def _exit_time_row(spec, pot, consts):
    """One row of `_exit_times`: P_T, then the time moment over the same span,
    started from the panels P_T evaluated."""
    span = _span(spec, pot, consts, spec.p_max(consts))
    try:
        p_t, panels = yield from _from_zero(*span)
    except (ConvergenceError, ValueError) as exc:
        p_t = exc
    try:
        # the cutoff halvings alone miss a packet whose weight at p = 0 is tiny
        # but not zero, so an exact threshold is refused before the time moment
        if pot.v0 < 0 and is_at_threshold(pot, consts) and (
                packet_weight(spec, 1e-12, consts) > 1e-280):
            raise ThresholdDivergenceError(
                "well is at a bound-state threshold and the packet does not vanish "
                "at p = 0: the mean exit time diverges")
        _require_transmitted(_first_error([p_t])[0])
        moment = _from_zero(*span, start=panels)
        del panels  # else held while the moment runs
        t_int = (yield from moment)[0]
    except (ConvergenceError, ValueError) as exc:
        return p_t, exc
    t_out = consts.mass * t_int / p_t
    t_cl, defined = classical_reference_time(spec, pot, consts)
    return p_t, PassageTimeReport(p_t, t_out, t_cl, t_out - t_cl, defined)


def _bulk_wave(spec, pot, consts, p, t):
    """c(p) e^{i(p a - p^2 t/2m)/hbar} with c = phi_in T / sqrt(h), at p > 0 and
    times t broadcast against p, from one kernel entry for 1/D = T e^{ikd} and
    one complex exp: N/sqrt(h) (1/D) e^{-(p - p0)^2/4dp^2 + i[p(a - x0 - d) - p^2 t/2m]/hbar}.
    """
    p = np.asarray(p, dtype=float)
    inv_d = _kernel.inverse_denominator(pot.strength(consts), pot.width, p / consts.hbar)
    phase = p * (pot.half_width - spec.x0 - pot.width) - p * p * (t / (2.0 * consts.mass))
    envelope = -((p - spec.p0(consts)) ** 2) / (4.0 * spec.delta_p**2)
    scale = spec.norm_constant(consts) / math.sqrt(consts.h)
    return scale * inv_d * np.exp(envelope + (1j / consts.hbar) * phase)


@functools.cache
def _oracle_nodes():
    """The flux oracle's Gauss-Legendre rule, built on first use (about 50 ms)."""
    return np.polynomial.legendre.leggauss(int(max(200, 4.0 * _W_MULT * _W_MULT)))


def _windowed_wave(spec, pot, consts, tc, p_hi):
    """psi(a, t) and psi_x(a, t) on a batch of times by stationary-phase
    windowed Gauss-Legendre, with first-order endpoint corrections for the
    truncated oscillatory tails.  The integrand's phase is
    [p a' + hbar Phi_T(p/hbar) - p^2 t/2m]/hbar with a' = a - x0."""
    gl_x, gl_w = _oracle_nodes()
    hbar, m, g, d = consts.hbar, consts.mass, pot.strength(consts), pot.width
    aprime = pot.half_width - spec.x0
    tsafe = np.maximum(tc, 1e-12)
    p1 = np.clip(m * aprime / tsafe, 1e-4, p_hi)
    dphi1 = _kernel.transmission_grid(g, d, p1 / hbar)[1]
    pstar = np.clip(m * (aprime + dphi1) / tsafe, 1e-4, p_hi)
    width = _W_MULT * np.sqrt(2.0 * np.pi * hbar * m / np.maximum(tc, 1.0))
    lo = np.clip(pstar - width, 0.0, p_hi)
    hi = np.clip(pstar + width, 0.0, p_hi)

    # the nodes are interior to (lo, hi) with lo >= 0, so every p is positive
    # and the sum of f p w over the nodes p = mid + half x is mid (f w) + half (f x w)
    half, mid = 0.5 * (hi - lo), 0.5 * (hi + lo)
    f = _bulk_wave(spec, pot, consts, mid[:, None] + half[:, None] * gl_x, tc[:, None])
    fw, fxw = (f @ np.stack([gl_w, gl_x * gl_w], axis=1)).T
    psi = half * fw
    psix = (1j / hbar) * half * (mid * fw + half * fxw)

    # truncated tails: integral beyond an interior edge ~ -+ f(edge)/(i theta')
    for edge, sgn in ((hi, -1.0), (lo, +1.0)):
        interior = (edge > 1e-9) & (edge < p_hi * (1.0 - 1e-12))
        if not np.any(interior):
            continue
        pe, te = edge[interior], tc[interior]
        fe = _bulk_wave(spec, pot, consts, pe, te)
        dphie = _kernel.transmission_grid(g, d, pe / hbar)[1]
        theta_p = (aprime + dphie - pe * te / m) / hbar
        ok = np.abs(theta_p) > 1e-6
        corr = np.where(ok, sgn * fe / (1j * theta_p), 0.0)
        psi[interior] += corr
        psix[interior] += corr * 1j * pe / hbar
    return psi, psix


def mean_exit_time_via_flux(
    spec: GaussianPacketSpec,
    pot: SquarePotential,
    consts: PhysicalConstants = ATOMIC,
    t_window: tuple[float, float] | None = None,
    tol: float = 1e-3,
) -> float:
    """Mean exit time from the reconstructed transmitted flux J_T(a, t).

    This is the independent time-domain cross-check of `mean_exit_time`: the
    transmitted wave and its x-derivative are rebuilt by direct momentum
    integration (T only; dPhi_T/dk merely places the windows) on a time
    grid with one step `_DT`: uniform up to t0 + `_T_UNIFORM`, then
    geometric with a continuous step proportional to t (ratio
    1 + _DT/t_fine_end), as the flux tail varies on the scale of t; the
    kernel takes the times in batches of about `_CHUNK` points.
    J_T = (hbar/m) Im(psi* dpsi/dx), and the first moment of J_T is
    returned.  Two checks raise ConvergenceError, in this order: the window
    must capture essentially all transmitted flux, |integral J_T dt - P_T|
    <= tol * P_T; and the half-grid (Richardson) error estimate |Q_h - Q_2h|/3,
    with Q_2h the trapezoid on every other time (no extra kernel points),
    must stay within `_GRID_TOL_SHARE` = 0.1 of tol, relative, for both
    integral J_T dt and the mean time.
    """
    _require_left_start(spec, pot)
    m = consts.mass
    aprime = pot.half_width - spec.x0
    p_hi = spec.p_max(consts)

    # reference transmission probability on a fixed grid (trapezoid), also
    # used to pick the time window from the low-momentum weight
    pgrid = np.linspace(1e-7, p_hi, _P_POINTS)
    # [0] frees dPhi_T/dk at once
    wgt = _transmitted_weight(spec, consts, pot.strength(consts), pot.width, pgrid)[0]
    p_t_ref = float(np.trapezoid(wgt, pgrid))
    _require_transmitted(p_t_ref)

    if t_window is None:
        # p_cut: the momentum below which the time moment integral of
        # w(p)/p holds 0.05 tol of its total (cumulative trapezoid,
        # interpolated within a grid cell)
        moment = np.cumsum(wgt[1:] / pgrid[1:] + wgt[:-1] / pgrid[:-1])
        p_cut = max(float(np.interp(0.05 * tol * moment[-1], moment, pgrid[1:])), 1e-4)
        # slow momenta travel 1.5 a' (a margin); from the packet's far side
        # the path is a' plus _WINDOW_SIGMAS spatial widths hbar/(2 dp)
        sigma_x = consts.hbar / (2.0 * spec.delta_p)
        t_window = (0.0, m * max(1.5 * aprime, aprime + _WINDOW_SIGMAS * sigma_x) / p_cut)
    t0, t1 = t_window
    if not (t1 > t0 >= 0):
        raise ValueError(f"invalid time window {t_window}")

    t_fine_end = min(t1, t0 + _T_UNIFORM)
    ts = np.arange(t0, t_fine_end, _DT)
    if t1 > t_fine_end:
        # first step _DT, each later one longer by the same ratio
        ratio = 1.0 + _DT / t_fine_end
        coarse = t_fine_end * ratio ** np.arange(math.ceil(math.log(t1 / t_fine_end, ratio)))
        ts = np.concatenate([ts, coarse[coarse < t1]])
    ts = np.append(ts, t1)

    flux = np.empty(len(ts))
    batch = max(1, _CHUNK // len(_oracle_nodes()[0]))
    for s in range(0, len(ts), batch):
        psi, psix = _windowed_wave(spec, pot, consts, ts[s : s + batch], p_hi)
        flux[s : s + batch] = (consts.hbar / m) * (psi.conj() * psix).imag
    m0 = float(np.trapezoid(flux, ts))
    m1 = float(np.trapezoid(flux * ts, ts))

    deficit = abs(m0 - p_t_ref) / p_t_ref
    if deficit > tol:
        raise ConvergenceError(
            f"time window misses transmitted flux: captured {m0:.8f} of "
            f"P_T = {p_t_ref:.8f} (deficit {deficit:.2e} > tol {tol:.1e})",
            estimate=m1 / m0 if m0 else None,
            error=deficit,
        )

    # the same samples on every other time (both ends kept): Richardson
    half = np.r_[0 : len(ts) - 1 : 2, len(ts) - 1]
    m0_2h = float(np.trapezoid(flux[half], ts[half]))
    m1_2h = float(np.trapezoid(flux[half] * ts[half], ts[half]))
    t_mean = m1 / m0
    grid_err = max(abs(m0 - m0_2h) / m0, abs(t_mean - m1_2h / m0_2h) / abs(t_mean)) / 3.0
    if not grid_err <= _GRID_TOL_SHARE * tol:
        raise ConvergenceError(
            f"time step too coarse for the flux: half-grid error estimate "
            f"{grid_err:.2e} > {_GRID_TOL_SHARE} * tol {tol:.1e}",
            estimate=t_mean,
            error=grid_err,
        )
    return t_mean


def critical_width(
    spec: GaussianPacketSpec,
    pot: SquarePotential,
    consts: PhysicalConstants = ATOMIC,
) -> float:
    """Estimated width separating the width-independent tunneling regime
    from the classical over-the-barrier regime:

        d_c = hbar/(4 dp^2) * ((p_b - p0)^3 / (p_b + p0))^(1/2).
    """
    p_b = _require_below_barrier(spec, pot, consts)
    p0 = spec.p0(consts)
    return (consts.hbar / (4.0 * spec.delta_p**2)) * math.sqrt(
        (p_b - p0) ** 3 / (p_b + p0)
    )


def crossover_width_empirical(
    spec: GaussianPacketSpec,
    pot: SquarePotential,
    consts: PhysicalConstants = ATOMIC,
    tol: float = 1e-3,
) -> float:
    """Width at which below-barrier and above-barrier transmittance are equal.

    Bisects f(d) = integral_0^{p_b} - integral_{p_b}^inf of |phi|^2 |T|^2;
    the below-barrier share decays exponentially with d, so f is decreasing
    and the root marks where over-the-barrier components take over.
    """
    p_b = _require_below_barrier(spec, pot, consts)
    # the packet tail beyond p_b carries the whole above-barrier share, so
    # the upper limit must extend past p_b even when that tail is tiny
    p_hi = max(spec.p_max(consts), p_b + 6.0 * spec.delta_p)

    def split_transmittance(width: float) -> float:
        trial = SquarePotential(v0=pot.v0, half_width=width / 2.0)
        breaks = _resonance_breakpoints(trial, consts, p_b, p_hi)
        # every resonance lies above p_b, so `below` gets no breakpoints; a wide trial
        # overflows the kernel where |T|^2 = 0 (a NaN in it still raises)
        with np.errstate(over="ignore", invalid="ignore"):
            below, above = _first_error(_packet_integrals(spec, consts, [trial] * 2, [
                _from_zero(*_span(spec, trial, consts, p_b), _SPLIT_REL_TOL),
                _adaptive(p_b, p_hi, rel_tol=_SPLIT_REL_TOL, breakpoints=breaks)]))
        return below[0] - above.value

    d_lo = 1e-3
    f_lo = split_transmittance(d_lo)
    if f_lo <= 0:
        raise ConvergenceError(
            f"no sign change: already above-barrier dominated at d = {d_lo} "
            f"(f = {f_lo:.3e})",
            estimate=d_lo,
        )
    d_hi = 1.0
    f_hi = split_transmittance(d_hi)
    while f_hi > 0:
        d_hi *= 2.0
        if d_hi > _D_MAX:
            raise ConvergenceError(
                f"no sign change in the search bracket [{d_lo}, {_D_MAX}]",
                estimate=d_hi,
            )
        f_hi = split_transmittance(d_hi)

    while (d_hi - d_lo) > tol * d_hi:
        mid = 0.5 * (d_lo + d_hi)
        if split_transmittance(mid) > 0:
            d_lo = mid
        else:
            d_hi = mid
    return 0.5 * (d_lo + d_hi)
