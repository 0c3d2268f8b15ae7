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
|T(p)| = O(p) keeps them finite: with k^2 |D|^2 = alpha + beta k^2 + O(k^4)
(`_kernel.low_k_limits`), |T|^2 = k^2/alpha below K = sqrt(alpha/|beta|),
and each integral ends in a closed form below p_c = min(eps, hbar K/256)
(`_tails`).  At a threshold alpha = 0 and |T(0)| = 1, and the mean exit
time diverges for any packet with phi_in(0) != 0, which is detected and
reported rather than silently truncated.  Above p_c, `_intervals` seeds the
panels of every row at once: p_c 2^j below eps, eps, the support edge p0 -
9 dp and the resonances.  dp ranges from 2^-32 p0, where the nodes, rounded
to ulp(p0), stop resolving the packet, to where it spans more resonances than
panels; as dp -> 0, P_T -> |T(p0)|^2 and <t> -> m(a - x0 + hbar Phi_T'(p0))/p0.
`packet_rows` forms a sweep's rows once, for the `packet-sweep` command and
the threshold-window check of `hartman.verify`.
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
from .quadrature import _MAX_PANELS, _first_error, _lockstep

# packet momentum support: beyond p0 + _SUPPORT_SIGMAS * dp the Gaussian
# mass is below 1e-16 of the total
_SUPPORT_SIGMAS = 9.0
# eps, this fraction of min(p0, dp): adaptive panels of a packet integral
# start at p_c <= eps, geometric below eps
_CUTOFF_FRACTION = 1e-3
# dp/p0 below which the packet integrals' nodes, rounded to ulp(p0) <= 2^-52 p0,
# resolve the packet to worse than about 2^-20 of P_T (about 0.4 ulp(p0)/dp)
_MIN_REL_WIDTH = 2.0**-32
# the closed-form tail below the panels starts at hbar K/_TAIL_DEPTH, where
# beta k^2/alpha <= 1.5e-5, and no deeper than eps _TAIL_FLOOR (60 halvings);
# where K puts it at that floor, |T|^2 is flat and it starts at eps/_TAIL_DEPTH
_TAIL_DEPTH = 256.0
_TAIL_FLOOR = 2.0**-60
_REL_TOL = 1e-8  # P_T and the exit-time moment
_SPLIT_REL_TOL = 1e-6  # crossover_width_empirical's split integrals
_D_MAX = 1e4  # widest barrier crossover_width_empirical tries
# flux oracle: window half-width in units of sqrt(2 pi hbar m / t); the one
# time step and the span t0 + 80 over which it stays uniform, the step being
# continuous, _DT max(1, t/(t0 + 80)), and proportional to t on the
# geometric grid beyond; the share of tol the half-grid error estimate of the
# time integrals may take; spatial widths hbar/(2 dp) of the packet's far side
# the default window waits for; momentum points of the P_T reference; and
# kernel points (times x Gauss nodes) per batch: 0.5 MB real arrays and one
# 1 MB complex output (0.40 s for the five cross-validation configs, 0.43 s at
# 2**14 and 0.68 s at 2**18 points, medians of 5 on a 2-core Xeon with 2 MB of
# L2 per core)
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


def _transmitted_weight(spec, consts, g, width, p):
    """|phi_in|^2 |T|^2 = |phi_in|^2/|D|^2 and dPhi_T/dk at momenta p, from
    one kernel call.  On an opaque barrier the kernel's intermediates
    overflow, without NumPy warnings: the weight underflows to 0 and
    dPhi_T/dk is NaN, which the quadrature reports."""
    p = np.asarray(p, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        den, dphi = _kernel.transmission_grid(g, width, p / consts.hbar)[:2]
    return packet_weight(spec, p, consts) / den, dphi


def _cutoff(spec, consts):
    """eps, the packet's low cutoff: no packet integral's tail starts above it.
    Raises ValueError for a width dp below `_MIN_REL_WIDTH` p0, or one whose
    square is not a normal float (dp outside about 1.5e-154 to 1.3e154)."""
    p0, dp = spec.p0(consts), spec.delta_p
    if not (dp >= _MIN_REL_WIDTH * p0 and np.finfo(float).tiny <= dp * dp < math.inf):
        raise ValueError(f"delta_p = {dp:.6g} out of range: the packet integrals resolve "
                         f"2^-32 p0 = {_MIN_REL_WIDTH * p0:.6g} or more, with a normal square")
    return min(p0, dp) * _CUTOFF_FRACTION


def _tails(spec, consts, g, d):
    """The packet integrals below p_c in closed form, per strength g of one
    width d: (p_c, P_T's tail, the time moment's tail, the moment's log
    coefficient), from one `_kernel.low_k_limits` call over all rows.

    Below p_c = min(eps, hbar K/`_TAIL_DEPTH`) |T|^2 = p^2/(hbar^2 alpha) and
    dPhi_T/dk = Phi_T'(0) to 1.5e-5 relative, and w(p) = w0 + w1 p: the tails
    are (w0 p_c^3/3 + w1 p_c^4/4)/(hbar^2 alpha) and
    (a' + Phi_T'(0))(w0 p_c^2/2 + w1 p_c^3/3)/(hbar^2 alpha).  p_c is halved
    while the two-term |T|^2 = k^2/(alpha + beta k^2) and the kernel's differ
    by more than 1e-10 at it, and is never below eps 2^-60.  Where K puts p_c
    there (flat rows: alpha = 0 in the free case and at exact thresholds, or a
    subnormal height) |T|^2 = 1/beta below eps, and p_c = eps/`_TAIL_DEPTH`:
    P_T's tail is (w0 p_c + w1 p_c^2/2)/beta, off by the packet weight's
    curvature (3e-19 of P_T on fig3's free row), and the moment's integrand
    grows like w0 (a' + Phi_T')/(beta p), with Phi_T' taken at p_c (0 when
    free): it adds the log coefficient per halving of p_c, which the caller
    weighs against its tolerance.  Where beta or alpha overflows (an opaque
    barrier, kappa0 d above about 353) p_c = eps and both tails are 0, as
    |T|^2 underflows there."""
    hbar, eps = consts.hbar, _cutoff(spec, consts)
    with np.errstate(over="ignore", invalid="ignore"):  # subnormal or opaque g: taken below
        alpha, beta, K, dphi0 = _kernel.low_k_limits(g, d)[:4]
    floor = eps * _TAIL_FLOOR
    opaque = ~np.isfinite(beta)  # beta overflows with alpha or before it
    with np.errstate(invalid="ignore"):
        p_c = np.where(opaque, eps, np.clip(hbar * K / _TAIL_DEPTH, floor, eps))
    flat = ~opaque & (p_c == floor)
    p_c[flat] = eps / _TAIL_DEPTH
    todo = ~(opaque | flat)
    while np.any(todo):
        rows = np.flatnonzero(todo)
        k = p_c[rows] / hbar
        model = k * k / (alpha[rows] + beta[rows] * k * k)
        kernel = 1.0 / _kernel.transmission_grid(g[rows], d, k)[0]
        rows = rows[~(np.abs(kernel - model) <= 1e-10 * model)]
        p_c[rows] = np.maximum(0.5 * p_c[rows], floor)
        todo[:] = False
        todo[rows] = p_c[rows] > floor
    if np.any(flat):  # there the moment follows the slope at p_c >> K, not Phi_T'(0)
        dphi0[flat] = _kernel.transmission_grid(g[flat], d, p_c[flat] / hbar)[1]
    w0 = float(packet_weight(spec, 0.0, consts))
    w1 = w0 * spec.p0(consts) / spec.delta_p**2
    slope = d / 2.0 - spec.x0 + dphi0
    with np.errstate(all="ignore"):  # only in the branches not taken
        inv = np.where(opaque, 0.0, 1.0 / (hbar * hbar * alpha))
        p_t = np.where(flat, (w0 * p_c + 0.5 * w1 * p_c**2) / beta,
                       (w0 * p_c**3 / 3.0 + 0.25 * w1 * p_c**4) * inv)
        moment = np.where(flat | opaque, 0.0,
                          slope * (0.5 * w0 * p_c**2 + w1 * p_c**3 / 3.0) * inv)
        log_coef = np.where(flat, w0 * np.abs(slope) * math.log(2.0) / beta, 0.0)
    return p_c, p_t, moment, log_coef


def _intervals(spec, consts, g, width, lo, hi) -> list[tuple]:
    """The `_lockstep` rows (lo, hi, breakpoints) over strengths g of one width,
    formed for all rows at once from closed-form counts: lo 2^j below the low
    cutoff eps, eps, and above eps the support edge p0 - 9 dp (which a packet
    narrow against p0 needs to meet the nodes) and the resonances q d = n pi,
    n = 0 being the barrier momentum.  A row of more seeds than `_MAX_PANELS`
    raises ConvergenceError before any is formed."""
    hbar, eps = consts.hbar, _cutoff(spec, consts)
    edge = spec.p0(consts) - _SUPPORT_SIGMAS * spec.delta_p
    g, lo, hi = np.broadcast_arrays(*np.atleast_1d(g, lo, hi))
    with np.errstate(all="ignore"):  # inf or NaN seeds, which are dropped
        n_low = np.maximum(np.ceil(np.log2(eps / lo)) - 1.0, 0.0)  # j >= 1 with lo 2^j < eps,
        n_low += lo * np.float_power(2.0, n_low + 1.0) < eps  # one more where log2 rounds down
        # n from one below the first resonance above eps to one above the last below hi
        first, last = (np.floor(width * np.sqrt(np.maximum((p / hbar) ** 2 - g, 0.0)) / math.pi)
                       for p in (eps, hi))
        count = n_low + 2.0 + np.maximum(last - first + 2.0, 0.0)
        if not np.all(count < _MAX_PANELS):
            raise ConvergenceError(f"a packet integral seeds {np.max(count) + 1.0:.6g} panels, "
                                   f"more than the budget of {_MAX_PANELS}")
        end = np.cumsum(count)
        lo_r, g_r, n_low, first, t = np.repeat([lo, g, n_low, first, end - count],
                                               count.astype(int), axis=1)
        t = np.arange(end[-1]) - t  # a seed's place in its row
        k = t - n_low  # < 0: the low seeds, 0: eps, 1: the edge, then n = first + k - 2
        q = (first + k - 2.0) * math.pi / width
        p = np.select([k < 0, k == 0, k == 1], [lo_r * np.float_power(2.0, t + 1.0), eps, edge],
                      hbar * np.sqrt(np.float_power(q, 2.0) + g_r))
    keep = (k <= 0) | (p > eps)
    ends = [0, *np.cumsum(keep, dtype=float)[(end - 1.0).astype(int)].astype(int).tolist()]
    p = p[keep].tolist()
    return [(a, b, p[s:e]) for a, b, s, e in zip(lo.tolist(), hi.tolist(), ends, ends[1:])]


def _packet_integrals(spec, consts, g, width, lo, hi, rel_tol=_REL_TOL, gate=None) -> list:
    """`_lockstep` outcomes of the rows [lo_i, hi_i] over strengths g of one
    width, seeded by `_intervals`, one kernel call per block of nodes: row i
    integrates component 0, |phi_in|^2 |T|^2 at g_i, and where a `gate` adds
    it, then component 1, that times (a - x0 + dPhi_T/dk)/p."""
    aprime = width / 2.0 - spec.x0

    def f(p, owner):
        wgt, dphi = _transmitted_weight(spec, consts, g[owner], width, p)
        return wgt if gate is None else np.stack([wgt, wgt * (aprime + dphi) / p])

    return _lockstep(f, _intervals(spec, consts, g, width, lo, hi), rel_tol=rel_tol, gate=gate)


def _require_left_start(spec, pot) -> None:
    edge = spec.x0 + pot.half_width
    if edge >= 0:
        raise ValueError(f"packet must start left of the potential: x0 + a = {edge}")


def _require_below_barrier(spec, pot, consts) -> float:
    """The barrier momentum p_b, which the packet momentum must not reach."""
    p_b = pot.barrier_momentum(consts)  # raises for v0 <= 0
    p0 = spec.p0(consts)
    if p0 >= p_b:
        raise ValueError(f"packet momentum p0 = {p0} must lie below the barrier momentum {p_b}")
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
    g = np.array([pot.strength(consts)])
    p_c, (tail,) = _tails(spec, consts, g, pot.width)[:2]
    (main,), = _packet_integrals(spec, consts, g, pot.width, p_c, spec.p_max(consts))
    return _first_error([main])[0].value + tail


def classical_reference_time(
    spec: GaussianPacketSpec,
    pot: SquarePotential,
    consts: PhysicalConstants = ATOMIC,
) -> tuple[float, bool]:
    """Classical particle from x0 to +a, moving at the in-well speed inside.

    For classically forbidden heights (p0^2 <= 2 m V0) the free-motion time
    is returned with a False flag instead of omitting the value.
    """
    p0, m, a = spec.p0(consts), consts.mass, pot.half_width
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
    either may be the exception a serial run raises, and a refused row has P_T.
    A row's P_T over [p_c, p_max] gets its closed-form tail, and its time
    moment starts from the panels P_T ended on, in the round P_T converged."""
    _require_left_start(spec, pots[0])
    g, width = np.array([pot.strength(consts) for pot in pots]), pots[0].width
    p_c, p_t_tail, moment_tail, log_coef = _tails(spec, consts, g, width)
    # inside `is_at_threshold`'s band alpha is small but not 0, and the
    # closed-form tail finite, so an exact threshold is refused before the
    # time moment unless the packet vanishes at p = 0
    at_zero = packet_weight(spec, 1e-12, consts) > 1e-280

    def gate(i, main):
        if at_zero and pots[i].v0 < 0 and is_at_threshold(pots[i], consts):
            raise ThresholdDivergenceError(
                "well is at a bound-state threshold and the packet does not vanish "
                "at p = 0: the mean exit time diverges")
        _require_transmitted(_first_error([main])[0].value + p_t_tail[i])

    rows = []
    for i, (main, moment) in enumerate(
            _packet_integrals(spec, consts, g, width, p_c, spec.p_max(consts), gate=gate)):
        p_t = main if isinstance(main, Exception) else main.value + p_t_tail[i]
        if not isinstance(moment, Exception):
            t_int = moment.value
            # |T(0)| = 1: the moment grows by log_coef per halving of p_c, which
            # ends the integral only below half of rel_tol of it
            if log_coef[i] > 0.5 * _REL_TOL * abs(t_int):
                moment = ThresholdDivergenceError(
                    f"time moment grows by {log_coef[i]:.3e} per halving of the cutoff "
                    f"{p_c[i]:.3e} (estimate {t_int:.6e}): |T(0)| = 1 and the packet does "
                    "not vanish at p = 0", estimate=t_int, error=log_coef[i])
            else:
                t_out = consts.mass * (t_int + moment_tail[i]) / p_t
                t_cl, defined = classical_reference_time(spec, pots[i], consts)
                moment = PassageTimeReport(p_t, t_out, t_cl, t_out - t_cl, defined)
        rows.append((p_t, moment))
    return rows


def packet_rows(v0s, spec: GaussianPacketSpec, width: float,
                consts: PhysicalConstants = ATOMIC) -> list[tuple]:
    """The packet-sweep rows (v0, P_T, t_out, t_classical, t_subtracted,
    classical_defined, diverged), one per well depth or barrier height, all
    in lockstep.  A row whose exit time diverges keeps its P_T, with NaN
    times and the flag set; the first other error is raised."""
    pots = [SquarePotential(v0=v0, half_width=width / 2.0) for v0 in v0s]
    rows = []
    for v0, pot, (p_t, rep) in zip(v0s, pots, _exit_times(spec, pots, consts)):
        diverged = isinstance(rep, ThresholdDivergenceError)
        if diverged:
            t_cl, defined = classical_reference_time(spec, pot, consts)
            rep = PassageTimeReport(_first_error([p_t])[0], math.nan, t_cl, math.nan, defined)
        rep = _first_error([rep])[0]
        rows.append((v0, rep.p_t, rep.t_out, rep.t_classical, rep.t_subtracted,
                     rep.classical_defined, diverged))
    return rows


def _bulk_wave(spec, pot, consts, p, t):
    """c(p) e^{i(p a - p^2 t/2m)/hbar} with c = phi_in T / sqrt(h), at p > 0 and
    times t broadcast against p: N/sqrt(h) (1/D) e^{-(p - p0)^2/4dp^2 + i theta}
    with theta = [p(a - x0 - d) - p^2 t/2m]/hbar, in real arithmetic from the
    kernel's A = Re D, B = Im D and |D|^2 (1/D = (A - iB)/|D|^2): one real exp
    and one cos/sin pair per node, written into one complex array."""
    p = np.asarray(p, dtype=float)
    A, B, den = _kernel.denominator(pot.strength(consts), pot.width, p / consts.hbar)
    theta = p * (pot.half_width - spec.x0 - pot.width) - p * p * (t / (2.0 * consts.mass))
    theta *= 1.0 / consts.hbar
    mag = np.exp(-((p - spec.p0(consts)) ** 2) / (4.0 * spec.delta_p**2))
    mag *= spec.norm_constant(consts) / math.sqrt(consts.h)
    mag /= den
    A *= mag
    B *= mag
    cos, sin = np.cos(theta), np.sin(theta, out=theta)
    out = np.empty(theta.shape, dtype=complex)
    # (A - iB)(cos + i sin) = A cos + B sin + i (A sin - B cos)
    np.multiply(A, cos, out=out.real)
    np.multiply(A, sin, out=out.imag)
    out.real += np.multiply(B, sin, out=sin)
    out.imag -= np.multiply(B, cos, out=cos)
    return out


@functools.cache
def _oracle_nodes():
    """The flux oracle's Gauss-Legendre rule, ascending, built on first use
    (about 20 ms): three Newton steps on the three-term recurrence of P_n from
    cos(pi (i - 1/4)/(n + 1/2)), and weights 2/((1 - x^2) P_n'(x)^2).  No
    n x n companion matrix is made, whose freeing would leave the oracle's
    batch arrays resident."""
    n = int(max(200, 4.0 * _W_MULT * _W_MULT))
    x = np.cos(np.pi * (np.arange(n, 0, -1) - 0.25) / (n + 0.5))
    for step in range(4):
        p0, p1 = np.ones(n), x
        for k in range(1, n):
            p0, p1 = p1, ((2 * k + 1) * x * p1 - k * p0) / (k + 1)
        dp = n * (x * p1 - p0) / (x * x - 1.0)
        if step < 3:
            x = x - p1 / dp
    return x, 2.0 / ((1.0 - x * x) * dp * dp)


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
    returned.  A delta_p outside the range of the packet integrals
    (`_cutoff`) raises ValueError before any arithmetic.  Two checks raise
    ConvergenceError, in this order: the window must capture essentially all
    transmitted flux, |integral J_T dt - P_T| <= tol * P_T (a NaN flux, from
    a barrier opaque to part of the window, misses it); and the half-grid
    (Richardson) error estimate |Q_h - Q_2h|/3, with Q_2h the trapezoid on
    every other time (no extra kernel points), must stay within
    `_GRID_TOL_SHARE` = 0.1 of tol, relative, for both integral J_T dt and
    the mean time.
    """
    _require_left_start(spec, pot)
    _cutoff(spec, consts)
    m = consts.mass
    aprime = pot.half_width - spec.x0
    p_hi = spec.p_max(consts)

    # reference transmission probability on a fixed grid (trapezoid), also
    # used to pick the time window from the low-momentum weight
    pgrid = np.linspace(1e-7, p_hi, _P_POINTS)
    with np.errstate(over="ignore", invalid="ignore"):  # opaque barriers: raised below
        wgt = packet_weight(spec, pgrid, consts) / _kernel.denominator(
            pot.strength(consts), pot.width, pgrid / consts.hbar)[2]
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
    # where the window's momenta tunnel through an opaque barrier the kernel
    # overflows: the flux is NaN, which the deficit check below reports
    with np.errstate(over="ignore", invalid="ignore"):
        for s in range(0, len(ts), batch):
            psi, psix = _windowed_wave(spec, pot, consts, ts[s : s + batch], p_hi)
            flux[s : s + batch] = (consts.hbar / m) * (psi.conj() * psix).imag
        m0 = float(np.trapezoid(flux, ts))
        m1 = float(np.trapezoid(flux * ts, ts))

    deficit = abs(m0 - p_t_ref) / p_t_ref
    if not deficit <= tol:
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
    return (consts.hbar / (4.0 * spec.delta_p**2)) * math.sqrt((p_b - p0) ** 3 / (p_b + p0))


def crossover_width_empirical(
    spec: GaussianPacketSpec,
    pot: SquarePotential,
    consts: PhysicalConstants = ATOMIC,
    tol: float = 1e-3,
) -> float:
    """Width at which below-barrier and above-barrier transmittance are equal.

    Bisects f(d) = integral_0^{p_b} - integral_{p_b}^inf of |phi|^2 |T|^2;
    the below-barrier share decays exponentially with d, so f is decreasing
    and the root marks where over-the-barrier components take over.  Raises
    ConvergenceError where f has no sign change in [1e-3, `_D_MAX`], or where
    the above-barrier share underflows to 0 and no root can be represented.
    """
    p_b = _require_below_barrier(spec, pot, consts)
    # the packet tail beyond p_b carries the whole above-barrier share, so
    # the upper limit must extend past p_b even when that tail is tiny
    p_hi = max(spec.p_max(consts), p_b + 6.0 * spec.delta_p)
    g = np.full(2, pot.strength(consts))  # the rows below and above p_b

    def split_transmittance(width: float) -> float:
        # every resonance lies above p_b, so `below` gets only the low breakpoints
        (p_c,), (tail,) = _tails(spec, consts, g[:1], width)[:2]
        below, above = _first_error([r for r, in _packet_integrals(
            spec, consts, g, width, [p_c, p_b], [p_b, p_hi], rel_tol=_SPLIT_REL_TOL)])
        if not above.value > 0:
            raise ConvergenceError(
                f"above-barrier transmittance underflows to {above.value} at d = {width}: "
                "no crossover can be represented", estimate=width)
        return below.value + tail - above.value

    d_lo, d_hi = 1e-3, 1.0
    f_lo = split_transmittance(d_lo)
    if f_lo <= 0:
        raise ConvergenceError(f"no sign change: already above-barrier dominated at d = {d_lo} "
                               f"(f = {f_lo:.3e})", estimate=d_lo)
    while split_transmittance(d_hi) > 0:
        d_hi *= 2.0
        if d_hi > _D_MAX:
            raise ConvergenceError(f"no sign change in the search bracket [{d_lo}, {_D_MAX}]",
                                   estimate=d_hi)

    while (d_hi - d_lo) > tol * d_hi:
        mid = 0.5 * (d_lo + d_hi)
        if split_transmittance(mid) > 0:
            d_lo = mid
        else:
            d_hi = mid
    return 0.5 * (d_lo + d_hi)
