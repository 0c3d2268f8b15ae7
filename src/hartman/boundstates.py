"""Bound states of the square well and the low-momentum phase limit.

A well of depth |v0| and half-width a holds n_b = floor(2 z0/pi) + 1 bound
states, z0 = a*sqrt(2 m |v0|)/hbar.  New states appear (with zero energy) at
the depths where 2 z0/pi crosses an integer, i.e. v0 = -(hbar n pi)^2/(8 m a^2);
exactly at such a depth the zero-energy state is a half-bound state and is
flagged rather than counted as a level.

Each level solves, on the circle q^2 + K_b^2 = 2 m |v0|/hbar^2,

    even:  q tan(q a) = K_b        odd:  -q cot(q a) = K_b

Writing the circle as z = q a = z0 cos(phi), chi = K_b a = z0 sin(phi) turns
both into z0 sin(z - phi) = 0 and z0 cos(z - phi) = 0, i.e. into one equation

    z0 cos(phi) - phi = (n - 1) pi/2,   n = 1, 2, ..., n_b,

for level n (even for odd n), whose left side falls monotonically from z0 to
-pi/2 on [0, pi/2].  It has exactly one root there while z0 > (n - 1) pi/2,
which is the count formula, so each level is one bisection in phi; the
levels come out by ascending energy with parities alternating from even.

The continuous transmission phase at k -> 0 equals pi*(n_b - 1/2) whenever
T(0) = 0 (every off-threshold potential) and pi*n_b at the exceptional
threshold depths where |T(0)| = 1, as for the free particle.

Its slopes at k -> 0 are elementary (`low_momentum_limits`).  For a well,
with q0 = sqrt(2 m |v0|)/hbar and z0 = a q0,

    ddelta_0/dk = -a - cot(z0)/q0,  ddelta_1/dk = -a + tan(z0)/q0,
    dPhi_T/dk = -d - 2 cot(2 z0)/q0,

and for a barrier, with kappa0 = sqrt(2 m v0)/hbar, coth(kappa0 a)/kappa0,
tanh(kappa0 a)/kappa0 and 2 coth(kappa0 d)/kappa0 with the opposite sign.
dPhi_T/dk diverges at each threshold depth 2 z0 = n pi: to +inf just before
a new level appears, from -inf just after.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import _kernel
from .errors import ConvergenceError, ThresholdDivergenceError
from .potential import ATOMIC, PhysicalConstants, SquarePotential
from .scattering import _phases

# relative distance (in 2*z0/pi) below which a well counts as at-threshold
THRESHOLD_RTOL = 1e-8


@dataclass(frozen=True)
class BoundLevel:
    parity: str  # "even" | "odd"
    k_b: float  # decay constant, psi ~ e^{-K_b |x|} outside
    energy: float  # -(hbar K_b)^2 / (2 m) < 0


@dataclass(frozen=True)
class BoundStateSpectrum:
    n_b: int
    levels: tuple[BoundLevel, ...]
    at_threshold: bool = False


def _branch_count(pot: SquarePotential, consts: PhysicalConstants) -> float:
    """2 z0 / pi; its floor + 1 is the number of bound states."""
    z0 = pot.half_width * math.sqrt(2.0 * consts.mass * abs(pot.v0)) / consts.hbar
    return 2.0 * z0 / math.pi


def threshold_depths(
    half_width: float, n_max: int, consts: PhysicalConstants = ATOMIC
) -> list[float]:
    """Depths v0 = -(hbar n pi)^2/(8 m a^2), n = 1..n_max, where a new
    bound state appears at zero energy."""
    return [
        -((consts.hbar * n * math.pi) ** 2) / (8.0 * consts.mass * half_width**2)
        for n in range(1, n_max + 1)
    ]


def is_at_threshold(
    pot: SquarePotential,
    consts: PhysicalConstants = ATOMIC,
    rtol: float = THRESHOLD_RTOL,
) -> bool:
    if pot.v0 >= 0:
        return False
    x = _branch_count(pot, consts)
    nearest = round(x)
    return nearest >= 1 and abs(x - nearest) <= rtol * max(x, 1.0)


def count_bound_states(pot: SquarePotential, consts: PhysicalConstants = ATOMIC) -> int:
    """Number of genuine (negative-energy) bound states."""
    if pot.v0 >= 0:
        return 0
    x = _branch_count(pot, consts)
    if is_at_threshold(pot, consts):
        # the zero-energy state at an exact threshold is not a level
        return int(round(x))
    return int(math.floor(x)) + 1


def _level(pot: SquarePotential, consts: PhysicalConstants, n: int,
           tol: float = 1e-12) -> BoundLevel:
    """Level n <= n_b of a well, one bisection in phi (`solve_bound_states`)."""
    a = pot.half_width
    z0 = a * math.sqrt(2.0 * consts.mass * abs(pot.v0)) / consts.hbar
    tol = max(tol, 8.0 * sys.float_info.epsilon * z0)
    even = n % 2 == 1
    target = (n - 1) * math.pi / 2.0
    lo, hi = 0.0, math.pi / 2.0
    phi = 0.5 * (lo + hi)
    # z0 cos(phi) - phi - target, with z0 - target taken first: near a
    # threshold phi is small and that difference is exact
    while lo < phi < hi:
        if (z0 - target) - phi - 2.0 * z0 * math.sin(0.5 * phi) ** 2 > 0.0:
            lo = phi
        else:
            hi = phi
        phi = 0.5 * (lo + hi)
    z, chi = z0 * math.cos(phi), z0 * math.sin(phi)
    f = z * math.sin(z) - chi * math.cos(z) if even else -z * math.cos(z) - chi * math.sin(z)
    residual = abs(f) / max(z0, 1.0)
    if residual > tol:
        raise ConvergenceError(f"level {n} residual {residual:.3e} exceeds tol {tol:.1e}",
                               estimate=chi / a, error=residual)
    k_b = chi / a
    return BoundLevel(parity="even" if even else "odd", k_b=k_b,
                      energy=-((consts.hbar * k_b) ** 2) / (2.0 * consts.mass))


def solve_bound_states(
    pot: SquarePotential,
    consts: PhysicalConstants = ATOMIC,
    tol: float = 1e-12,
) -> BoundStateSpectrum:
    """All bound levels of a well, one bisection in the angle phi per level.

    Level n solves z0 cos(phi) - phi = (n - 1) pi/2 on [0, pi/2], where the
    left side falls monotonically, so its one root lies inside the bracket
    whenever n <= n_b.  Levels come out sorted by ascending energy with
    parities alternating even, odd, even, ...; each satisfies its
    transcendental equation to |residual| / max(z0, 1) < max(tol, 8 eps z0),
    the larger term being the rounding floor of sin and cos at arguments
    near z0, and sits on the circle q^2 + K_b^2 = 2 m |v0|/hbar^2 by
    construction.
    """
    if pot.v0 >= 0:
        if pot.v0 > 0:
            raise ValueError("bound states require a well (v0 < 0)")
        return BoundStateSpectrum(n_b=0, levels=())
    n_b = count_bound_states(pot, consts)
    levels = tuple(_level(pot, consts, n, tol) for n in range(1, n_b + 1))
    return BoundStateSpectrum(n_b, levels, is_at_threshold(pot, consts))


@dataclass(frozen=True)
class LevinsonReport:
    phi_t_at_kmin: float
    predicted: float
    residual: float
    n_bound_states: int


def levinson_check(
    pot: SquarePotential,
    consts: PhysicalConstants = ATOMIC,
    k_min: float = 1e-4,
) -> LevinsonReport:
    """Compare the closed-form Phi_T(k_min) against the bound-state count.

    Phi_T at k_min comes from one kernel call.  Refuses wells at an exact
    threshold: there the k -> 0 branch changes and the slow phase variation
    makes any finite k_min unrepresentative.  Opaque barriers whose |D|^2
    overflows at k_min raise ConvergenceError.
    """
    if not 0 < k_min < math.inf:
        raise ValueError(f"k_min must be positive and finite, got {k_min}")
    if pot.v0 < 0 and is_at_threshold(pot, consts):
        raise ValueError(
            "well is at a bound-state threshold; Phi_T(0) changes branch "
            "there and the check would be meaningless"
        )
    n_b = count_bound_states(pot, consts)
    if pot.v0 == 0:
        return LevinsonReport(
            phi_t_at_kmin=0.0,
            predicted=0.0,
            residual=0.0,
            n_bound_states=0,
        )

    phi0 = float(_phases(pot.strength(consts), pot.width, [k_min])[0][0])
    predicted = math.pi * (n_b - 0.5)
    return LevinsonReport(
        phi_t_at_kmin=phi0,
        predicted=predicted,
        residual=abs(phi0 - predicted),
        n_bound_states=n_b,
    )


@dataclass(frozen=True)
class LowMomentumLimits:
    alpha: float  # k^2 |D|^2 = alpha + beta k^2 + O(k^4), so |T|^2 -> k^2/alpha
    beta: float
    k_scale: float  # K = sqrt(alpha/|beta|), below which |T|^2 grows like k^2/alpha
    dphi_t: float  # dPhi_T/dk at k -> 0
    ddelta0: float  # even eigenphase slope
    ddelta1: float  # odd eigenphase slope


def low_momentum_limits(
    pot: SquarePotential, consts: PhysicalConstants = ATOMIC
) -> LowMomentumLimits:
    """The k -> 0 limits of |T|^2 and of the phase slopes, in closed form from
    the kernel's C, S1, S2 at k = 0 (`_kernel.low_k_limits`); slopes are
    d/dk, in units of length.  The free case has alpha = 0, beta = 1 and
    slopes 0.  Refuses wells at an exact threshold, where alpha = 0 and the
    slopes diverge, with ThresholdDivergenceError; a limit that overflows
    (beta and alpha on an opaque barrier, kappa0 d above about 353) raises
    ConvergenceError.
    """
    if pot.v0 < 0 and is_at_threshold(pot, consts):
        raise ThresholdDivergenceError(
            "well is at a bound-state threshold: alpha = 0 and the k -> 0 phase "
            "slopes diverge there")
    with np.errstate(over="ignore", invalid="ignore"):  # raised below
        values = [float(v) for v in _kernel.low_k_limits(pot.strength(consts), pot.width)]
    if not all(map(math.isfinite, values)):
        raise ConvergenceError(
            f"k -> 0 limits {values} are not all finite: beta and alpha overflow on "
            "opaque barriers (kappa0 d above about 353), the slopes ~ 1/(g d) as |g| d "
            "nears the smallest double")
    return LowMomentumLimits(*values)
