"""Bound states of the square well and the low-momentum phase limit.

A well of depth |v0| and half-width a holds n_b = floor(2 z0/pi) + 1 bound
states, z0 = a*sqrt(2 m |v0|)/hbar.  New states appear (with zero energy) at
the depths where 2 z0/pi crosses an integer, i.e. v0 = -(hbar n pi)^2/(8 m a^2);
exactly at such a depth the zero-energy state is a half-bound state and is
flagged rather than counted as a level.

Each level solves, on the circle q^2 + K_b^2 = 2 m |v0|/hbar^2,

    even:  q tan(q a) = K_b        odd:  -q cot(q a) = K_b

by bisection on the disjoint monotone branches z = q a in
((n-1) pi/2, n pi/2), which orders levels by ascending energy and alternates
parities starting from even.

The unwrapped transmission phase at k -> 0 equals pi*(n_b - 1/2) whenever
T(0) = 0 (every off-threshold potential) and pi*n_b at the exceptional
threshold depths where |T(0)| = 1, as for the free particle.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import ConvergenceError
from .potential import ATOMIC, PhysicalConstants, SquarePotential
from .scattering import build_phase_table, default_k_max

# relative distance (in 2*z0/pi) below which a well counts as at-threshold
THRESHOLD_RTOL = 1e-8


@dataclass(frozen=True)
class BoundLevel:
    parity: str  # "even" | "odd"
    k_b: float  # decay constant, psi ~ e^{-K_b |x|} outside
    energy: float  # -(hbar K_b)^2 / (2 m) < 0
    near_threshold: bool = False


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


def solve_bound_states(
    pot: SquarePotential,
    consts: PhysicalConstants = ATOMIC,
    tol: float = 1e-12,
) -> BoundStateSpectrum:
    """All bound levels of a well, by bisection on disjoint brackets.

    Levels come out sorted by ascending energy with parities alternating
    even, odd, even, ...; each satisfies its transcendental equation to
    |residual| / max(z0, 1) < max(tol, 8 eps z0), the larger term being the
    rounding floor of sin and cos at arguments near z0, and sits on the
    circle constraint exactly by construction.
    """
    if pot.v0 >= 0:
        if pot.v0 > 0:
            raise ValueError("bound states require a well (v0 < 0)")
        return BoundStateSpectrum(n_b=0, levels=())
    a = pot.half_width
    z0 = a * math.sqrt(2.0 * consts.mass * abs(pot.v0)) / consts.hbar
    at_thr = is_at_threshold(pot, consts)
    n_b = count_bound_states(pot, consts)
    tol = max(tol, 8.0 * sys.float_info.epsilon * z0)

    levels = []
    for n in range(1, n_b + 1):
        even = n % 2 == 1
        m = (n - 1) // 2
        lo = (n - 1) * math.pi / 2.0
        hi = min(n * math.pi / 2.0, z0)
        sign = -1.0 if m % 2 else 1.0

        def func(z: float) -> float:
            chi = math.sqrt(max(z0 * z0 - z * z, 0.0))
            if even:
                return sign * (z * math.sin(z) - chi * math.cos(z))
            return sign * (-z * math.cos(z) - chi * math.sin(z))

        flo, fhi = func(lo), func(hi)
        if not (flo < 0.0 < fhi):
            raise ConvergenceError(
                f"bracketing failed for level {n}: f({lo})={flo}, f({hi})={fhi}"
            )
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            fm = func(mid)
            if fm == 0.0 or (hi - lo) < 1e-16 * z0:
                lo = hi = mid
                break
            if fm < 0.0:
                lo = mid
            else:
                hi = mid
        z = 0.5 * (lo + hi)
        chi = math.sqrt(max(z0 * z0 - z * z, 0.0))
        best_val = abs(func(z))

        # below chi = z the circle relation makes z the well-conditioned
        # unknown and the bisection's root stands; above it chi is, so the
        # root is polished there by Newton in chi
        if z >= chi:

            def f_chi(c: float) -> tuple[float, float]:
                zz = math.sqrt(max(z0 * z0 - c * c, 0.0))
                if even:
                    val = sign * (zz * math.sin(zz) - c * math.cos(zz))
                    dz = (math.sin(zz) + zz * math.cos(zz) + c * math.sin(zz))
                else:
                    val = sign * (-zz * math.cos(zz) - c * math.sin(zz))
                    dz = (-math.cos(zz) + zz * math.sin(zz) - c * math.cos(zz))
                dz_dc = -c / zz if zz > 0 else 0.0
                if even:
                    deriv = sign * (dz * dz_dc - math.cos(zz))
                else:
                    deriv = sign * (dz * dz_dc - math.sin(zz))
                return val, deriv

            best_chi, best_val = chi, abs(f_chi(chi)[0])
            for _ in range(6):
                val, deriv = f_chi(chi)
                if deriv == 0.0:
                    break
                step = val / deriv
                nxt = chi - step
                if not (0.0 <= nxt <= z0):
                    break
                chi = nxt
                v = abs(f_chi(chi)[0])
                if v < best_val:
                    best_chi, best_val = chi, v
                if v == 0.0:
                    break
            chi = best_chi

        residual = best_val / max(z0, 1.0)
        if residual > tol:
            raise ConvergenceError(
                f"level {n} residual {residual:.3e} exceeds tol {tol:.1e}",
                estimate=chi / a,
                error=residual,
            )
        k_b = chi / a
        levels.append(
            BoundLevel(
                parity="even" if even else "odd",
                k_b=k_b,
                energy=-((consts.hbar * k_b) ** 2) / (2.0 * consts.mass),
                near_threshold=k_b < 1e-12,
            )
        )

    if len(levels) != n_b:
        raise ConvergenceError(
            f"solver returned {len(levels)} levels, count formula says {n_b}"
        )
    return BoundStateSpectrum(n_b=n_b, levels=tuple(levels), at_threshold=at_thr)


@dataclass(frozen=True)
class LevinsonReport:
    phi_t_at_kmin: float
    predicted: float
    residual: float
    n_bound_states: int
    t_zero_branch: bool  # True when T(k -> 0) -> 0 (generic case)
    heuristic_consistent: bool  # |T(k_min)| < 0.5 agrees with the branch


def levinson_check(
    pot: SquarePotential,
    consts: PhysicalConstants = ATOMIC,
    k_min: float = 1e-4,
) -> LevinsonReport:
    """Compare the unwrapped Phi_T(k_min) against the bound-state count.

    Refuses wells at an exact threshold: there the k -> 0 branch changes and
    the slow phase variation makes any finite k_min unrepresentative.
    """
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
            t_zero_branch=False,
            heuristic_consistent=True,
        )

    table = build_phase_table(
        pot, consts, k_min, default_k_max(pot, consts), samples=2000
    )
    phi0 = float(table.phi_t[0])
    t_abs = abs(complex(table.t[0]))

    predicted = math.pi * (n_b - 0.5)
    return LevinsonReport(
        phi_t_at_kmin=phi0,
        predicted=predicted,
        residual=abs(phi0 - predicted),
        n_bound_states=n_b,
        t_zero_branch=True,
        heuristic_consistent=t_abs < 0.5,
    )
