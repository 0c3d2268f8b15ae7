"""Exact scattering amplitudes, S-matrix eigenphases, and phase tables.

Conventions
-----------
A unit wave e^{ikx} comes in from the left; T and R are the transmission and
reflection amplitudes, T = |T| e^{i Phi_T}.  Parity splits the 2x2 S matrix
into eigenvalues

    S_0 = T + R   (even channel),   S_1 = T - R   (odd channel),

each unimodular on the real axis, S_j = e^{2 i delta_j}.  Phases obey
Phi_T = delta_0 + delta_1 and vanish as k -> infinity; a PhaseTable carries
the continuously unwrapped phases anchored to that convention, together with
their analytic k-derivatives.

Closed forms, with d = 2a, g = 2 m v0 / hbar^2 and q^2 = k^2 - g:

    T = e^{-ikd} / D,   D = cos(qd) - (i/2)(k/q + q/k) sin(qd)
    R = T * (i/2)(q/k - k/q) sin(qd)

Both are even in q, so they continue automatically through E = v0 (q = 0,
handled by series) and into the tunneling region, and they extend to complex
k for causality checks.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernel
from .errors import ConvergenceError, PhaseAnchorError
from .potential import ATOMIC, PhysicalConstants, SquarePotential

# relative interval floor for adaptive unwrap refinement
_REFINE_FLOOR = 1e-12


@dataclass(frozen=True)
class Amplitudes:
    """Transmission and reflection amplitudes at one wavenumber."""

    k: complex
    t: complex
    r: complex


@dataclass(frozen=True)
class EigenChannelValues:
    """S-matrix eigenvalues and principal-branch eigenphases at real k."""

    s0: complex
    s1: complex
    delta0: float
    delta1: float


@dataclass(frozen=True)
class PhaseTable:
    """Continuously unwrapped phases and analytic derivatives on a k-grid.

    The grid is strictly increasing; at k_max, which must lie above the
    barrier momentum, Phi_T takes the 2 pi branch nearest (q - k) d and each
    delta_j the pi branch nearest half of that, which is exact at any width;
    phases are unwrapped downward from there by continuity, bisecting any
    interval whose phase jump exceeds `max_jump`.
    """

    pot: SquarePotential
    consts: PhysicalConstants
    k_grid: np.ndarray
    t: np.ndarray  # transmission amplitude at each grid point
    phi_t: np.ndarray
    delta0: np.ndarray
    delta1: np.ndarray
    dphi_t: np.ndarray
    ddelta0: np.ndarray
    ddelta1: np.ndarray
    max_jump: float

    @property
    def k_min(self) -> float:
        return float(self.k_grid[0])

    @property
    def k_max(self) -> float:
        return float(self.k_grid[-1])

    def covers(self, k: float) -> bool:
        return self.k_min <= k <= self.k_max

    def require(self, k: float) -> None:
        if not self.covers(k):
            raise ValueError(
                f"k={k} outside table range [{self.k_min}, {self.k_max}]"
            )


def amplitudes(pot: SquarePotential, consts: PhysicalConstants, k) -> Amplitudes:
    """T and R at one wavenumber, real or complex.

    Valid in the tunneling (E < v0) and propagating (E > v0) regimes and at
    E = v0 itself; complex k is evaluated by analytic continuation.
    """
    kc = complex(k)
    if kc == 0:
        raise ValueError("amplitudes are defined only for k != 0 "
                         "(the k -> 0 limit is threshold-dependent)")
    g = pot.strength(consts)
    d = pot.width
    if kc.imag == 0.0:
        t, r, _, _, _ = _kernel.scatter_grid(g, d, np.array([kc.real]))
        return Amplitudes(k=kc.real, t=complex(t[0]), r=complex(r[0]))
    t, r = _kernel.complex_amplitudes(g, d, np.array([kc]))
    return Amplitudes(k=kc, t=complex(t[0]), r=complex(r[0]))


def eigenphases(t, r):
    """Principal eigenphases delta_j = arg(S_j)/2 in (-pi/2, pi/2] of
    S_0 = T + R and S_1 = T - R, elementwise."""
    return 0.5 * np.angle(t + r), 0.5 * np.angle(t - r)


def eigen_channels(amps: Amplitudes) -> EigenChannelValues:
    """Even/odd S-matrix eigenvalues S_0 = T+R, S_1 = T-R and principal
    eigenphases delta_j = arg(S_j)/2 in (-pi/2, pi/2]."""
    if complex(amps.k).imag != 0.0:
        raise ValueError("eigen channels are defined for real-k amplitudes")
    delta0, delta1 = eigenphases(amps.t, amps.r)
    return EigenChannelValues(
        s0=amps.t + amps.r,
        s1=amps.t - amps.r,
        delta0=float(delta0),
        delta1=float(delta1),
    )


def default_k_max(pot: SquarePotential, consts: PhysicalConstants = ATOMIC) -> float:
    """Anchor wavenumber where phases are already in their asymptotic tail."""
    return max(
        20.0 * math.sqrt(2.0 * consts.mass * abs(pot.v0)) / consts.hbar,
        40.0 / pot.half_width,
    )


def _wrap_pi(x: np.ndarray) -> np.ndarray:
    """Wrap into (-pi, pi]."""
    return np.pi - np.mod(np.pi - x, 2.0 * np.pi)


def build_phase_table(
    pot: SquarePotential,
    consts: PhysicalConstants,
    k_min: float,
    k_max: float | None = None,
    tol: float = math.pi / 2,
    *,
    samples: int = 1200,
) -> PhaseTable:
    """Unwrapped phase table on [k_min, k_max].

    `tol` is the largest adjacent-point jump tolerated in Phi_T (and, halved,
    in each delta_j); intervals violating it are bisected adaptively.  The
    phases are anchored at k_max on the branches nearest (q - k) d for Phi_T
    and half of it for delta_j (see PhaseTable).  A k_max at or below the
    barrier momentum, or anchored phases that are not additive there, raise
    PhaseAnchorError.
    """
    if k_max is None:
        k_max = default_k_max(pot, consts)
    if not (0 < k_min < k_max):
        raise ValueError(f"need 0 < k_min < k_max, got [{k_min}, {k_max}]")
    if not (0 < tol <= math.pi / 2):
        raise ValueError("tol must lie in (0, pi/2]")
    if samples < 2:
        raise ValueError("samples must be at least 2")

    g = pot.strength(consts)
    d = pot.width

    ks = np.linspace(k_min, k_max, samples)
    t, r, dphi, dd0, dd1 = _kernel.scatter_grid(g, d, ks)
    pt = np.angle(t)
    # principal eigenphases, defined mod pi
    h0, h1 = eigenphases(t, r)

    # above the barrier Phi_T = (q - k) d - arg(D e^{iqd}), and
    # Re(D e^{iqd}) = cos^2(qd) + s sin^2(qd) >= 1 with s = (k/q + q/k)/2,
    # so Phi_T(k_max) lies within pi/2 of (q - k) d = -g d/(q + k), and
    # each delta_j within pi/4 of half of that
    if k_max * k_max <= g:
        raise PhaseAnchorError(
            f"k_max = {k_max} is not above the barrier momentum "
            f"{math.sqrt(g):.6g}; increase k_max"
        )
    guide = -g * d / (math.sqrt(k_max * k_max - g) + k_max)
    phi_end = pt[-1] + 2.0 * math.pi * round((guide - pt[-1]) / (2.0 * math.pi))
    d0_end = h0[-1] + math.pi * round((0.5 * guide - h0[-1]) / math.pi)
    d1_end = h1[-1] + math.pi * round((0.5 * guide - h1[-1]) / math.pi)
    if abs(phi_end - d0_end - d1_end) > 1e-9:
        raise PhaseAnchorError(
            f"principal phases not additive at k_max = {k_max}; increase k_max"
        )

    # adaptive bisection until every interval's wrapped jumps are within tol
    # (delta_j jumps wrap mod pi and must stay within tol/2 so that the
    # unwrapped identity phi_t = delta0 + delta1 is preserved exactly)
    for _ in range(200):
        jt = np.abs(_wrap_pi(np.diff(pt)))
        j0 = np.abs(_wrap_pi(2.0 * np.diff(h0)) / 2.0)
        j1 = np.abs(_wrap_pi(2.0 * np.diff(h1)) / 2.0)
        bad = (jt > tol) | (j0 > 0.5 * tol) | (j1 > 0.5 * tol)
        if not np.any(bad):
            break
        idx = np.nonzero(bad)[0]
        if np.any((ks[idx + 1] - ks[idx]) < _REFINE_FLOOR * ks[idx + 1]):
            raise ConvergenceError(
                "phase unwrap refinement hit the machine-precision step floor"
            )
        mids = 0.5 * (ks[idx] + ks[idx + 1])
        tm, rm, dpm, d0m, d1m = _kernel.scatter_grid(g, d, mids)
        h0m, h1m = eigenphases(tm, rm)
        ks = np.insert(ks, idx + 1, mids)
        t = np.insert(t, idx + 1, tm)
        pt = np.insert(pt, idx + 1, np.angle(tm))
        h0 = np.insert(h0, idx + 1, h0m)
        h1 = np.insert(h1, idx + 1, h1m)
        dphi = np.insert(dphi, idx + 1, dpm)
        dd0 = np.insert(dd0, idx + 1, d0m)
        dd1 = np.insert(dd1, idx + 1, d1m)
    else:
        raise ConvergenceError("phase unwrap refinement did not terminate")

    def unwrap_down(principal: np.ndarray, end: float, modulus: float) -> np.ndarray:
        scale = 2.0 * math.pi / modulus
        jumps = _wrap_pi(scale * np.diff(principal)) / scale
        out = np.empty_like(principal)
        out[-1] = end
        out[:-1] = end - np.cumsum(jumps[::-1])[::-1]
        return out

    phi_t = unwrap_down(pt, phi_end, modulus=2.0 * math.pi)
    delta0 = unwrap_down(h0, d0_end, modulus=math.pi)
    delta1 = unwrap_down(h1, d1_end, modulus=math.pi)

    return PhaseTable(
        pot=pot,
        consts=consts,
        k_grid=ks,
        t=t,
        phi_t=phi_t,
        delta0=delta0,
        delta1=delta1,
        dphi_t=dphi,
        ddelta0=dd0,
        ddelta1=dd1,
        max_jump=tol,
    )


@dataclass(frozen=True)
class VanKampenSample:
    """Causality and symmetry diagnostics at one upper-half-plane wavenumber."""

    k: complex
    s_a0_abs: float
    s_a1_abs: float
    passed: bool
    symmetry_error: float
    near_pole: bool


def van_kampen_check(
    pot: SquarePotential,
    consts: PhysicalConstants,
    k_samples,
    tol: float = 1e-10,
) -> list[VanKampenSample]:
    """Check |e^{ikd} S_j(k)| <= 1 on Im k >= 0 samples (no bound states).

    Also verifies the reflection symmetry S_j(k)* = S_j(-k*) at each sample.
    Samples within 1e-8 of a pole (|D| underflow) are flagged, not fatal.
    """
    if pot.v0 < 0:
        raise ValueError("the causality bound requires no bound states (v0 >= 0)")
    ks = np.array([complex(k) for k in k_samples], dtype=complex)
    for kc in ks:
        if kc.imag < 0:
            raise ValueError(f"sample {kc} lies in the lower half plane")
        if kc == 0:
            raise ValueError("k = 0 is not a valid sample")
    g = pot.strength(consts)
    d = pot.width
    t, r = _kernel.complex_amplitudes(g, d, ks)
    tm, rm = _kernel.complex_amplitudes(g, d, -ks.conj())
    s0, s1 = t + r, t - r
    e = np.exp(1j * ks * d)
    sa0 = np.abs(e * s0)
    sa1 = np.abs(e * s1)
    # pole proximity: T = e^{-ikd}/D
    near_pole = np.abs(np.exp(-1j * ks * d) / t) < 1e-8
    sym = np.maximum(np.abs(s0.conj() - (tm + rm)), np.abs(s1.conj() - (tm - rm)))
    return [
        VanKampenSample(
            k=complex(ks[i]),
            s_a0_abs=float(sa0[i]),
            s_a1_abs=float(sa1[i]),
            passed=bool(max(sa0[i], sa1[i]) <= 1.0 + tol),
            symmetry_error=float(sym[i]),
            near_pole=bool(near_pole[i]),
        )
        for i in range(len(ks))
    ]
