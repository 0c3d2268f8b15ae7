"""Exact scattering amplitudes, S-matrix eigenphases, and phase tables.

Conventions
-----------
A unit wave e^{ikx} comes in from the left; T and R are the transmission and
reflection amplitudes, T = |T| e^{i Phi_T}.  Parity splits the 2x2 S matrix
into eigenvalues

    S_0 = T + R   (even channel),   S_1 = T - R   (odd channel),

each unimodular on the real axis, S_j = e^{2 i delta_j}.  Phases obey
Phi_T = delta_0 + delta_1 and vanish as k -> infinity; a PhaseTable carries
the continuous phases on that branch, together with their analytic
k-derivatives and the oscillatory floors of the eigenphase slopes.

Closed forms, with d = 2a, g = 2 m v0 / hbar^2 and q^2 = k^2 - g:

    T = e^{-ikd} / D,   D = cos(qd) - (i/2)(k/q + q/k) sin(qd)
    R = T * (i/2)(q/k - k/q) sin(qd)

Both are even in q, so they continue automatically through E = v0 (q = 0,
handled by series) and into the tunneling region, and they extend to complex
k for causality checks.

On the real axis the phases need no complex arithmetic.  With A = Re D,
B = Im D, rho = -g S1/(2k) (R/T = i rho) and s = q S1 = sin(qd) above the
barrier momentum (0 at and below it, where q is taken as 0):

    Phi_T   = theta - arctan2(A (s + B), A^2 - B s),   theta = (q - k) d
    delta_j = Phi_T/2 +- arctan(rho)/2
    floor_j = -a - (A rho -+ B)/(2k |D|^2)   (delta_j' > floor_j, `delays`)

where the arctan2's second argument stays >= 1, which keeps Phi_T on the
branch that vanishes as k -> infinity (`_phases`).  `eigenphases` keeps the
complex route, arg(T +- R)/2, as an independent check.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import _kernel
from .errors import ConvergenceError
from .potential import ATOMIC, PhysicalConstants, SquarePotential

# largest Phi_T step between table neighbours (half of it, exactly, for each delta_j)
_MAX_JUMP = math.pi / 2


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
    """Continuous phases, analytic derivatives and the floors of delta_j'
    on a k-grid, all real: no T, which `_kernel.scatter_grid` gives bitwise.

    The grid is strictly increasing.  Phi_T and delta_j are closed forms on
    the branch where they vanish as k -> infinity, and neighbours that are
    not adjacent floats differ by at most pi/2 in Phi_T, pi/4 in each delta_j.
    """

    pot: SquarePotential
    consts: PhysicalConstants
    k_grid: np.ndarray
    phi_t: np.ndarray
    delta0: np.ndarray
    delta1: np.ndarray
    dphi_t: np.ndarray
    ddelta0: np.ndarray
    ddelta1: np.ndarray
    floor0: np.ndarray
    floor1: np.ndarray

    @property
    def k_min(self) -> float:
        return float(self.k_grid[0])

    @property
    def k_max(self) -> float:
        return float(self.k_grid[-1])

    def require(self, k: float) -> None:
        if not self.k_min <= k <= self.k_max:
            raise ValueError(
                f"k={k} outside table range [{self.k_min}, {self.k_max}]"
            )


def require_finite(*values, t=None) -> None:
    """Raise ConvergenceError unless every value is finite and the
    transmission amplitude `t`, if given, is finite and nonzero.  One check,
    of the values' sum: it is finite when every value is, and only a sum that
    is not (which may have overflowed) is looked at value by value."""
    checked = values if t is None else (*values, t)
    with np.errstate(over="ignore", invalid="ignore"):
        total = sum(checked[1:], checked[0])
    finite = np.isfinite(total).all() or all(np.isfinite(v).all() for v in checked)
    if not finite or (t is not None and np.count_nonzero(t) < np.size(t)):
        raise ConvergenceError("T underflows to 0 or a value is not finite: |D|^2 "
                               "overflows above kappa d ~ 355 (opaque barrier)")


def amplitudes(pot: SquarePotential, consts: PhysicalConstants, k) -> Amplitudes:
    """T and R at one wavenumber, real or complex.

    Valid in the tunneling (E < v0) and propagating (E > v0) regimes and at
    E = v0 itself; complex k is evaluated by analytic continuation.  Opaque
    barriers, where the kernel overflows, raise ConvergenceError.
    """
    kc = complex(k)
    if kc == 0:
        raise ValueError("amplitudes are defined only for k != 0 "
                         "(the k -> 0 limit is threshold-dependent)")
    if not cmath.isfinite(kc):
        raise ValueError(f"k must be finite, got {k}")
    g = pot.strength(consts)
    d = pot.width
    with np.errstate(over="ignore", invalid="ignore"):  # opaque barriers: raised below
        if kc.imag == 0.0:
            k = kc.real
            t, r, _, _, _ = _kernel.scatter_grid(g, d, np.array([k]))
        else:
            k = kc
            t, r = _kernel.complex_amplitudes(g, d, np.array([k]))
    require_finite(r, t=t)
    return Amplitudes(k=k, t=complex(t[0]), r=complex(r[0]))


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
    """Default upper end of a phase table: the phases are already in their
    asymptotic tail there."""
    return max(
        20.0 * math.sqrt(2.0 * consts.mass * abs(pot.v0)) / consts.hbar,
        40.0 / pot.half_width,
    )


def _phases(g: float, d: float, k) -> tuple[np.ndarray, ...]:
    """Phi_T, delta_0, delta_1, their k-derivatives and the floors of delta_j',
    from the real parts of one kernel call (the forms above).

    Above the barrier momentum T e^{-i theta} = 1/(D e^{iqd}), whose real part
    A^2 - B s = cos^2 qd + (k/q + q/k) sin^2(qd)/2 is >= 1 and whose imaginary
    part is A (s + B); at and below it s = 0, theta = -kd, and the two parts
    are those of A D, with A = cosh(|q| d) >= 1.  So the principal Phi_T is
    continuous and vanishes as k -> infinity.  Opaque barriers, where |D|^2
    overflows (kappa d > ~355), raise ConvergenceError.
    """
    k = np.asarray(k, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # opaque barriers: raised below
        A, B, den, S1, rho, dphi, dd0, dd1 = _kernel.phase_parts(g, d, k)
        Arho, w = A * rho, 2.0 * k * den  # the floors first: a lower peak memory
        floor0, floor1 = -0.5 * d - (Arho - B) / w, -0.5 * d - (Arho + B) / w
        del Arho, w
        mu = k * k - g
        q = np.sqrt(np.maximum(mu, 0.0))
        theta = d * np.where(mu > 0, -g / (q + k), -k)
        s = np.multiply(q, S1, out=q)
        phi_t = theta - np.arctan2(A * (s + B), A * A - B * s)
    require_finite(den, phi_t, dphi, dd0, dd1, floor0, floor1)
    half = 0.5 * np.arctan(rho)
    return phi_t, 0.5 * phi_t + half, 0.5 * phi_t - half, dphi, dd0, dd1, floor0, floor1


def build_phase_table(
    pot: SquarePotential,
    consts: PhysicalConstants,
    k_min: float,
    k_max: float | None = None,
    *,
    samples: int = 1200,
) -> PhaseTable:
    """Closed-form phase table on [k_min, k_max] (default `default_k_max`).

    Starts from `samples` uniform points and, for output density only,
    bisects every interval over which Phi_T moves by more than pi/2 or a
    delta_j by more than pi/4.  Opaque barriers raise ConvergenceError.
    """
    if k_max is None:
        k_max = default_k_max(pot, consts)
    if not 0 < k_min < k_max < math.inf:
        raise ValueError(f"need 0 < k_min < k_max < inf, got [{k_min}, {k_max}]")
    if samples < 2:
        raise ValueError("samples must be at least 2")

    g, d = pot.strength(consts), pot.width
    ks = np.linspace(k_min, k_max, samples)
    cols = _phases(g, d, ks)
    while True:  # ends: the phases are continuous and adjacent floats are not split
        split = np.abs(np.diff(cols[0])) > _MAX_JUMP
        for delta in cols[1:3]:
            split |= np.abs(np.diff(delta)) > 0.5 * _MAX_JUMP
        if not (idx := np.flatnonzero(split)).size:
            break
        mids = 0.5 * (ks[idx] + ks[idx + 1])
        inside = (ks[idx] < mids) & (mids < ks[idx + 1])
        if not inside.any():
            break
        idx, mids = idx[inside], mids[inside]
        ks = np.insert(ks, idx + 1, mids)
        cols = tuple(np.insert(c, idx + 1, m) for c, m in zip(cols, _phases(g, d, mids)))
    return PhaseTable(pot, consts, ks, *cols)


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
    Opaque barriers, where the kernel overflows, raise ConvergenceError.
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
    with np.errstate(over="ignore", invalid="ignore"):  # opaque barriers: raised below
        t, r = _kernel.complex_amplitudes(g, d, ks)
        tm, rm = _kernel.complex_amplitudes(g, d, -ks.conj())
    require_finite(r, tm, rm, t=t)
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
