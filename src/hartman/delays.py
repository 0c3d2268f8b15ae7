"""Time delays, causality bounds, dwell times, and boundary identities.

The transmitted packet's Wigner delay is dt = (m/(hbar k)) dPhi_T/dk, a
time advancement when negative.  How negative it may go is constrained by
causality:

  * without bound states, dt >= -m d / p  (the naive positivity of the
    extrapolated phase time, which bound states break);
  * always, for even cut-off potentials,
        dt >= (m/(hbar k)) { -d - [sin(2ka+2 delta_0) - sin(2ka+2 delta_1)]/(2k) }
           >= (m/p)(-d - 1/k),
    from the per-channel derivative bounds
        delta_0' > -a - sin[2(ka+delta_0)]/(2k)
        delta_1' > -a + sin[2(ka+delta_1)]/(2k);
  * with a single bound state of decay constant K_b,
        dt >= -(m/p)(d + 1/K_b).

The per-channel bounds are the positivity of the interior norm
integral(psi_j^2) over [-a, a], which this module evaluates in closed form
(`interior_norm`).  The boundary-derivative identity

    integral(psi_0^2) = (hbar^2/m) (psi_E(a) psi'(a) - psi(a) psi_E'(a))

takes, with theta_j = ka + delta_j, the closed form

    integral(psi_j^2) = (2/h) (delta_j' - floor_j),

floor_j being the `channel_floors` above (Wigner, Phys. Rev. 98, 145 (1955);
the sin(2 theta_j)/(2k) term is Winful's self-interference delay, PRL 91,
260401 (2003)); `smith_identity_check` compares the two sides.  The dwell
time tau_D = (m/(hbar k)) * interior_norm is positive by construction.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernel
from .boundstates import solve_bound_states
from .potential import PhysicalConstants, SquarePotential
from .scattering import PhaseTable, eigenphases, require_finite

_PARITIES = ("even", "odd")


@dataclass(frozen=True)
class DelayRecord:
    """Time delay at one wavenumber with every applicable causality bound."""

    k: float
    delta_t: float
    spatial_delay: float
    tau_ph: float
    bound_simple: float  # -m d / p; holds without bound states
    bound_tight_osc: float  # oscillatory bound, channel phases resolved
    bound_tight_weak: float  # (m/p)(-d - 1/k)
    bound_bound_state: float | None  # -(m/p)(d + 1/K_b), shallowest K_b
    n_bound_states: int
    single_bound_state: bool  # the bound-state bound is stated for n_b = 1


@dataclass(frozen=True)
class DwellRecord:
    k: float
    parity: str
    tau_d: float
    interior_norm: float


def _scatter_point(pot, consts, k):
    t, r, dphi, dd0, dd1 = _kernel.scatter_grid(
        pot.strength(consts), pot.width, np.array([float(k)])
    )
    return complex(t[0]), complex(r[0]), float(dphi[0]), float(dd0[0]), float(dd1[0])


def channel_floors(k, half_width: float, delta0, delta1):
    """Oscillatory floors of the eigenphase derivatives, elementwise:

        delta_0' > -a - sin[2(ka+delta_0)]/(2k)
        delta_1' > -a + sin[2(ka+delta_1)]/(2k)

    valid for any real square potential; delta_j may be taken mod pi.
    """
    a = half_width
    return (-a - np.sin(2.0 * (k * a + delta0)) / (2.0 * k),
            -a + np.sin(2.0 * (k * a + delta1)) / (2.0 * k))


def oscillatory_delay_bound(k, half_width: float, delta0, delta1,
                            consts: PhysicalConstants):
    """Oscillatory lower bound on the Wigner delay, elementwise:

        dt >= (m/(hbar k)) { -d - [sin(2ka+2 delta_0) - sin(2ka+2 delta_1)]/(2k) }

    which is (m/(hbar k)) times the sum of the two `channel_floors`, since
    dt = (m/(hbar k)) (delta_0' + delta_1').
    """
    floor0, floor1 = channel_floors(k, half_width, delta0, delta1)
    return (consts.mass / (consts.hbar * k)) * (floor0 + floor1)


def _check_table(table: PhaseTable, pot: SquarePotential) -> None:
    if table.pot != pot:
        raise ValueError(
            f"phase table was built for {table.pot}, not {pot}"
        )


def wigner_delay(table: PhaseTable, consts: PhysicalConstants, k: float) -> float:
    """dt = (m/(hbar k)) dPhi_T/dk, from the analytic derivative."""
    table.require(k)
    _, _, dphi, _, _ = _scatter_point(table.pot, consts, k)
    return consts.mass * dphi / (consts.hbar * k)


def phase_time(
    pot: SquarePotential, consts: PhysicalConstants, table: PhaseTable, k: float
) -> float:
    """Extrapolated phase time m d / p + dt (not a genuine traversal time)."""
    _check_table(table, pot)
    table.require(k)
    p = consts.hbar * k
    return consts.mass * pot.width / p + wigner_delay(table, consts, k)


def causality_bounds(
    pot: SquarePotential, consts: PhysicalConstants, table: PhaseTable, k: float
) -> DelayRecord:
    """Delay at k together with every bound it must respect."""
    _check_table(table, pot)
    table.require(k)
    k = float(k)
    a = pot.half_width
    d = pot.width
    m = consts.mass
    hbar = consts.hbar
    p = hbar * k

    t, r, dphi, _, _ = _scatter_point(pot, consts, k)
    delta_t = m * dphi / (hbar * k)
    osc = float(oscillatory_delay_bound(k, a, *eigenphases(t, r), consts))

    n_b = 0
    bound_bs = None
    if pot.v0 < 0:
        spectrum = solve_bound_states(pot, consts)
        n_b = spectrum.n_b
        if n_b >= 1:
            k_b = min(level.k_b for level in spectrum.levels)
            if k_b > 0:
                bound_bs = -(m / p) * (d + 1.0 / k_b)

    return DelayRecord(
        k=k,
        delta_t=delta_t,
        spatial_delay=dphi,
        tau_ph=m * d / p + delta_t,
        bound_simple=-m * d / p,
        bound_tight_osc=osc,
        bound_tight_weak=(m / p) * (-d - 1.0 / k),
        bound_bound_state=bound_bs,
        n_bound_states=n_b,
        single_bound_state=n_b == 1,
    )


@dataclass(frozen=True)
class EigenphaseBoundViolation:
    k: float
    channel: int
    margin: float
    bound: str  # "oscillatory" | "no-bound-state"


@dataclass(frozen=True)
class EigenphaseBoundReport:
    passed: bool
    violations: tuple[EigenphaseBoundViolation, ...]
    min_margin_osc: float
    min_margin_simple: float  # asserted only for v0 >= 0; informational otherwise
    simple_bound_asserted: bool
    n_points: int


def eigenphase_derivative_bounds(
    pot: SquarePotential,
    consts: PhysicalConstants,
    table: PhaseTable,
    tol: float = 1e-9,
) -> EigenphaseBoundReport:
    """Check the per-channel derivative bounds at every table point.

    The oscillatory bounds hold for any real square potential; the simple
    bound delta_j' >= -a additionally requires no bound states (v0 >= 0).
    """
    _check_table(table, pot)
    a = pot.half_width
    k = table.k_grid
    dd0, dd1 = table.ddelta0, table.ddelta1

    floor0, floor1 = channel_floors(k, a, table.delta0, table.delta1)
    margin0 = dd0 - floor0
    margin1 = dd1 - floor1

    simple0 = dd0 + a
    simple1 = dd1 + a
    rows = (("oscillatory", (margin0, margin1), True),
            ("no-bound-state", (simple0, simple1), pot.v0 >= 0))
    violations = [
        EigenphaseBoundViolation(k=float(k[i]), channel=ch, margin=float(margin[i]), bound=name)
        for name, margins, asserted in rows if asserted
        for ch, margin in enumerate(margins)
        for i in np.nonzero(margin < -tol)[0]
    ]

    return EigenphaseBoundReport(
        passed=not violations,
        violations=tuple(violations),
        min_margin_osc=float(min(margin0.min(), margin1.min())),
        min_margin_simple=float(min(simple0.min(), simple1.min())),
        simple_bound_asserted=pot.v0 >= 0,
        n_points=len(k),
    )


def interior_norm(
    pot: SquarePotential,
    consts: PhysicalConstants,
    k: float,
    parity: str,
) -> float:
    """integral over [-a, a] of psi_j(x)^2 for the real scattering
    eigenfunction normalized to amplitude sqrt(2/h) outside.

    Written as a single ratio (matching condition substituted) in the
    half-width triplet c = cos(qa), s1 = sin(qa)/q, s2 = (a c - s1)/mu of
    `_kernel.trig_triplet`, mu = q^2 = k^2 - g:

        even: (2/h) k^2 (a + c s1) / (k^2 c^2 + mu^2 s1^2)
        odd:  (2/h) k^2 (a s1^2 + c s2) / (c^2 + k^2 s1^2)

    from 1 + cos(qd) = 2c^2, 1 - cos(qd) = 2 mu s1^2, sin(qd)/q = 2 c s1 and
    a - c s1 = mu (a s1^2 + c s2).  Both denominators are sums of squares, so
    the interior-amplitude resonances cos(qa) -> 0 / sin(qa) -> 0 and the
    q -> 0 point are all regular.  Opaque barriers, where c overflows, raise
    ConvergenceError.
    """
    if parity not in _PARITIES:
        raise ValueError(f"parity must be one of {_PARITIES}, got {parity!r}")
    if not (k > 0):
        raise ValueError(f"k must be positive, got {k}")
    k = float(k)
    a = pot.half_width
    mu = k * k - pot.strength(consts)
    c, s1, s2 = (float(x[0]) for x in _kernel.trig_triplet(np.array([mu]), a))
    if parity == "even":
        num = a + c * s1
        den = k * k * c * c + mu * mu * s1 * s1
    else:
        num = a * s1 * s1 + c * s2
        den = c * c + k * k * s1 * s1
    norm = (2.0 / consts.h) * k * k * num / den
    require_finite(norm, den)
    return norm


def dwell_time(
    pot: SquarePotential,
    consts: PhysicalConstants,
    k: float,
    parity: str,
) -> DwellRecord:
    """tau_D = (m/(hbar k)) * interior norm; positive by construction."""
    norm = interior_norm(pot, consts, k, parity)
    return DwellRecord(
        k=float(k),
        parity=parity,
        tau_d=consts.mass * norm / (consts.hbar * float(k)),
        interior_norm=norm,
    )


@dataclass(frozen=True)
class SmithIdentityReport:
    k: float
    parity: str
    lhs: float  # closed-form interior norm
    rhs: float  # (2/h)(delta_j' - floor_j)
    rel_error: float


def smith_identity_check(
    pot: SquarePotential,
    consts: PhysicalConstants,
    k: float,
    parity: str,
) -> SmithIdentityReport:
    """Verify the interior norm against the boundary-derivative identity
    integral(psi_j^2) = (2/h)(delta_j' - floor_j).

    The right side takes delta_j and its analytic k-derivative from one
    kernel call (S2 and D'), and floor_j from `channel_floors`; the left side,
    `interior_norm`, uses no phase or derivative.  Opaque barriers raise
    ConvergenceError.
    """
    lhs = interior_norm(pot, consts, k, parity)
    k = float(k)
    j = _PARITIES.index(parity)
    t, r, _, dd0, dd1 = _scatter_point(pot, consts, k)
    require_finite(dd0, dd1, t=t)
    floor = channel_floors(k, pot.half_width, *eigenphases(t, r))[j]
    rhs = (2.0 / consts.h) * ((dd0, dd1)[j] - float(floor))
    return SmithIdentityReport(
        k=k,
        parity=parity,
        lhs=lhs,
        rhs=rhs,
        rel_error=abs(lhs - rhs) / max(abs(lhs), 1e-300),
    )
