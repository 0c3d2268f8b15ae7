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

The floors need no eigenphase.  On the real axis, with A = Re D, B = Im D
and rho = -g S1/(2k) from the kernel (`_kernel.phase_parts`),

    e^{2i(ka + delta_j)} = e^{ikd} S_j = (A - iB)(1 +- i rho)/|D|^2,
    sin 2(ka + delta_j)  = (+-A rho - B)/|D|^2,

so floor_j = -a - (A rho -+ B)/(2k |D|^2) and the oscillatory bound is
(m/(hbar k))(-d - A rho/(k |D|^2)).  The delay dt and that bound are formed
once, in `_delays`, for `wigner_delay`, `causality_bounds`, the delay-sweep
rows (`delay_rows`) and the crossing checks of `hartman.verify`;
`smith_identity_check` takes floor_j the same way, and each phase table
stores both floors for `eigenphase_derivative_bounds`.  `channel_floors` and
`oscillatory_delay_bound` keep the sine of the eigenphases, as the
independent check.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernel
from .boundstates import _level, count_bound_states
from .potential import PhysicalConstants, SquarePotential
from .scattering import PhaseTable, require_finite

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


def _delays(g, width: float, k, consts: PhysicalConstants):
    """dPhi_T/dk, the delay dt = m dPhi_T/dk/(hbar k) and its
    `oscillatory_delay_bound` (m/(hbar k))(-d - A rho/(k |D|^2)),
    elementwise over strengths g and wavenumbers k, from one kernel call; a
    value that is not finite raises ConvergenceError."""
    with np.errstate(over="ignore", invalid="ignore"):  # opaque barriers: raised below
        A, _, den, _, rho, dphi, _, _ = _kernel.phase_parts(g, width, k)
        delta_t = consts.mass * dphi / (consts.hbar * k)
        osc = consts.mass / (consts.hbar * k) * (-width - A * rho / (k * den))
    require_finite(den, delta_t, osc)
    return dphi, delta_t, osc


def _check_table(table: PhaseTable, pot: SquarePotential) -> None:
    if table.pot != pot:
        raise ValueError(
            f"phase table was built for {table.pot}, not {pot}"
        )


def wigner_delay(table: PhaseTable, consts: PhysicalConstants, k: float) -> float:
    """dt = (m/(hbar k)) dPhi_T/dk, from the analytic derivative."""
    table.require(k)
    pot = table.pot
    return float(_delays(pot.strength(consts), pot.width, np.array([float(k)]), consts)[1][0])


def phase_time(
    pot: SquarePotential, consts: PhysicalConstants, table: PhaseTable, k: float
) -> float:
    """Extrapolated phase time m d / p + dt (not a genuine traversal time)."""
    _check_table(table, pot)
    p = consts.hbar * k
    return consts.mass * pot.width / p + wigner_delay(table, consts, k)


def causality_bounds(
    pot: SquarePotential, consts: PhysicalConstants, table: PhaseTable, k: float
) -> DelayRecord:
    """Delay at k together with every bound it must respect.  The bound-state
    bound reads only the shallowest level, so that is the one level solved."""
    _check_table(table, pot)
    table.require(k)
    k = float(k)
    d = pot.width
    m = consts.mass
    p = consts.hbar * k
    dphi, delta_t, osc = (float(x[0]) for x in
                          _delays(pot.strength(consts), d, np.array([k]), consts))

    n_b = count_bound_states(pot, consts) if pot.v0 < 0 else 0
    bound_bs = None
    if n_b >= 1:
        # the shallowest level, the last one by energy, has the smallest K_b
        k_b = _level(pot, consts, n_b).k_b
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


def delay_rows(v0s, k: float, width: float, consts: PhysicalConstants) -> list[tuple]:
    """The delay-sweep rows (v0, delta_t, bound_osc, bound_simple, n_b), one
    per well depth or barrier height, from one kernel call over all of v0s."""
    if not 0 < k < math.inf:
        raise ValueError(f"--k must be positive and finite, got {k}")
    pots = [SquarePotential(v0=v0, half_width=width / 2.0) for v0 in v0s]
    g = np.array([pot.strength(consts) for pot in pots])
    _, delta_t, osc = _delays(g, width, np.full(len(g), k), consts)
    simple = -consts.mass * width / (consts.hbar * k)
    return [
        (pot.v0, dt, bound, simple, count_bound_states(pot, consts))
        for pot, dt, bound in zip(pots, delta_t.tolist(), osc.tolist())
    ]


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

    margin0 = dd0 - table.floor0
    margin1 = dd1 - table.floor1

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
    a - c s1 = mu (a s1^2 + c s2); the odd numerator is taken as
    (a - c s1)/mu where mu a^2 < -1, since a s1^2 + c s2 cancels there like
    cosh^2 - sinh^2.  Both denominators are sums of squares, so
    the interior-amplitude resonances cos(qa) -> 0 / sin(qa) -> 0 and the
    q -> 0 point are all regular.  Opaque barriers, where c overflows, raise
    ConvergenceError.
    """
    if parity not in _PARITIES:
        raise ValueError(f"parity must be one of {_PARITIES}, got {parity!r}")
    if not 0 < k < math.inf:
        raise ValueError(f"k must be positive and finite, got {k}")
    k = float(k)
    a = pot.half_width
    mu = k * k - pot.strength(consts)
    with np.errstate(over="ignore", invalid="ignore"):  # opaque barriers: raised below
        c, s1, s2 = (float(x[0]) for x in _kernel.trig_triplet(np.array([mu]), a))
    if parity == "even":
        num = a + c * s1
        den = k * k * c * c + mu * mu * s1 * s1
    else:
        num = (a - c * s1) / mu if mu * a * a < -1.0 else a * s1 * s1 + c * s2
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

    The right side takes delta_j' and floor_j = -a - (A rho -+ B)/(2k |D|^2)
    from the real parts of one kernel call (S2 and D'); the left side,
    `interior_norm`, uses no phase or derivative.  Opaque barriers raise
    ConvergenceError.
    """
    lhs = interior_norm(pot, consts, k, parity)
    k = float(k)
    j = _PARITIES.index(parity)
    with np.errstate(over="ignore", invalid="ignore"):  # opaque barriers: raised below
        A, B, den, _, rho, _, dd0, dd1 = _kernel.phase_parts(
            pot.strength(consts), pot.width, np.array([k]))
        # delta_j' - floor_j, with sin 2(ka + delta_j) = (+-A rho - B)/|D|^2
        excess = (dd0, dd1)[j] + pot.half_width + (A * rho - (1 - 2 * j) * B) / (2.0 * k * den)
    require_finite(den, excess)
    rhs = (2.0 / consts.h) * float(excess[0])
    return SmithIdentityReport(
        k=k,
        parity=parity,
        lhs=lhs,
        rhs=rhs,
        rel_error=abs(lhs - rhs) / max(abs(lhs), 1e-300),
    )
