"""Independent oracles and the cross-module invariant suite.

The oracles here deliberately avoid the closed forms used by the library:
`transfer_matrix_amplitudes` solves the raw plane-wave matching system,
`transmission_probability_simpson` integrates on a fixed composite grid, and
`dense_unwrap_phases` finds the phase branches by a dense-sample unwrap.
`run_all_checks` drives every invariant and is what `hartman verify`
executes; each check returns a CheckResult with the measured extremes so
failures are diagnosable, and `run_all_checks` adds its wall time.  A check
that raises ConvergenceError or ValueError fails under its function's name,
with the error in its detail, and the remaining checks still run.
Each fast check that samples the kernel evaluates its grid in one kernel call
(one row per potential or FD stencil; one call per sign of k for the symmetry
check; every crossing bracket bisected at once).  The checks of a public scalar
entry (`amplitudes`, `smith_identity_check`, `dwell_time`, `solve_bound_states`,
`levinson_check`) loop over it on purpose: with the well tables they keep the
kernel's one-sign plain-ufunc path under test.
The crossing checks take dt from `delays` and the threshold-window check
reads fig3's rows from `wavepacket.packet_rows`; `check_bound_chain` keeps
its own dt = Phi_T'/k as the independent check of the bound chain.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import _kernel
from .boundstates import (count_bound_states, levinson_check, low_momentum_limits,
                          solve_bound_states)
from .cli import PRESETS, v0_grid
from .delays import (
    _delays,
    channel_floors,
    dwell_time,
    oscillatory_delay_bound,
    smith_identity_check,
)
from .errors import ConvergenceError
from .potential import ATOMIC, PhysicalConstants, SquarePotential
from .scattering import (amplitudes, build_phase_table, default_k_max, eigenphases,
                         van_kampen_check)
from .wavepacket import (
    GaussianPacketSpec,
    mean_exit_time,
    mean_exit_time_via_flux,
    packet_amplitude,
    packet_rows,
    transmission_probability,
    critical_width,
    crossover_width_empirical,
)

DEFAULT_SEED = 20260808

# crossing targets for the fixed-momentum delay sweep (k = 0.1, d = 2, m = 1)
CROSSING_TARGETS = (-math.pi**2 / 32.0, -math.pi**2 / 8.0)
_CROSSING_K, _CROSSING_WIDTH = 0.1, 2.0

# configurations spanning barrier / well / near-threshold for the
# momentum-space vs time-domain cross-validation
CROSS_VALIDATION_CONFIGS: tuple[tuple[SquarePotential, GaussianPacketSpec], ...] = (
    (SquarePotential(-0.30, 1.0), GaussianPacketSpec(math.pi / 8, 1.0, -41.0)),
    (SquarePotential(5.0, 0.5), GaussianPacketSpec(1.0, 0.1, -20.0)),
    (SquarePotential(0.0, 1.0), GaussianPacketSpec(2.0, 0.1, -30.0)),
    (SquarePotential(-1.0, 1.0), GaussianPacketSpec(math.pi / 8, 1.0, -41.0)),
    (SquarePotential(0.4, 1.0), GaussianPacketSpec(math.pi / 8, 1.0, -41.0)),
)


def transfer_matrix_amplitudes(
    pot: SquarePotential, consts: PhysicalConstants, k: float
) -> tuple[complex, complex]:
    """T and R by brute-force plane-wave matching at x = -a and x = a.

    Solves the 4x4 linear system for (R, inside amplitudes, T) directly;
    independent of the closed forms in the kernel.  At E = v0 the inside
    basis degenerates to {1, x}.
    """
    a = pot.half_width
    g = pot.strength(consts)
    q = np.sqrt(complex(k * k - g))
    eka = np.exp(1j * k * a)
    emka = np.exp(-1j * k * a)
    if abs(q) * pot.width < 1e-8:
        mat = np.array(
            [
                [-eka, 1.0, -a, 0.0],
                [1j * k * eka, 0.0, 1.0, 0.0],
                [0.0, 1.0, a, -eka],
                [0.0, 0.0, 1.0, -1j * k * eka],
            ],
            dtype=complex,
        )
    else:
        eqa = np.exp(1j * q * a)
        emqa = np.exp(-1j * q * a)
        mat = np.array(
            [
                [-eka, emqa, eqa, 0.0],
                [1j * k * eka, 1j * q * emqa, -1j * q * eqa, 0.0],
                [0.0, eqa, emqa, -eka],
                [0.0, 1j * q * eqa, -1j * q * emqa, -1j * k * eka],
            ],
            dtype=complex,
        )
    rhs = np.array([emka, 1j * k * emka, 0.0, 0.0], dtype=complex)
    sol = np.linalg.solve(mat, rhs)
    return complex(sol[3]), complex(sol[0])


def transmission_probability_simpson(
    spec: GaussianPacketSpec,
    pot: SquarePotential,
    consts: PhysicalConstants = ATOMIC,
) -> float:
    """P_T by composite Simpson on 100,001 fixed momenta; oracle for the adaptive route."""
    p = np.linspace(1e-9, spec.p_max(consts), 100_001)
    t, _, _, _, _ = _kernel.scatter_grid(
        pot.strength(consts), pot.width, p / consts.hbar
    )
    w = np.abs(packet_amplitude(spec, p, consts)) ** 2 * np.abs(t) ** 2
    h = p[1] - p[0]
    return float(h / 3.0 * (w[0] + w[-1] + 4.0 * w[1:-1:2].sum() + 2.0 * w[2:-2:2].sum()))


def dense_unwrap_phases(
    pot: SquarePotential, consts: PhysicalConstants, ks
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Phi_T, delta_0, delta_1 at increasing wavenumbers `ks` by a sampling
    unwrap, independent of the closed-form branch: principal phases on a
    uniform grid from ks[0] to k_hi = max(ks[-1], default_k_max), merged with
    `ks`, anchored at k_hi nearest (q - k) d (half of it for delta_j) and
    unwrapped downward; the grid doubles until that moves no phase by 1e-9."""
    g, d = pot.strength(consts), pot.width
    k_hi = max(float(ks[-1]), default_k_max(pot, consts))
    guide = -g * d / (math.sqrt(k_hi * k_hi - g) + k_hi)
    periods = np.array([[2 * math.pi], [math.pi], [math.pi]])
    n, prev = 4097, np.inf
    while n <= 2**19 + 1:
        grid = np.union1d(np.linspace(ks[0], k_hi, n), ks)
        t, r, _, _, _ = _kernel.scatter_grid(g, d, grid)
        principal = np.array([np.angle(t), *eigenphases(t, r)])[:, ::-1] / periods
        turns = np.unwrap(principal, period=1.0)  # in periods, from k_hi down
        turns += np.round(guide / (2 * math.pi) - turns[:, :1])
        phases = periods * turns[:, ::-1][:, np.searchsorted(grid, ks)]
        if np.abs(phases - prev).max() <= 1e-9:
            return tuple(phases)
        prev, n = phases, 2 * n - 1
    raise ConvergenceError("dense phase unwrap did not settle")


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: dict = field(default_factory=dict)
    seconds: float | None = None  # wall time, set by `run_all_checks`

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extras = ", ".join(f"{k}={v}" for k, v in self.detail.items())
        return f"{status}  {self.name}" + (f"  [{extras}]" if extras else "")


def _fmt(x: float) -> str:
    return f"{x:.3e}"


def _max(*values) -> float:
    """Largest element of `values` (numbers or arrays), NaN if any is NaN (the
    builtin max drops a NaN that is not its first argument, which would pass a
    broken check)."""
    return float(np.max([np.max(v) for v in values]))


def _min(*values) -> float:
    """Smallest element of `values` (numbers or arrays), NaN if any is NaN."""
    return float(np.min([np.min(v) for v in values]))


def check_unitarity_and_symmetry() -> CheckResult:
    """|T|^2+|R|^2 = 1, |S_j| = 1, and T(-k) = T(k)* on a 10^4 grid."""
    tol = 1e-12
    g = 2.0 * np.linspace(-10.0, 10.0, 100)[:, None]  # one row per v0
    ks = np.linspace(1e-3, 50.0, 100)
    start = time.perf_counter()
    t, r, _, _, _ = _kernel.scatter_grid(g, 2.0, ks)
    tm, rm, _, _, _ = _kernel.scatter_grid(g, 2.0, -ks)
    worst_u = _max(np.abs(np.abs(t) ** 2 + np.abs(r) ** 2 - 1.0))
    worst_s = _max(np.abs(np.abs(t + r) - 1.0), np.abs(np.abs(t - r) - 1.0))
    worst_sym = _max(np.abs(t.conj() - tm), np.abs(r.conj() - rm))
    elapsed = time.perf_counter() - start
    return CheckResult(
        "unitarity and symmetry (10^4 grid)",
        worst_u < tol and worst_s < tol and worst_sym < tol and elapsed < 5.0,
        {
            "max|unitarity defect|": _fmt(worst_u),
            "max||S_j|-1|": _fmt(worst_s),
            "max|T(-k)-T(k)*|": _fmt(worst_sym),
            "seconds": f"{elapsed:.2f}",
        },
    )


def check_oracle_equivalence() -> CheckResult:
    """Closed-form amplitudes vs the plane-wave matching solve."""
    n, tol = 100, 1e-10
    rng = np.random.default_rng(DEFAULT_SEED)
    worst = 0.0
    for _ in range(n):
        pot = SquarePotential(rng.uniform(-10, 10), rng.uniform(0.1, 3.0))
        k = rng.uniform(0.05, 10.0)
        amp = amplitudes(pot, ATOMIC, k)
        t_o, r_o = transfer_matrix_amplitudes(pot, ATOMIC, k)
        scale = max(abs(t_o), abs(r_o))
        worst = _max(worst, abs(amp.t - t_o) / scale, abs(amp.r - r_o) / scale)
    return CheckResult(
        f"amplitude oracle equivalence ({n} random cases)",
        worst < tol,
        {"max rel err": _fmt(worst)},
    )


def check_removable_singularity() -> CheckResult:
    """E = v0 is a regular point: symmetric second differences stay below
    1e-8 at eps = 1e-6 (no jump from the q -> 0 handling) and the first
    differences shrink linearly with eps."""
    tol = 1e-8
    worst_jump = 0.0
    worst_ratio = 0.0
    for v0, a in ((5.0, 0.5), (2.0, 1.5), (7.5, 1.0)):
        pot = SquarePotential(v0, a)
        at = amplitudes(pot, ATOMIC, math.sqrt(2.0 * v0))
        diffs = {}
        for eps in (1e-6, 1e-8):
            plus = amplitudes(pot, ATOMIC, math.sqrt(2.0 * (v0 + eps)))
            minus = amplitudes(pot, ATOMIC, math.sqrt(2.0 * (v0 - eps)))
            diffs[eps] = _max(abs(plus.t - at.t), abs(minus.t - at.t))
            worst_jump = _max(
                worst_jump,
                abs(plus.t + minus.t - 2.0 * at.t),
                abs(plus.r + minus.r - 2.0 * at.r),
            )
        worst_ratio = _max(worst_ratio, diffs[1e-8] / diffs[1e-6])
    return CheckResult(
        "removable singularity at E = v0",
        worst_jump < tol and worst_ratio < 2e-2,
        {"max second difference": _fmt(worst_jump),
         "first-difference shrink": _fmt(worst_ratio)},
    )


def check_phases_and_derivatives() -> CheckResult:
    """Table phases vs a dense-sample unwrap; analytic d/dk vs 5-point FD."""
    dense_tol = 1e-9
    fd_tol = 1e-6
    worst_dense = 0.0
    worst_fd = 0.0
    rng = np.random.default_rng(DEFAULT_SEED)
    for v0, a in ((5.0, 0.5), (-1.0, 1.0), (-6.0, 1.2)):
        pot = SquarePotential(v0, a)
        table = build_phase_table(pot, ATOMIC, 1e-3)
        dense = dense_unwrap_phases(pot, ATOMIC, table.k_grid)
        closed = np.array([table.phi_t, table.delta0, table.delta1])
        worst_dense = _max(worst_dense, np.abs(closed - dense))
        k = rng.uniform(0.2, 0.8 * table.k_max, 40)[:, None]  # one stencil per row
        h = 1e-5 * k
        t, _, dphi, _, _ = _kernel.scatter_grid(
            pot.strength(ATOMIC), pot.width, k + h * np.arange(-2.0, 3.0))
        ph = np.unwrap(np.angle(t))
        # a resonance peak makes FD unreliable; a NaN row is kept, to fail
        smooth = ~(np.abs(np.diff(ph)).max(axis=1) > 1.0)
        fd = (ph[:, 0] - 8 * ph[:, 1] + 8 * ph[:, 3] - ph[:, 4]) / (12 * h[:, 0])
        err = np.abs(fd - dphi[:, 2]) / np.maximum(np.abs(dphi[:, 2]), 1e-9)
        worst_fd = _max(worst_fd, err[smooth])
    return CheckResult(
        "phases vs dense unwrap and analytic derivatives",
        worst_dense < dense_tol and worst_fd < fd_tol,
        {"max dense-unwrap diff": _fmt(worst_dense), "max FD rel err": _fmt(worst_fd)},
    )


def check_bound_chain() -> CheckResult:
    """Delay bounds on a dense (v0, k) grid.

    - chain: delta_t >= oscillatory bound >= (m/p)(-d - 1/k), slack >= -1e-9;
    - channel bounds delta_j' above their oscillatory floors for all v0;
    - delta_t >= -m d/p and delta_j' >= -a whenever v0 >= 0.
    """
    slack = -1e-9
    a = 1.0
    d = 2.0
    ks = np.linspace(0.02, 20.0, 140)
    v0s = np.linspace(-10.0, 10.0, 90)
    t, r, dphi, dd0, dd1 = _kernel.scatter_grid(2.0 * v0s[:, None], d, ks)  # one row per v0
    d0, d1 = eigenphases(t, r)
    dt = dphi / ks
    osc = oscillatory_delay_bound(ks, a, d0, d1, ATOMIC)
    weak = (1.0 / ks) * (-d - 1.0 / ks)
    floor0, floor1 = channel_floors(ks, a, d0, d1)
    worst_chain = _min(dt - osc)
    worst_order = _min(osc - weak)
    worst_ch = _min(dd0 - floor0, dd1 - floor1)
    barrier = v0s >= 0
    worst_simple = _min((dt - (-d / ks))[barrier])
    worst_dd = _min(dd0[barrier] + a, dd1[barrier] + a)
    passed = (
        worst_chain >= slack
        and worst_order >= slack
        and worst_ch >= slack
        and worst_simple >= slack
        and worst_dd >= slack
    )
    return CheckResult(
        "causality bound chain on (v0, k) grid",
        passed,
        {
            "min(dt - osc)": _fmt(worst_chain),
            "min(osc - weak)": _fmt(worst_order),
            "min channel margin": _fmt(worst_ch),
            "min(dt + md/p), v0>=0": _fmt(worst_simple),
            "min(delta_j' + a), v0>=0": _fmt(worst_dd),
        },
    )


def check_simple_bound_violation() -> CheckResult:
    """A well in (-0.35, -0.25) beats -m d/p at k = 0.1 (d = 2, m = 1)."""
    margin = float(_simple_margin(np.linspace(-0.35, -0.25, 201)).min())
    return CheckResult(
        "simple bound violated near first crossing",
        margin < 0.0,
        {"min(dt + md/p)": _fmt(margin)},
    )


def _simple_margin(v0):
    """delta_t + m d/p at k = 0.1 and d = 2 (hbar = m = 1), on an array of v0."""
    dt = _delays(2.0 * v0, _CROSSING_WIDTH, np.full(v0.shape, _CROSSING_K), ATOMIC)[1]
    return dt + _CROSSING_WIDTH / _CROSSING_K


def find_simple_bound_crossings() -> list[float]:
    """Roots of `_simple_margin` by a scan of step 1e-3 over [-2, 0) and
    60 bisection steps, every bracket at once."""
    v0s = np.arange(-2.0, 0.0, 1e-3)
    vals = _simple_margin(v0s)
    i = np.nonzero(np.diff(np.sign(vals)))[0]
    lo, hi, flo = v0s[i], v0s[i + 1], vals[i]
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        fm = _simple_margin(mid)
        left = (fm > 0) == (flo > 0)  # the root lies above mid
        lo, flo, hi = np.where(left, mid, lo), np.where(left, fm, flo), np.where(left, hi, mid)
    return (0.5 * (lo + hi)).tolist()


def check_crossings_near_thresholds() -> CheckResult:
    """Crossings of delta_t with -m d/p sit within 0.02 of the expected depths."""
    tol = 0.02
    crossings = find_simple_bound_crossings()
    dists = [_min(np.abs(np.subtract(crossings, target))) if crossings else math.inf
             for target in CROSSING_TARGETS]
    return CheckResult(
        "delay crossings near bound-state onsets",
        all(x <= tol for x in dists),
        {
            "crossings": "[" + ", ".join(f"{c:+.4f}" for c in crossings) + "]",
            "distances": "[" + ", ".join(_fmt(x) for x in dists) + "]",
        },
    )


def check_hartman_plateau() -> CheckResult:
    """Extrapolated phase time is width-independent for opaque barriers and
    sits near 2 m hbar/(p_b p0)."""
    start = time.perf_counter()
    p0 = 0.5
    # g = 2 m v0/hbar^2 = 10 and k = p0/hbar in atomic units
    taus = {d: d / p0 + _delays(10.0, d, p0, ATOMIC)[1] for d in (8.0, 12.0)}
    elapsed = time.perf_counter() - start
    asymptote = 2.0 / (math.sqrt(10.0) * p0)
    drift = abs(taus[8.0] - taus[12.0])
    rel = abs(taus[8.0] - asymptote) / asymptote
    return CheckResult(
        "Hartman plateau (v0=5, p0=0.5)",
        drift < 1e-6 and rel < 0.10 and elapsed < 1.0,
        {
            "tau(8)": f"{taus[8.0]:.8f}",
            "|tau(8)-tau(12)|": _fmt(drift),
            "rel to 2m hbar/(p_b p0)": _fmt(rel),
            "seconds": f"{elapsed:.2f}",
        },
    )


def check_levinson() -> CheckResult:
    """Unwrapped Phi_T(k_min) vs pi(n_b - 1/2) for one-, two-, three-level wells."""
    tol = 1e-2 * math.pi
    rows = {}
    worst = 0.0
    for v0 in (-1.0, -2.5, -5.0):
        rep = levinson_check(SquarePotential(v0, 1.0), ATOMIC, k_min=1e-4)
        rows[f"n_b({v0})"] = rep.n_bound_states
        worst = _max(worst, rep.residual)
    return CheckResult(
        "Levinson limit for n_b in {1,2,3}",
        worst < tol,
        {"max residual": _fmt(worst), **{k: str(v) for k, v in rows.items()}},
    )


def check_low_momentum_slopes() -> CheckResult:
    """The kernel's slopes at k = 1e-7 (dPhi_T/dk, ddelta_0/dk, ddelta_1/dk)
    vs the closed-form k -> 0 limits, on barriers, the free case and wells
    on both sides of the first three thresholds; relative to max(|limit|, d)."""
    tol = 1e-9
    worst = 0.0
    for v0, a in ((5.0, 0.5), (0.4, 1.0), (2.0, 1.5), (0.0, 1.0), (-0.3, 1.0),
                  (-1.0, 1.0), (-1.22, 1.0), (-1.3, 1.0), (-4.8, 1.0), (-5.0, 1.0),
                  (-11.0, 1.0), (-11.3, 1.0)):
        pot = SquarePotential(v0, a)
        lim = low_momentum_limits(pot, ATOMIC)
        slopes = _kernel.scatter_grid(pot.strength(ATOMIC), pot.width, np.array([1e-7]))[2:]
        for got, want in zip(slopes, (lim.dphi_t, lim.ddelta0, lim.ddelta1)):
            worst = _max(worst, abs(float(got[0]) - want) / max(abs(want), pot.width))
    return CheckResult(
        "k -> 0 phase slopes vs closed-form limits (12 potentials)",
        worst < tol,
        {"max rel err": _fmt(worst)},
    )


def check_smith_identity_and_dwell() -> CheckResult:
    """Boundary-derivative identity within 1e-6 and dwell times positive."""
    n, tol = 50, 1e-6
    rng = np.random.default_rng(DEFAULT_SEED)
    worst = 0.0
    min_dwell = math.inf
    for _ in range(n):
        pot = SquarePotential(rng.uniform(-10, 10), rng.uniform(0.2, 2.0))
        k = rng.uniform(0.1, 5.0)
        parity = "even" if rng.integers(2) == 0 else "odd"
        rep = smith_identity_check(pot, ATOMIC, k, parity)
        worst = _max(worst, rep.rel_error)
        min_dwell = _min(min_dwell, dwell_time(pot, ATOMIC, k, parity).tau_d)
    return CheckResult(
        f"boundary-derivative identity + dwell positivity ({n} cases)",
        worst < tol and min_dwell > 0,
        {"max rel err": _fmt(worst), "min dwell": _fmt(min_dwell)},
    )


def check_bound_state_count_consistency() -> CheckResult:
    """Solver level count equals the threshold formula on 200 random wells."""
    rng = np.random.default_rng(DEFAULT_SEED)
    checked = 0
    for _ in range(200):
        v0 = rng.uniform(-20.0, -1e-3)
        a = rng.uniform(0.1, 5.0)
        pot = SquarePotential(v0, a)
        x = 2.0 * a * math.sqrt(2.0 * abs(v0)) / math.pi
        if abs(x - round(x)) < 1e-6:
            continue  # stay off thresholds
        spec = solve_bound_states(pot, ATOMIC)
        if spec.n_b != count_bound_states(pot, ATOMIC) or len(spec.levels) != spec.n_b:
            return CheckResult(
                "bound-state count consistency",
                False,
                {"v0": f"{v0:.6f}", "a": f"{a:.6f}"},
            )
        checked += 1
    return CheckResult(
        "bound-state count consistency", True, {"wells checked": str(checked)}
    )


def check_van_kampen() -> CheckResult:
    """|e^{ikd} S_j| <= 1 on upper-half-plane samples for a barrier."""
    n, tol = 100, 1e-10
    rng = np.random.default_rng(DEFAULT_SEED)
    samples = [
        complex(rng.uniform(-6.0, 6.0), rng.uniform(0.0, 4.0)) for _ in range(n)
    ]
    samples = [k if abs(k) > 1e-3 else k + 0.5 for k in samples]
    pot = SquarePotential(5.0, 0.5)
    reports = van_kampen_check(pot, ATOMIC, samples, tol=tol)
    worst = _max([(r.s_a0_abs, r.s_a1_abs) for r in reports])
    worst_sym = _max([r.symmetry_error for r in reports])
    return CheckResult(
        f"van Kampen causality bound ({n} upper-half-plane samples)",
        all(r.passed for r in reports) and worst_sym < 1e-12,
        {"max |e^(ikd) S_j|": f"{worst:.12f}", "max symmetry defect": _fmt(worst_sym)},
    )


def check_packet_normalization() -> CheckResult:
    """Unit norm of the truncated packet; P_T <= 1."""
    from .quadrature import adaptive_quad

    tol = 1e-10
    worst_norm = 0.0
    worst_pt = 0.0
    for spec in (
        GaussianPacketSpec(math.pi / 8, 1.0, -41.0),
        GaussianPacketSpec(2.0, 0.1, -30.0),
        GaussianPacketSpec(0.5, 0.35, -15.0),
    ):
        w = lambda p: np.abs(packet_amplitude(spec, p, ATOMIC)) ** 2
        norm = adaptive_quad(w, 1e-12, spec.p_max(ATOMIC), rel_tol=1e-12).value
        worst_norm = _max(worst_norm, abs(norm - 1.0))
        for v0 in (5.0, -0.9):
            pt = transmission_probability(spec, SquarePotential(v0, 1.0), ATOMIC)
            worst_pt = _max(worst_pt, pt - 1.0)
    return CheckResult(
        "packet normalization, P_T <= 1",
        worst_norm < tol and worst_pt < tol,
        {"max |norm-1|": _fmt(worst_norm), "max (P_T - 1)": _fmt(worst_pt)},
    )


def check_exit_time_cross_validation() -> CheckResult:
    """Momentum-space mean exit time vs the time-domain flux oracle."""
    tol = 1e-3
    worst = 0.0
    slowest = 0.0
    for pot, spec in CROSS_VALIDATION_CONFIGS:
        rep = mean_exit_time(spec, pot, ATOMIC)
        start = time.perf_counter()
        t_flux = mean_exit_time_via_flux(spec, pot, ATOMIC)
        slowest = max(slowest, time.perf_counter() - start)
        worst = _max(worst, abs(t_flux - rep.t_out) / abs(rep.t_out))
    return CheckResult(
        "exit-time cross-validation (5 configurations)",
        worst < tol and slowest < 120.0,
        {"max rel diff": _fmt(worst), "slowest oracle (s)": f"{slowest:.1f}"},
    )


def check_threshold_enhancement() -> CheckResult:
    """Windows with t_subtracted < 0 and P_T > 0.5 near the first two
    enhancement depths, in the rows of `packet-sweep --preset fig3`."""
    fig3 = PRESETS["fig3"]
    spec = GaussianPacketSpec(fig3["k0"], fig3["delta_p"], fig3["x0"])
    start = time.perf_counter()
    hits: dict[float, bool] = {t: False for t in CROSSING_TARGETS}
    v0s = v0_grid(fig3["v0_min"], fig3["v0_max"], fig3["v0_step"])
    # a diverged row's t_subtracted is NaN, so it opens no window
    for v0, p_t, _, _, t_sub, _, _ in packet_rows(v0s, spec, fig3["width"], ATOMIC):
        if t_sub < 0 and p_t > 0.5:
            for target in hits:
                if abs(v0 - target) <= 0.25:
                    hits[target] = True
    elapsed = time.perf_counter() - start
    return CheckResult(
        "threshold-enhanced advancement windows (reference sweep)",
        all(hits.values()) and elapsed < 300.0,
        {
            **{f"window near {t:+.4f}": str(v) for t, v in hits.items()},
            "seconds": f"{elapsed:.1f}",
        },
    )


def check_crossover_width() -> CheckResult:
    """Empirical tunneling/classical crossover within a factor 2 of the
    estimate (v0 = 5, p0 = 1, dp = 0.1)."""
    pot = SquarePotential(5.0, 0.5)
    spec = GaussianPacketSpec(1.0, 0.1, -50.0)
    d_est = critical_width(spec, pot, ATOMIC)
    d_emp = crossover_width_empirical(spec, pot, ATOMIC)
    ratio = d_emp / d_est
    return CheckResult(
        "empirical crossover width vs estimate",
        0.5 <= ratio <= 2.0,
        {"estimate": f"{d_est:.3f}", "empirical": f"{d_emp:.3f}", "ratio": f"{ratio:.3f}"},
    )


def check_monotone_filtering() -> CheckResult:
    """P_T strictly decreasing in width for a fixed packet and barrier."""
    spec = GaussianPacketSpec(1.0, 0.2, -30.0)
    values = [
        transmission_probability(spec, SquarePotential(5.0, dd / 2.0), ATOMIC)
        for dd in (0.5, 1.0, 2.0, 4.0, 8.0)
    ]
    drops = [values[i + 1] < values[i] for i in range(len(values) - 1)]
    return CheckResult(
        "transmission filtering monotone in width",
        all(drops),
        {"P_T sequence": "[" + ", ".join(f"{v:.3e}" for v in values) + "]"},
    )


FAST_CHECKS = (
    check_unitarity_and_symmetry,
    check_oracle_equivalence,
    check_removable_singularity,
    check_phases_and_derivatives,
    check_bound_chain,
    check_simple_bound_violation,
    check_crossings_near_thresholds,
    check_hartman_plateau,
    check_levinson,
    check_low_momentum_slopes,
    check_smith_identity_and_dwell,
    check_bound_state_count_consistency,
    check_van_kampen,
    check_packet_normalization,
)

SLOW_CHECKS = (
    check_exit_time_cross_validation,
    check_monotone_filtering,
    check_crossover_width,
    check_threshold_enhancement,
)


def run_all_checks(include_slow: bool = True) -> list[CheckResult]:
    checks = FAST_CHECKS + (SLOW_CHECKS if include_slow else ())
    results = []
    for check in checks:
        start = time.perf_counter()
        try:
            result = check()
        except (ConvergenceError, ValueError) as exc:
            result = CheckResult(check.__name__, False, {"error": str(exc)})
        results.append(replace(result, seconds=time.perf_counter() - start))
    return results
