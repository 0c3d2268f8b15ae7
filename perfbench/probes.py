"""Regime probes: fixed inputs from the opaque-barrier, deep-well and
low-momentum regimes.

They run once per run, outside the timed loop: a fix that makes them compute
takes longer than failing does, and inside the loop that would read as a
slowdown.  A probe passes when the library returns the physically right
answer; it fails when it raises or returns a wrong one.  The list is fixed
and is not trimmed to the inputs that pass.
"""
from __future__ import annotations

import math
import warnings

import numpy as np

import hartman
from hartman import ATOMIC, SquarePotential

from workloads import LEVINSON_TOL, SMITH_TOL, count_formula

PLATEAU_P0 = 0.5
PLATEAU_FLAT_TOL = 1e-6  # width independence, as in the Hartman plateau check


def _phase_time(v0: float, half_width: float, k_max=None, samples=1200) -> float:
    pot = SquarePotential(v0, half_width)
    table = hartman.build_phase_table(pot, ATOMIC, 0.01, k_max, samples=samples)
    return 2.0 * half_width / PLATEAU_P0 + hartman.wigner_delay(table, ATOMIC, PLATEAU_P0)


def plateau(v0: float, half_width: float) -> str | None:
    """The phase time of an opaque barrier equals its value at d = 8."""
    reference = _phase_time(v0, 4.0, k_max=1000.0, samples=4000)
    tau = _phase_time(v0, half_width)
    if not abs(tau - reference) < PLATEAU_FLAT_TOL:
        return f"tau = {tau!r}, plateau {reference!r}"
    return None


def levinson(v0: float, half_width: float) -> str | None:
    rep = hartman.levinson_check(SquarePotential(v0, half_width), ATOMIC, k_min=1e-4)
    if not rep.residual < LEVINSON_TOL:
        return (f"Phi_T = {rep.phi_t_at_kmin / math.pi:.3f} pi, "
                f"predicted {rep.predicted / math.pi:.3f} pi")
    return None


def level_count(v0: float, half_width: float) -> str | None:
    spectrum = hartman.solve_bound_states(SquarePotential(v0, half_width), ATOMIC)
    n_b = count_formula(v0, half_width)
    if not spectrum.n_b == len(spectrum.levels) == n_b:
        return f"{spectrum.n_b} levels ({len(spectrum.levels)} solved), formula {n_b}"
    return None


def smith(v0: float, half_width: float, k: float, parity: str) -> str | None:
    """The boundary-derivative identity holds to its verify tolerance."""
    rep = hartman.smith_identity_check(SquarePotential(v0, half_width), ATOMIC, k, parity)
    if not rep.rel_error < SMITH_TOL:
        return f"rel error {rep.rel_error:.3e} (cancellation_warning={rep.cancellation_warning})"
    return None


PROBES = (
    ("plateau barrier v0=5 a=50", plateau, (5.0, 50.0)),
    ("plateau barrier v0=5 a=100", plateau, (5.0, 100.0)),
    ("plateau barrier v0=20 a=5", plateau, (20.0, 5.0)),
    ("plateau barrier v0=5 a=115", plateau, (5.0, 115.0)),
    ("plateau barrier v0=5 a=150", plateau, (5.0, 150.0)),
    ("levinson well v0=-20 a=5", levinson, (-20.0, 5.0)),
    ("levinson well v0=-100 a=5", levinson, (-100.0, 5.0)),
    ("levinson well v0=-200 a=5", levinson, (-200.0, 5.0)),
    ("levels well v0=-2000 a=10", level_count, (-2000.0, 10.0)),
    ("smith barrier v0=9 a=1.2 k=0.1 even", smith, (9.0, 1.2, 0.1, "even")),
)


def run_probes() -> list[dict]:
    results = []
    for label, probe, args in PROBES:
        with warnings.catch_warnings(), np.errstate(all="ignore"):
            warnings.simplefilter("ignore")
            try:
                reason = probe(*args)
            except Exception as exc:  # a raising probe is a recorded failure
                reason = f"{type(exc).__name__}: {exc}"
        results.append({"probe": label, "ok": reason is None, "outcome": reason or "ok"})
    return results
