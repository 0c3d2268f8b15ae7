"""Adaptive panel quadrature for the momentum integrals.

Each panel is integrated with a fixed Gauss-Legendre rule; its error is
estimated by comparing against the sum of its two half-panel values, and the
worst panel is bisected until the summed error estimate meets the tolerance.
Integrands are called on whole node batches (the seed panels and their
halves in one call, then one call per bisection), which amortizes the
kernel's per-call overhead over many nodes.

`integral_to_zero` extends a finite-interval result down to p = 0 by halving
the lower cutoff until the added mass converges; non-shrinking increments
signal a genuinely divergent integral (bound-state threshold with a packet
that does not vanish at p = 0) and raise ThresholdDivergenceError.  One call
seeds the next `_HALVING_BATCH` halvings; each then refines and is tested in
order, as a separate `adaptive_quad` over [lo/2, lo] would.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, ThresholdDivergenceError

_NODES15, _WEIGHTS15 = np.polynomial.legendre.leggauss(15)
_NODES7, _WEIGHTS7 = np.polynomial.legendre.leggauss(7)
# one batched evaluation per panel serves both rules
_NODES_ALL = np.concatenate([_NODES15, _NODES7])
# `integral_to_zero` gives up after this many halvings of the cutoff
_MAX_HALVINGS = 60
_MAX_PANELS = 4000  # default panel budget of one integral
# halvings seeded per integrand call; of the 403 packet integrals of the fig3
# sweep, 186 stop after 1 halving, 119 after 5 and none after more than 16
_HALVING_BATCH = 8


@dataclass(frozen=True)
class QuadResult:
    value: float
    error: float
    n_panels: int


def _panel_values(f, edges_lo, edges_hi):
    """(GL15, GL7) values for a batch of panels [lo_i, hi_i].

    The order-7 companion guards against the two-level error estimate being
    fooled by coincidental agreement on under-resolved smooth integrands.
    """
    mid = 0.5 * (edges_lo + edges_hi)
    half = 0.5 * (edges_hi - edges_lo)
    x = mid[:, None] + half[:, None] * _NODES_ALL[None, :]
    y = np.asarray(f(x.ravel()), dtype=float).reshape(x.shape)
    g15 = half * (y[:, :15] @ _WEIGHTS15)
    g7 = half * (y[:, 15:] @ _WEIGHTS7)
    return g15, g7


def _seed_values(f, lo, hi):
    """(GL15, GL7) of panels [lo_i, hi_i], rows whole/left half/right half, in one call."""
    mids = 0.5 * (lo + hi)
    g15, g7 = _panel_values(f, np.concatenate([lo, lo, mids]), np.concatenate([hi, mids, hi]))
    return g15.reshape(3, -1), g7.reshape(3, -1)


def _refine(f, lo, hi, s15, s7, rel_tol, abs_tol, max_panels) -> QuadResult:
    """Bisect the worst of the seeded panels until the error estimate meets the tolerance."""

    def panel_error(value, c15, c7, hl7, hr7):
        return max(abs(value - c15), abs(c15 - c7), abs(value - hl7 - hr7))

    # heap entries: (-err, seq, lo, hi, value, left15, right15, left7, right7)
    heap: list = []
    seq = 0
    total = 0.0
    total_err = 0.0
    (coarse15, l15, r15), (coarse7, l7, r7) = s15, s7
    for i in range(len(lo)):
        val = l15[i] + r15[i]
        err = panel_error(val, coarse15[i], coarse7[i], l7[i], r7[i])
        total += val
        total_err += err
        heapq.heappush(heap, (-err, seq, lo[i], hi[i], val, l15[i], r15[i], l7[i], r7[i]))
        seq += 1

    n_panels = len(lo)
    while True:
        if not (math.isfinite(total) and math.isfinite(total_err)):
            raise ConvergenceError(
                f"quadrature estimate {total} with error bound {total_err} is not "
                "finite (integrand returned NaN or inf)",
                estimate=total,
                error=total_err,
            )
        if total_err <= max(rel_tol * abs(total), abs_tol):
            break
        if n_panels >= max_panels:
            raise ConvergenceError(
                f"quadrature did not converge within {max_panels} panels "
                f"(estimate {total:.6e}, error bound {total_err:.2e})",
                estimate=total,
                error=total_err,
            )
        neg_err, _, plo, phi, pval, pl15, pr15, pl7, pr7 = heapq.heappop(heap)
        pmid = 0.5 * (plo + phi)
        qlo = np.array([plo, 0.5 * (plo + pmid), pmid, 0.5 * (pmid + phi)])
        qhi = np.array([0.5 * (plo + pmid), pmid, 0.5 * (pmid + phi), phi])
        q15, q7 = _panel_values(f, qlo, qhi)
        for c15, c7, i0 in ((pl15, pl7, 0), (pr15, pr7, 2)):
            v = q15[i0] + q15[i0 + 1]
            e = panel_error(v, c15, c7, q7[i0], q7[i0 + 1])
            total += v
            total_err += e
            heapq.heappush(
                heap,
                (-e, seq, qlo[i0], qhi[i0 + 1], v,
                 q15[i0], q15[i0 + 1], q7[i0], q7[i0 + 1]),
            )
            seq += 1
        total -= pval
        total_err += neg_err  # neg_err = -err of the popped panel
        n_panels += 1

    return QuadResult(value=total, error=total_err, n_panels=n_panels)


def adaptive_quad(
    f,
    a: float,
    b: float,
    *,
    rel_tol: float = 1e-8,
    abs_tol: float = 0.0,
    breakpoints=(),
    max_panels: int = _MAX_PANELS,
) -> QuadResult:
    """Integrate a vectorized integrand over [a, b].

    `breakpoints` seed panel edges at known kinks or sharp features (barrier
    momentum, resonances).  Raises ConvergenceError carrying the achieved
    estimate if the panel budget is exhausted first, or as soon as the
    estimate or its error bound is not finite.
    """
    if not (b > a):
        raise ValueError(f"need b > a, got [{a}, {b}]")
    edges = [a] + sorted(p for p in set(breakpoints) if a < p < b) + [b]
    edges = np.asarray(edges, dtype=float)
    lo, hi = edges[:-1], edges[1:]
    return _refine(f, lo, hi, *_seed_values(f, lo, hi), rel_tol, abs_tol, max_panels)


def integral_to_zero(
    f,
    eps: float,
    *,
    rel_tol: float = 1e-8,
    reference: float,
) -> float:
    """Sum of integrals of f over (0, eps], halving the cutoff to convergence.

    `reference` sets the scale against which the discarded tail must be
    negligible (typically the integral over [eps, p_max] computed already).
    An integrable endpoint has increments shrinking at least geometrically;
    four successive halvings with ratio above 0.8 mean the cutoff limit does
    not exist and raise ThresholdDivergenceError.
    """
    total = 0.0
    increments: list[float] = []
    for start in range(0, _MAX_HALVINGS, _HALVING_BATCH):
        # halving n spans [eps/2^(n+1), eps/2^n]; dividing by 2^n is exact
        his = eps / 2.0 ** np.arange(start, min(start + _HALVING_BATCH, _MAX_HALVINGS))
        los = his / 2.0
        s15, s7 = _seed_values(f, los, his)
        for i in range(len(his)):
            scale = max(abs(reference + total), abs(reference), 1e-300)
            res = _refine(f, los[i : i + 1], his[i : i + 1], s15[:, i : i + 1],
                          s7[:, i : i + 1], 1e-6, 1e-14 * scale, _MAX_PANELS)
            total += res.value
            increments.append(abs(res.value))
            stalled = len(increments) >= 4 and all(
                increments[-j] >= 0.8 * increments[-j - 1] for j in (1, 2, 3)
            )
            if stalled and sum(increments[-4:]) > 1e-6 * scale:
                raise ThresholdDivergenceError(
                    "integral grows without bound as the lower cutoff shrinks "
                    f"(latest increments {increments[-4:]}, "
                    f"estimate {reference + total:.6e})",
                    estimate=reference + total,
                    error=sum(increments[-4:]),
                )
            # off-threshold the integrand vanishes at 0 at least linearly, so the
            # remaining tail is bounded by a fraction of the last increment
            if increments[-1] <= 0.5 * rel_tol * scale and (
                len(increments) < 2 or increments[-2] <= rel_tol * scale
            ):
                return total
    raise ConvergenceError(
        "lower-cutoff refinement did not converge",
        estimate=reference + total,
        error=increments[-1] if increments else None,
    )
