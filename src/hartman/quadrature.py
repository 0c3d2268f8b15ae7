"""Adaptive panel quadrature for the momentum integrals, run in lockstep.

Each panel is integrated with a fixed Gauss-Legendre rule; its error is
estimated by comparing against the sum of its two half-panel values, and the
worst panel is bisected until the summed error estimate meets the tolerance.

Each integral is a generator that yields the panels (lo, hi) it needs and
receives their (GL15, GL7) values.  `_lockstep` runs many in rounds of one
integrand call per block of panels; an integral's panels and sums do not depend
on what runs beside it, and `adaptive_quad` and `integral_to_zero` run one.

`integral_to_zero` extends a finite-interval result down to p = 0 by halving
the lower cutoff until the added mass converges; non-shrinking increments
signal a genuinely divergent integral (bound-state threshold with a packet
that does not vanish at p = 0) and raise ThresholdDivergenceError.  One
request seeds the next `_HALVING_BATCH` halvings; each then refines and is
tested in order, as a separate `adaptive_quad` over [lo/2, lo] would.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .errors import ConvergenceError, ThresholdDivergenceError

_NODES15, _WEIGHTS15 = np.polynomial.legendre.leggauss(15)
_NODES7, _WEIGHTS7 = np.polynomial.legendre.leggauss(7)
# one batched evaluation per panel serves both rules; the order-7 rule keeps
# chance agreement on under-resolved integrands from fooling the estimate
_NODES_ALL = np.concatenate([_NODES15, _NODES7])
# `integral_to_zero` gives up after this many halvings of the cutoff
_MAX_HALVINGS = 60
_MAX_PANELS = 4000  # default panel budget of one integral
# halvings seeded per request; of the 403 packet integrals of the fig3
# sweep, 186 stop after 1 halving, 119 after 5 and none after more than 16
_HALVING_BATCH = 8
# panels (4,092 nodes) per integrand call, however many integrals are open
_BLOCK_PANELS = 4096 // len(_NODES_ALL)


@dataclass(frozen=True)
class QuadResult:
    value: float
    error: float
    n_panels: int


def _lockstep(f, integrals) -> list:
    """Each integral's result, or the ConvergenceError or ValueError it raised.
    A round calls f(x, owner) per block of whole requests, at most `_BLOCK_PANELS`
    panels unless one request is larger, owner = each node's integral (an int if
    one is open), and reduces each request alone: BLAS row sums vary by place."""
    results: list = [None] * len(integrals)
    replies = dict.fromkeys(range(len(integrals)))
    while True:
        owners, edges = [], []
        for i, reply in replies.items():
            try:
                edges.append(integrals[i].send(reply))
                owners.append(i)
            except StopIteration as stop:
                results[i] = stop.value
            except (ConvergenceError, ValueError) as exc:
                results[i] = exc
        if not edges:
            return results
        sizes = [len(lo) for lo, _ in edges]
        ends = list(accumulate(sizes))
        lo, hi = edges[0] if len(edges) == 1 else map(np.concatenate, zip(*edges))
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        if len(edges) == 1 and sizes[0] <= _BLOCK_PANELS:  # one integral: a plain call
            x = mid[:, None] + half[:, None] * _NODES_ALL
            y = np.asarray(f(x.ravel(), owners[0]), dtype=float).reshape(x.shape)
            replies = {owners[0]: (half * (y[:, :15] @ _WEIGHTS15),
                                   half * (y[:, 15:] @ _WEIGHTS7))}
            continue
        replies, first, start = {}, 0, 0
        for j, end in enumerate(ends):
            if j + 1 < len(ends) and ends[j + 1] - start <= _BLOCK_PANELS:
                continue  # the next request still fits this block
            block = slice(first, j + 1)  # whole requests, panels start..end
            x = mid[start:end, None] + half[start:end, None] * _NODES_ALL
            own = np.repeat(owners[block], [len(_NODES_ALL) * n for n in sizes[block]])
            y = np.asarray(f(x.ravel(), own), dtype=float).reshape(x.shape)
            for i, n, e in zip(owners[block], sizes[block], ends[block]):
                rows = slice(e - n - start, e - start)
                replies[i] = (half[e - n : e] * (y[rows, :15] @ _WEIGHTS15),
                              half[e - n : e] * (y[rows, 15:] @ _WEIGHTS7))
            first, start = j + 1, end


def _first_error(results) -> list:
    """`results`, after raising the first exception among them."""
    for r in results:
        if isinstance(r, Exception):
            raise r
    return results


def _seed(lo, hi):
    """(GL15, GL7) of panels [lo_i, hi_i], rows whole/left half/right half, in one request."""
    mids = 0.5 * (lo + hi)
    g15, g7 = yield np.concatenate([lo, lo, mids]), np.concatenate([hi, mids, hi])
    return g15.reshape(3, -1), g7.reshape(3, -1)


def _refine(lo, hi, s15, s7, rel_tol, abs_tol, max_panels):
    """Bisect the worst of the seeded panels until the error estimate meets the tolerance."""

    def panel_error(value, c15, c7, hl7, hr7):
        return max(abs(value - c15), abs(c15 - c7), abs(value - hl7 - hr7))

    # heap entries, Python floats: (-err, seq, lo, hi, value, l15, r15, l7, r7)
    heap: list = []
    total = 0.0
    total_err = 0.0
    for seq, (plo, phi, c15, l15, r15, c7, l7, r7) in enumerate(
            zip(lo.tolist(), hi.tolist(), *s15.tolist(), *s7.tolist())):
        val = l15 + r15
        err = panel_error(val, c15, c7, l7, r7)
        total += val
        total_err += err
        heapq.heappush(heap, (-err, seq, plo, phi, val, l15, r15, l7, r7))
    seq = n_panels = len(lo)
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
        qlo = [plo, 0.5 * (plo + pmid), pmid, 0.5 * (pmid + phi)]
        qhi = [0.5 * (plo + pmid), pmid, 0.5 * (pmid + phi), phi]
        q15, q7 = yield np.array(qlo), np.array(qhi)
        q15, q7 = q15.tolist(), q7.tolist()
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


def _adaptive(a, b, *, rel_tol=1e-8, abs_tol=0.0, breakpoints=(), max_panels=_MAX_PANELS):
    """`adaptive_quad` as a lockstep integral."""
    if not (b > a):
        raise ValueError(f"need b > a, got [{a}, {b}]")
    edges = [a] + sorted(p for p in set(breakpoints) if a < p < b) + [b]
    edges = np.asarray(edges, dtype=float)
    lo, hi = edges[:-1], edges[1:]
    s15, s7 = yield from _seed(lo, hi)
    return (yield from _refine(lo, hi, s15, s7, rel_tol, abs_tol, max_panels))


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
    gen = _adaptive(a, b, rel_tol=rel_tol, abs_tol=abs_tol,
                    breakpoints=breakpoints, max_panels=max_panels)
    return _first_error(_lockstep(lambda x, _: f(x), [gen]))[0]


def _to_zero(eps, *, rel_tol=1e-8, reference):
    """`integral_to_zero` as a lockstep integral."""
    total = 0.0
    increments: list[float] = []
    for start in range(0, _MAX_HALVINGS, _HALVING_BATCH):
        # halving n spans [eps/2^(n+1), eps/2^n]; dividing by 2^n is exact
        his = eps / 2.0 ** np.arange(start, min(start + _HALVING_BATCH, _MAX_HALVINGS))
        los = his / 2.0
        s15, s7 = yield from _seed(los, his)
        for i in range(len(his)):
            scale = max(abs(reference + total), abs(reference), 1e-300)
            res = yield from _refine(los[i : i + 1], his[i : i + 1], s15[:, i : i + 1],
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
    gen = _to_zero(eps, rel_tol=rel_tol, reference=reference)
    return _first_error(_lockstep(lambda x, _: f(x), [gen]))[0]
