"""Adaptive panel quadrature for the momentum integrals, run in lockstep.

Each panel is integrated with a fixed Gauss-Legendre rule; its error is
estimated by comparing against the sum of its two half-panel values, and the
worst panel (the first made among equals) is bisected until the summed error
estimate meets the tolerance.

Each integral is a generator that yields the panels (lo, hi) it needs and
receives their (GL15, GL7) values, one row per component of the integrand.
`_lockstep` runs many in rounds of one integrand call per block of panels; an
integral's panels and sums do not depend on what runs beside it, and
`adaptive_quad` runs one.  An integral refines one
component and keeps every component of its panels, in the order they were
made; its final panels can start the refinement of another component, so
that a packet row evaluates each panel once for P_T and its time moment.

`integral_to_zero` extends a finite-interval result down to p = 0 by halving
the lower cutoff until the added mass converges, one serial `adaptive_quad`
per halving; a tail that has not converged after `_MAX_HALVINGS` halvings is
taken as divergent and raises ThresholdDivergenceError.  The packet
integrals do not use it: their tail below the lowest panel is closed-form
(`wavepacket._tails`), and `integral_to_zero` is its independent reference.
"""
from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .errors import ConvergenceError, ThresholdDivergenceError

_NODES15, _WEIGHTS15 = np.polynomial.legendre.leggauss(15)
_NODES7, _WEIGHTS7 = np.polynomial.legendre.leggauss(7)
# one batched evaluation per panel serves both rules; the order-7 rule keeps
# chance agreement on under-resolved integrands from fooling the estimate
_NODES_ALL = np.concatenate([_NODES15, _NODES7])
# a tail still growing after this many halvings of the cutoff (eps 2^-60) diverges
_MAX_HALVINGS = 60
_MAX_PANELS = 4000  # panel budget of one integral
# panels (4,092 nodes) per integrand call, however many integrals are open
_BLOCK_PANELS = 4096 // len(_NODES_ALL)


@dataclass(frozen=True)
class QuadResult:
    value: float
    error: float
    n_panels: int
    # every component on the final panels, in seed layout, in the order they were made
    panels: np.ndarray = field(compare=False, repr=False)


def _lockstep(f, integrals) -> list:
    """Each integral's result, or the ConvergenceError or ValueError it raised.
    A round calls f(x, owner) per block of whole requests, at most `_BLOCK_PANELS`
    panels unless one request is larger, owner = each node's integral; f returns
    a row of values per component, or one row.  The block's (GL15, GL7) sums are
    reduced with one `einsum` row product each over its (component, panel) rows,
    whose row sums do not depend on a row's place in the block; a request gets
    them as one (rule, component, panel) array."""
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
        replies = reply = g = None  # free the last round's sums before this round's calls
        if not edges:
            return results
        sizes = [len(lo) for lo, _ in edges]
        ends = list(accumulate(sizes))
        lo, hi = map(np.concatenate, zip(*edges))
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        own = np.repeat(owners, sizes)  # each panel's integral
        start = 0
        for j, end in enumerate(ends):
            if j + 1 < len(ends) and ends[j + 1] - start <= _BLOCK_PANELS:
                continue  # the next request still fits this block
            x = mid[start:end, None] + half[start:end, None] * _NODES_ALL
            y = np.asarray(f(x.ravel(), np.repeat(own[start:end], len(_NODES_ALL))),
                           dtype=float).reshape(-1, len(_NODES_ALL))  # (component, panel) rows
            n = end - start
            if start == 0:  # (rule, component, panel)
                g = np.empty((2, len(y) // n, len(lo)))
            g[0, :, start:end] = np.einsum("ij,j->i", y[:, :15], _WEIGHTS15).reshape(-1, n)
            g[1, :, start:end] = np.einsum("ij,j->i", y[:, 15:], _WEIGHTS7).reshape(-1, n)
            start = end
        g *= half
        replies = {i: g[:, :, e - n : e] for i, n, e in zip(owners, sizes, ends)}


def _first_error(results) -> list:
    """`results`, after raising the first exception among them."""
    for r in results:
        if isinstance(r, Exception):
            raise r
    return results


def _seed(lo, hi):
    """Panels [lo_i, hi_i] in seed layout, from one request: per component, rows
    lo, hi and the (GL15, GL7) of the whole panel and its halves, (lo, hi, c15,
    l15, r15, c7, l7, r7)."""
    mids = 0.5 * (lo + hi)
    g = yield np.concatenate([lo, lo, mids]), np.concatenate([hi, mids, hi])
    seeds = np.empty((g.shape[1], 8, len(lo)))  # (component, row, panel)
    seeds[:, 0], seeds[:, 1] = lo, hi
    seeds[:, 2:5], seeds[:, 5:] = g.reshape(2, -1, 3, len(lo))
    return seeds


def _panel(c15, l15, r15, c7, l7, r7):
    """A panel's value, the sum of its halves' GL15 values, and its error estimate."""
    value = l15 + r15
    return value, max(abs(value - c15), abs(c15 - c7), abs(value - l7 - r7))


def _refine(seeds, rel_tol, abs_tol, on=0):
    """Bisect the worst of the seeded panels until the error estimate of
    component `on` meets the tolerance.  `seeds` and the result's `panels`
    hold every component of the starting and the final panels in seed layout,
    (component, row, panel), the final ones in the order they were made."""
    ncomp = len(seeds)
    # the live panels in the order they were made, every component of each in
    # seed layout in an array of its own (one buffer for all, resized at every
    # bisection, fragments the C heap), and component `on`'s values and errors
    store = [array("d", panel.tobytes()) for panel in seeds.transpose(2, 0, 1)]
    vals, errs = [], []
    total = total_err = 0.0
    for rows in seeds[on, 2:].T.tolist():
        val, err = _panel(*rows)
        total += val
        total_err += err
        vals.append(val)
        errs.append(err)
    del seeds  # the store holds its values
    while True:
        if not (math.isfinite(total) and math.isfinite(total_err)):
            raise ConvergenceError(f"quadrature estimate {total} with error bound {total_err} "
                                   "is not finite (integrand returned NaN or inf)",
                                   estimate=total, error=total_err)
        if total_err <= max(rel_tol * abs(total), abs_tol):
            break
        if len(errs) >= _MAX_PANELS:
            raise ConvergenceError(f"quadrature did not converge within {_MAX_PANELS} panels "
                                   f"(estimate {total:.6e}, error bound {total_err:.2e})",
                                   estimate=total, error=total_err)
        # the worst panel, the first made among equals
        i = errs.index(max(errs))
        parent = store.pop(i)
        plo, phi = parent[0], parent[1]
        pmid = 0.5 * (plo + phi)
        qlo = [plo, 0.5 * (plo + pmid), pmid, 0.5 * (pmid + phi)]
        qhi = [0.5 * (plo + pmid), pmid, 0.5 * (pmid + phi), phi]
        q = (yield np.array(qlo), np.array(qhi)).tolist()  # [rule][component][quarter]
        for j in (0, 1):  # the left child, then the right
            child = []
            for c, (q15, q7) in enumerate(zip(*q)):
                k = 8 * c + j
                child += (qlo[2 * j], qhi[2 * j + 1], parent[k + 3], q15[2 * j], q15[2 * j + 1],
                          parent[k + 6], q7[2 * j], q7[2 * j + 1])
            store.append(array("d", child))
            val, err = _panel(*child[8 * on + 2 : 8 * on + 8])
            total += val
            total_err += err
            vals.append(val)
            errs.append(err)
        del q, q15, q7, child  # else held while suspended
        total -= vals.pop(i)
        total_err -= errs.pop(i)

    panels = np.frombuffer(b"".join(store)).reshape(-1, ncomp, 8).transpose(1, 2, 0)
    return QuadResult(value=total, error=total_err, n_panels=len(errs), panels=panels)


def _adaptive(a, b, *, rel_tol=1e-8, abs_tol=0.0, breakpoints=()):
    """`adaptive_quad` as a lockstep integral of component 0."""
    if not (b > a):
        raise ValueError(f"need b > a, got [{a}, {b}]")
    edges = np.array([a, *sorted(p for p in set(breakpoints) if a < p < b), b], dtype=float)
    # the seeds (three panels each) in requests of at most one block
    lo, hi, n, parts = edges[:-1], edges[1:], _BLOCK_PANELS // 3, []
    for i in range(0, len(lo), n):
        parts.append((yield from _seed(lo[i : i + n], hi[i : i + n])))
    refine = _refine(np.concatenate(parts, axis=2), rel_tol, abs_tol)
    del parts  # the refinement holds what it needs
    return (yield from refine)


def adaptive_quad(f, a: float, b: float, *, rel_tol: float = 1e-8, abs_tol: float = 0.0,
                  breakpoints=()) -> QuadResult:
    """Integrate a vectorized integrand over [a, b].

    `breakpoints` seed panel edges at known kinks or sharp features (barrier
    momentum, resonances).  Raises ConvergenceError carrying the achieved
    estimate if `_MAX_PANELS` panels do not meet the tolerance, or as soon as
    the estimate or its error bound is not finite.  Each bisection scans the
    live panels for the worst, so n panels cost O(n^2) up to `_MAX_PANELS`.
    """
    gen = _adaptive(a, b, rel_tol=rel_tol, abs_tol=abs_tol, breakpoints=breakpoints)
    return _first_error(_lockstep(lambda x, _: f(x), [gen]))[0]


def integral_to_zero(f, eps: float, *, rel_tol: float = 1e-8, reference: float) -> float:
    """Sum of integrals of f over (0, eps], halving the cutoff to convergence:
    one `adaptive_quad` over [lo/2, lo] per halving (rel_tol 1e-6, abs_tol
    1e-14 of the running scale).

    `reference` sets the scale against which the discarded tail must be
    negligible (typically the integral over [eps, p_max] computed already).
    The sum ends once an increment is below half of rel_tol of the scale and
    the one before it below rel_tol; increments still above that after
    `_MAX_HALVINGS` halvings (eps 2^-60) mean the cutoff limit does not exist
    and raise ThresholdDivergenceError.
    """
    total = prev = 0.0
    lo = eps
    for _ in range(_MAX_HALVINGS):
        scale = max(abs(reference + total), abs(reference), 1e-300)
        value = adaptive_quad(f, lo / 2.0, lo, rel_tol=1e-6, abs_tol=1e-14 * scale).value
        total += value
        if abs(value) <= 0.5 * rel_tol * scale and prev <= rel_tol * scale:
            return total
        prev = abs(value)
        lo /= 2.0
    raise ThresholdDivergenceError(
        f"integral has not converged after {_MAX_HALVINGS} halvings of the lower "
        f"cutoff (last increment {prev:.3e}, estimate {reference + total:.6e}): "
        "it grows without bound as the cutoff shrinks", estimate=reference + total, error=prev)
