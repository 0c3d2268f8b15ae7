"""Adaptive panel quadrature for the momentum integrals, run in lockstep.

Each panel is integrated with the 15-point Gauss-Kronrod rule K15 and the
7-point Gauss rule G7 on the odd ones of its nodes (Kronrod 1965): its value
is K15 and its error QUADPACK's estimate (Piessens et al. 1983) of
|K15 - G7|.  The worst panel (the first made among equals) is bisected until
the summed error estimate meets the tolerance, so a panel costs 15 integrand
values and a bisection 30.

Each integral is a generator that yields the panels (lo, hi) it needs and
receives their values and error estimates, one row per component of the
integrand.  `_lockstep` runs many in rounds of one integrand call per block
of panels; an integral's panels and sums do not depend on what runs beside
it, and `adaptive_quad` runs one.  An integral refines one component and
keeps every component of its panels, in the order they were made; its final
panels can start the refinement of another component, so that a packet row
evaluates each panel once for P_T and its time moment.

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

# the G7K15 pair on [-1, 1] (QUADPACK's qk15): the Kronrod nodes from 1 down to
# 0, the odd ones G7's, with their K15 and G7 weights, mirrored at 0
_X = (0.9914553711208126, 0.9491079123427585, 0.8648644233597691, 0.7415311855993945,
      0.5860872354676911, 0.4058451513773972, 0.20778495500789848, 0.0)
_WK = (0.022935322010529224, 0.06309209262997856, 0.10479001032225019, 0.14065325971552592,
       0.1690047266392679, 0.19035057806478542, 0.20443294007529889, 0.20948214108472782)
_WG = (0.1294849661688697, 0.27970539148927664, 0.3818300505051189, 0.4179591836734694)
_NODES = np.array([*_X, *(-x for x in _X[-2::-1])])
_WEIGHTS_K = np.array([*_WK, *_WK[-2::-1]])
_WEIGHTS_KG = _WEIGHTS_K.copy()  # K15 - G7 as one rule
_WEIGHTS_KG[1::2] -= [*_WG, *_WG[-2::-1]]
# a tail still growing after this many halvings of the cutoff (eps 2^-60) diverges
_MAX_HALVINGS = 60
_MAX_PANELS = 4000  # panel budget of one integral
# panels (4,095 nodes) per integrand call, however many integrals are open
_BLOCK_PANELS = 4096 // len(_NODES)


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
    a row of values per component, or one row.  Each block's K15, K15 - G7,
    resabs = K15 of |f| and resasc = K15 of |f - K15/2| are reduced with one
    `einsum` row product each over its (component, panel) rows, whose row sums
    do not depend on a row's place in the block; a panel's error is QUADPACK's
    resasc min(1, (200 |K15 - G7|/resasc)^1.5), at least 50 eps resabs.  A
    request gets (value, error) as one (2, component, panel) array."""
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
            x = mid[start:end, None] + half[start:end, None] * _NODES
            y = np.asarray(f(x.ravel(), np.repeat(own[start:end], len(_NODES))),
                           dtype=float).reshape(-1, len(_NODES))  # (component, panel) rows
            n = end - start
            if start == 0:  # (K15, K15 - G7, resabs, resasc; component, panel)
                g = np.empty((4, len(y) // n, len(lo)))
            k15 = np.einsum("ij,j->i", y, _WEIGHTS_K)
            g[0, :, start:end] = k15.reshape(-1, n)
            g[1, :, start:end] = np.einsum("ij,j->i", y, _WEIGHTS_KG).reshape(-1, n)
            g[2, :, start:end] = np.einsum("ij,j->i", np.abs(y), _WEIGHTS_K).reshape(-1, n)
            y = np.abs(y - 0.5 * k15[:, None])
            g[3, :, start:end] = np.einsum("ij,j->i", y, _WEIGHTS_K).reshape(-1, n)
            start = end
        g *= half
        dif, resabs, resasc = np.abs(g[1]), g[2], g[3]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            scaled = resasc * np.minimum(1.0, (200.0 * dif / resasc) ** 1.5)
        g[1] = np.maximum(np.where((resasc != 0) & (dif != 0), scaled, dif),
                          50.0 * np.finfo(float).eps * resabs)
        replies = {i: g[:2, :, e - n : e] for i, n, e in zip(owners, sizes, ends)}


def _first_error(results) -> list:
    """`results`, after raising the first exception among them."""
    for r in results:
        if isinstance(r, Exception):
            raise r
    return results


def _seed(lo, hi):
    """Panels [lo_i, hi_i] in seed layout, from one request: per component, rows
    lo, hi, the panel's K15 value and its error estimate."""
    g = yield lo, hi
    seeds = np.empty((g.shape[1], 4, len(lo)))  # (component, row, panel)
    seeds[:, 0], seeds[:, 1] = lo, hi
    seeds[:, 2:] = g.transpose(1, 0, 2)
    return seeds


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
    vals, errs = seeds[on, 2].tolist(), seeds[on, 3].tolist()
    total, total_err = sum(vals), sum(errs)
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
        plo, phi = store.pop(i)[:2]
        pmid = 0.5 * (plo + phi)
        val, err = (yield np.array([plo, pmid]), np.array([pmid, phi])).tolist()
        for j, edges in enumerate(((plo, pmid), (pmid, phi))):  # the left child, then the right
            store.append(array("d", [x for v, e in zip(val, err) for x in (*edges, v[j], e[j])]))
            vals.append(val[on][j])
            errs.append(err[on][j])
            total += val[on][j]
            total_err += err[on][j]
        total -= vals.pop(i)
        total_err -= errs.pop(i)

    panels = np.frombuffer(b"".join(store)).reshape(-1, ncomp, 4).transpose(1, 2, 0)
    return QuadResult(value=total, error=total_err, n_panels=len(errs), panels=panels)


def _adaptive(a, b, *, rel_tol=1e-8, abs_tol=0.0, breakpoints=()):
    """`adaptive_quad` as a lockstep integral of component 0."""
    if not (b > a):
        raise ValueError(f"need b > a, got [{a}, {b}]")
    edges = np.array([a, *sorted(p for p in set(breakpoints) if a < p < b), b], dtype=float)
    # the seeds in requests of at most one block
    lo, hi, n, parts = edges[:-1], edges[1:], _BLOCK_PANELS, []
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
