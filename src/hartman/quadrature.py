"""Adaptive panel quadrature for the momentum integrals, run in lockstep.

Each panel is integrated with the 15-point Gauss-Kronrod rule K15 and the
7-point Gauss rule G7 on the odd ones of its nodes (Kronrod 1965): its value
is K15 and its error QUADPACK's estimate (Piessens et al. 1983) of
|K15 - G7|.  The worst panel (the first made among equals) is bisected until
the summed error estimate meets the tolerance, so a panel costs 15 integrand
values and a bisection 30.

`_lockstep` refines many integrals, its rows, at once.  Every panel made
goes into one pool.  Each open row has slots holding its panels' places in
the pool and their errors, in the order the panels were made: its seeds,
which end at one slot common to all rows, then the halves its bisections
made, two a round, in the same two slots for every row.  A round is a few
array operations over all open rows: the first largest error in each row's
slots picks its worst panel, one integrand call per block of nodes evaluates
the halves of all of them, and each row's sums are updated elementwise in
the order a lone refinement adds its floats.  So a row's panels and sums do
not depend on the rows beside it, and `adaptive_quad` is one row.  A row
keeps every component of the integrand on its panels; a packet row refines
P_T (component 0) and then, from the same panels and in the round P_T
converges, its time moment (component 1), so each panel is evaluated once
for both.

`integral_to_zero` extends a finite-interval result down to p = 0 by halving
the lower cutoff until the added mass converges, one serial `adaptive_quad`
per halving; a tail that has not converged after `_MAX_HALVINGS` halvings is
taken as divergent and raises ThresholdDivergenceError.  The packet
integrals do not use it: their tail below the lowest panel is closed-form
(`wavepacket._tails`), and `integral_to_zero` is its independent reference.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

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
_ERROR_FLOOR = 50.0 * np.finfo(float).eps  # QUADPACK's least error, per unit of resabs


@dataclass(frozen=True)
class QuadResult:
    value: float
    error: float
    n_panels: int


def _evaluate(f, lo, hi, owner):
    """Value and error of the panels [lo_i, hi_i] as one (2, component, panel)
    array, from one call f(x, owner) per block of at most `_BLOCK_PANELS`
    panels, owner = each node's row; f returns a row of values per component,
    or one row.  Each block's K15, K15 - G7, resabs = K15 of |f| and resasc =
    K15 of |f - K15/2| are reduced with one `einsum` row product each over its
    (component, panel) rows, whose row sums do not depend on a row's place in
    the block; a panel's error is QUADPACK's resasc min(1, (200 |K15 -
    G7|/resasc)^1.5), at least 50 eps resabs."""
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    blocks = []
    for start in range(0, len(lo), _BLOCK_PANELS):
        x = half[start:start + _BLOCK_PANELS, None] * _NODES
        x += mid[start:start + _BLOCK_PANELS, None]
        y = np.asarray(f(x.ravel(), owner[start:start + _BLOCK_PANELS].repeat(len(_NODES))),
                       dtype=float).reshape(-1, len(_NODES))  # (component, panel) rows
        b = np.empty((4, len(y)))  # K15, K15 - G7, resabs, resasc
        np.einsum("ij,j->i", y, _WEIGHTS_K, out=b[0])
        np.einsum("ij,j->i", y, _WEIGHTS_KG, out=b[1])
        a = np.abs(y)
        np.einsum("ij,j->i", a, _WEIGHTS_K, out=b[2])
        np.abs(np.subtract(y, 0.5 * b[0, :, None], out=a), out=a)
        np.einsum("ij,j->i", a, _WEIGHTS_K, out=b[3])
        blocks.append(b.reshape(4, -1, len(x)))
    g = blocks[0] if len(blocks) == 1 else np.concatenate(blocks, axis=2)
    g *= half
    dif, resabs, resasc = np.abs(g[1]), g[2], g[3]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        scaled = resasc * np.minimum(1.0, (200.0 * dif / resasc) ** 1.5)
    g[1] = np.maximum(np.where((resasc != 0) & (dif != 0), scaled, dif), _ERROR_FLOOR * resabs)
    return g[:2]


def _first_error(results) -> list:
    """`results`, after raising the first exception among them."""
    for r in results:
        if isinstance(r, Exception):
            raise r
    return results


def _live_sums(terms, live):
    """Each row's sums of (row, slot, value/error) `terms` over its live slots
    in slot order: one sequential add along the slots, the dead ones as 0.0,
    which is the sum of the live terms one after the other.  A sum that
    overflows or meets inf - inf is inf or NaN without a warning, as a Python
    float's would be."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.add.accumulate(np.where(live[..., None], terms, 0.0), axis=1)[:, -1]


def _lockstep(f, intervals, *, rel_tol, abs_tol=0.0, gate=None) -> list[list]:
    """Each row's outcomes, one per component it refined: a QuadResult, or
    the ConvergenceError or ValueError that ended it.

    Row i integrates f (see `_evaluate`) over intervals[i] = (a, b,
    breakpoints), seeded at the breakpoints inside (a, b), and refines
    component 0 until its error estimate meets max(rel_tol |value|, abs_tol).
    With a `gate`, gate(i, outcome) follows component 0 and may raise to end
    the row; a row whose component 0 converged and that the gate passes
    refines component 1 from the panels component 0 ended on, in the same
    round, and an ended row's second outcome is what the gate raised or the
    exception that ended component 0.

    The pool holds the seeds, one row after the other, then each round's
    halves, the left ones of all open rows before the right ones.  A row's
    seeds fill its slots up to s - 1, s the most seeds of any row, and round
    j's halves slots s + 2j and s + 2j + 1; a slot holds a pool place and the
    refined component's error, -inf where the panel is not live.  Rows are
    dropped from the slot arrays as they end."""
    out = [[] for _ in intervals]

    def close(i, outcome) -> bool:
        """Record an outcome of row i; True where the row goes on to component 1."""
        out[i].append(outcome)
        if gate is None or len(out[i]) == 2:
            return False
        try:
            gate(i, outcome)
            _first_error([outcome])
        except (ConvergenceError, ValueError) as exc:
            out[i].append(exc)
            return False
        return True

    edges, ids = [], []
    for i, (a, b, breakpoints) in enumerate(intervals):
        if b > a:
            edges.append(np.array([a, *sorted(p for p in set(breakpoints) if a < p < b), b],
                                  dtype=float))
            ids.append(i)
        else:
            close(i, ValueError(f"need b > a, got [{a}, {b}]"))
    if not ids:
        return out
    ids = np.array(ids)
    n = [len(e) - 1 for e in edges]  # seeds per row
    lo = np.concatenate([e[:-1] for e in edges])
    hi = np.concatenate([e[1:] for e in edges])
    g = _evaluate(f, lo, hi, np.repeat(ids, n))
    # the pool: per panel lo, hi, then value and error of each component
    made, ncomp = len(lo), g.shape[1]
    pool = np.empty((made + 2 * len(ids), 2 + 2 * ncomp))
    pool[:made, 0], pool[:made, 1] = lo, hi
    pool[:made, 2:] = g.transpose(2, 1, 0).reshape(made, -1)
    # per open row: the pool columns of the value and error it refines, their
    # sums, and its slots (place and pick).  A row with a non-finite error
    # ends before its live panels are read.  Every open row bisects once a
    # round: it has k + rounds live panels.  Places and slot numbers are kept
    # and computed as floats (exact below 2^53) and cast to index: NumPy's
    # integer arithmetic, comparison, argmax, argsort and cumsum loops are
    # code the library's other paths do not run, and each would add its
    # pages to a run's resident memory.
    s = most = max(n)
    k, slots = np.array(n, dtype=float), np.arange(s + 8, dtype=float)
    seeds = slots[:s] >= s - k[:, None]  # (row, slot)
    place = np.zeros((len(ids), len(slots)))
    place[:, :s] = np.where(seeds, slots[:s] + (np.cumsum(k) - s)[:, None], 0.0)
    first = pool[place[:, :s].astype(int), 2:4]  # component 0's (row, slot, value/error)
    pick = np.full(place.shape, -np.inf)
    pick[:, :s] = np.where(seeds, first[..., 1], -np.inf)
    cols = np.repeat([[2, 3]], len(ids), axis=0)
    sums, rounds = _live_sums(first, seeds), 0
    del lo, hi, edges, g, n, seeds, first  # not held through the rounds

    def settle():
        """End the open rows whose component converged or failed, or move them
        on to component 1; a boolean mask of the ended ones, or None."""
        ended, rows = None, slice(None)  # all open rows, then those moved on
        while True:
            total, error = sums[rows].T
            # open: finite sums short of the tolerance, and panels to spare
            going = (error > np.maximum(rel_tol * np.abs(total), abs_tol)) & (error < np.inf)
            if most + rounds >= _MAX_PANELS:  # a row may be out of panels
                going &= k[rows] + rounds < _MAX_PANELS
            if going.all():
                return ended
            stop = np.flatnonzero(~going)
            rows = at[rows][stop]
            if ended is None:
                ended = np.zeros(len(ids), dtype=bool)
            ended[rows] = True
            go_on = []
            for r, i, t, e, seeded in zip(rows.tolist(), ids[rows].tolist(), total[stop].tolist(),
                                          error[stop].tolist(), k[rows].tolist()):
                if not (math.isfinite(t) and math.isfinite(e)):
                    outcome = ConvergenceError(
                        f"quadrature estimate {t} with error bound {e} is not finite "
                        "(integrand returned NaN or inf)", estimate=t, error=e)
                elif e <= max(rel_tol * abs(t), abs_tol):
                    outcome = QuadResult(value=t, error=e, n_panels=int(seeded) + rounds)
                else:
                    outcome = ConvergenceError(
                        f"quadrature did not converge within {_MAX_PANELS} panels "
                        f"(estimate {t:.6e}, error bound {e:.2e})", estimate=t, error=e)
                if close(i, outcome):
                    go_on.append(r)
            if not go_on:
                return ended
            rows = np.array(go_on)
            ended[rows] = False
            cols[rows] = 4, 5
            live = pick[rows] > -np.inf  # component 0 converged: its errors are finite
            terms = pool[place[rows].astype(int), 4:6]
            pick[rows] = np.where(live, terms[..., 1], -np.inf)
            sums[rows] = _live_sums(terms, live)

    at = np.arange(len(ids))
    while (ended := settle()) is None or not ended.all():
        if ended is not None or rounds == 0:
            if ended is not None:
                keep = ~ended
                ids, k, cols, sums, place, pick = (
                    x[keep] for x in (ids, k, cols, sums, place, pick))
                at = np.arange(len(ids))
            owner = np.concatenate([ids, ids])
            pairs = np.arange(2 * len(ids)).reshape(2, -1).T  # (row, left/right) in a round
        # bisect every open row's worst panel, the first made among equals
        worst = np.where(pick == pick.max(axis=1)[:, None], slots, np.inf).min(axis=1).astype(int)
        popped = pool[place[at, worst].astype(int)]  # (row, lo/hi/value/error per component)
        pick[at, worst] = -np.inf
        if made + 2 * len(ids) > len(pool):
            pool = np.concatenate([pool, np.empty((max(2 * len(ids), len(pool) // 2),
                                                   pool.shape[1]))])
        new = pool[made:made + 2 * len(ids)]  # the left halves, then the right ones
        new[:len(ids), 0], new[len(ids):, 1] = popped[:, 0], popped[:, 1]
        new[len(ids):, 0] = new[:len(ids), 1] = 0.5 * (popped[:, 0] + popped[:, 1])
        g = _evaluate(f, new[:, 0], new[:, 1], owner)
        new[:, 2:] = g.transpose(2, 1, 0).reshape(2 * len(ids), -1)
        if s + 2 > len(slots):
            place = np.concatenate([place, np.zeros_like(place)], axis=1)
            pick = np.concatenate([pick, np.full_like(pick, -np.inf)], axis=1)
            slots = np.arange(pick.shape[1], dtype=float)
        place[:, s:s + 2] = pairs + float(made)
        new = new[pairs[..., None], cols[:, None]]  # the refined (row, left/right, value/error)
        pick[:, s:s + 2] = new[..., 1]
        made, s, rounds = made + 2 * len(ids), s + 2, rounds + 1
        # + left, + right, - the bisected panel
        with np.errstate(over="ignore", invalid="ignore"):
            sums = sums + new[:, 0] + new[:, 1] - popped[at[:, None], cols]
    return out


def adaptive_quad(f, a: float, b: float, *, rel_tol: float = 1e-8, abs_tol: float = 0.0,
                  breakpoints=()) -> QuadResult:
    """Integrate a vectorized integrand over [a, b].

    `breakpoints` seed panel edges at known kinks or sharp features (barrier
    momentum, resonances).  Raises ConvergenceError carrying the achieved
    estimate if `_MAX_PANELS` panels do not meet the tolerance, or as soon as
    the estimate or its error bound is not finite.  Each bisection takes an
    argmax over every panel made so far, so n panels cost O(n^2) array work,
    in C, up to `_MAX_PANELS`.
    """
    (res,), = _lockstep(lambda x, _: f(x), [(a, b, breakpoints)], rel_tol=rel_tol,
                        abs_tol=abs_tol)
    return _first_error([res])[0]


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
