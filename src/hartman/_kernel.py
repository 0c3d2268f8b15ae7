"""Scattering kernel: the closed forms for T, R and their k-derivatives.

Everything is expressed through three functions of the *signed* squared
inside-wavenumber mu = k^2 - g (g = 2 m v0 / hbar^2, q^2 = mu), all even in
q so the branch of the square root never matters:

    C(mu)  = cos(q d)                       -> cosh for mu < 0
    S1(mu) = sin(q d)/q                     -> sinh(|q| d)/|q| for mu < 0
    S2(mu) = (d*C - S1)/mu                  (removable at mu = 0)

With those, D = C - (i/2) S1 (2k^2 - g)/k, T = e^{-ikd}/D and
R = -i (g S1 / 2k) T at any k != 0.  For real k (A = Re D, B = Im D):

    dPhi_T/dk   = -d - Im(D'/D)
    ddelta_j/dk = (dPhi_T/dk -+ correction)/2,  correction from R/T = i*rho

Entry points, each one pass over an array of k: `denominator` (A, B, |D|^2
from C and S1 alone), `transmission_grid` (adds S2 and dPhi_T/dk),
`phase_parts` (adds rho = -g S1/2k and the eigenphase slopes, all real: the
phases, eigenphase floors and delay bounds are formed from these),
`scatter_grid` (T and R from `phase_parts`) and `complex_amplitudes` (T and
R at complex k); `trig_triplet` gives C, S1, S2 of any mu.  C and S1 come
from their direct forms at every mu != 0; only S2 cancels near mu = 0 and
takes a series there.  A real grid whose mu all have one sign and none is 0
(all tunnelling or all propagating, as is every nonzero one-point call) takes
plain ufuncs; a grid that mixes signs, holds a 0 or is complex takes masked
ufuncs, branch by branch.  Each point gets the same bits on either path.
"""
from __future__ import annotations

import numpy as np

# series switch of S2 for |mu|*d^2; below it (d*C - S1)/mu loses digits to
# cancellation, above it the 4-term series is exact to double precision
W_CUT = 1e-3
# the direct forms of C, S1: for mu > 0 or complex; for mu < 0, in |mu|^(1/2)
_CIRCULAR = (np.cos, np.sin)
_HYPERBOLIC = (np.cosh, np.sinh)


def _branch(mask):
    """Index of a branch: `...` for the whole grid (no gather; 0-d safe), None if empty."""
    n = np.count_nonzero(mask)
    return ... if n == mask.size else mask if n else None


def _direct(qd, q, cos, sin, C=None, S1=None, where=True):
    """C = cos(qd) and S1 = sin(qd)/q of one direct branch (`_CIRCULAR` or
    `_HYPERBOLIC`), as new arrays or into C and S1 where `where` holds."""
    C = cos(qd, out=C, where=where)
    return C, np.divide(sin(qd, out=S1, where=where), q, out=S1, where=where)


def _trig_pair(mu, d):
    """mu as a real or complex array, with C = cos(qd) and S1 = sin(qd)/q from
    their direct forms, and C = 1, S1 = d at mu = 0.  A real grid whose mu all
    have one sign and none is 0 takes plain ufuncs; any other grid is written
    in place, each branch as a masked ufunc (so is a 0-d mu, which `out=`
    keeps 0-d)."""
    real = not np.iscomplexobj(mu)
    mu = np.asarray(mu, dtype=float if real else complex)
    q = np.sqrt(np.abs(mu) if real else mu)
    qd = q * d
    if not real:
        forms = ((mu != 0.0, _CIRCULAR),)
    else:
        # a NaN takes the cosh branch and stays NaN
        pos = mu > 0.0
        side = _branch(pos)
        if mu.ndim and (side is ... or side is None and np.count_nonzero(mu) == mu.size):
            return mu, *_direct(qd, q, *(_CIRCULAR if side is ... else _HYPERBOLIC))
        forms = ((pos, _CIRCULAR), (~pos & (mu != 0.0), _HYPERBOLIC))
    C = np.ones_like(mu)
    S1 = np.full_like(mu, d)
    for mask, form in forms:
        if (sel := _branch(mask)) is not None:
            _direct(qd, q, *form, C, S1, True if sel is ... else sel)
    return mu, C, S1


def trig_triplet(mu, width):
    """C, S1, S2 for an array of real or complex mu values at fixed width d."""
    d = float(width)
    mu, C, S1 = _trig_pair(mu, d)
    w = mu * d * d
    small = np.abs(w) < W_CUT
    series = _branch(small)
    if series is None and mu.ndim:
        return C, S1, (d * C - S1) / mu
    S2 = np.empty_like(mu)
    if series is not ...:
        np.divide(d * C - S1, mu, out=S2, where=True if series is None else ~small)
    if series is not None:
        ws = w[series]
        S2[series] = d**3 * (-1.0 / 3 + ws * (1.0 / 30 + ws * (-1.0 / 840 + ws * (1.0 / 45360))))
    return C, S1, S2


def low_k_limits(g, width):
    """The k -> 0 limits on an array of strengths g, from C, S1, S2 at mu = -g:
    alpha and beta of k^2 |D|^2 = alpha + beta k^2 + O(k^4), K = sqrt(alpha/|beta|),
    below which |T|^2 grows like k^2/alpha, and dPhi_T/dk, ddelta_0/dk and
    ddelta_1/dk at k = 0 (0 for the free case g = 0; +-inf at a threshold,
    where alpha = 0; beta = -inf from kappa0 d ~ 353 and NaN slopes from 710,
    where an opaque barrier's C and S1 overflow).

        alpha = (g S1/2)^2,  beta = 1 + g^2 S1 S2/4,
        ddelta_0/dk = -d/2 + (1 + C)/(g S1),  ddelta_1/dk = -d/2 + (C - 1)/(g S1),

    and dPhi_T/dk is their sum, -d + 2C/(g S1).  Of each pair of forms tied by
    C^2 - g S1^2 = 1, (1 + C)/(g S1) = S1/(C - 1) and (C - 1)/(g S1) = S1/(1 + C),
    the one whose 1 +- C does not cancel is taken."""
    g = np.asarray(g, dtype=float)
    d = float(width)
    C, S1, S2 = trig_triplet(-g, d)
    gs = g * S1
    alpha = 0.25 * gs * gs
    beta = 1.0 + 0.25 * gs * g * S2
    with np.errstate(divide="ignore", invalid="ignore"):
        K = np.sqrt(alpha / np.abs(beta))
        pos = C >= 0
        dd0 = np.where(g == 0, 0.0, np.where(pos, (1.0 + C) / gs, S1 / (C - 1.0)) - 0.5 * d)
        dd1 = np.where(g == 0, 0.0, np.where(pos, S1 / (1.0 + C), (C - 1.0) / gs) - 0.5 * d)
    return alpha, beta, K, dd0 + dd1, dd0, dd1


def _denominator(k, h, A, S1):
    """B = Im D and |D|^2 at real k, from h = 2k^2 - g, A = Re D = C and S1."""
    B = -S1 * h / (2.0 * k)
    return B, A * A + B * B


def denominator(g, width, k):
    """A = Re D, B = Im D and |D|^2 (so |T|^2 = 1/|D|^2) on a grid of real
    nonzero wavenumbers, without the S2 and dPhi_T/dk of `transmission_grid`."""
    k = np.asarray(k, dtype=float)
    kk = k * k
    _, A, S1 = _trig_pair(kk - g, float(width))
    return (A, *_denominator(k, 2.0 * kk - g, A, S1))


def transmission_grid(g, width, k):
    """|D|^2 (so |T|^2 = 1/|D|^2), dPhi_T/dk and the S1, S2, A = Re D, B = Im D
    they come from, all real, on a grid of real nonzero wavenumbers;
    `scatter_grid` goes on from these to T, R and the eigenphase slopes."""
    k = np.asarray(k, dtype=float)
    d = float(width)
    kk = k * k
    h = 2.0 * kk - g
    A, S1, S2 = trig_triplet(kk - g, d)
    B, den = _denominator(k, h, A, S1)
    Ap = -d * k * S1
    Bp = -0.5 * (S2 * h + S1 * (2.0 + g / kk))
    dphi = -d - (Bp * A - Ap * B) / den
    return den, dphi, S1, S2, A, B


def phase_parts(g, width, k):
    """The real parts that every phase, eigenphase floor and delay bound is
    formed from, on a grid of real nonzero wavenumbers: A = Re D, B = Im D,
    |D|^2, S1, rho = -g S1/(2k) (R/T = i rho), dPhi_T/dk and the two
    eigenphase slopes d(delta_j)/dk = (dPhi_T/dk +- rho'/(1 + rho^2))/2."""
    k = np.asarray(k, dtype=float)
    den, dphi, S1, S2, A, B = transmission_grid(g, width, k)
    rho = -g * S1 / (2.0 * k)
    drho = -(g / 2.0) * (S2 - S1 / (k * k))
    corr = drho / (1.0 + rho * rho)
    return A, B, den, S1, rho, dphi, 0.5 * (dphi + corr), 0.5 * (dphi - corr)


def scatter_grid(g, width, k):
    """Amplitudes and phase derivatives on a grid of real nonzero wavenumbers.

    Parameters
    ----------
    g : float or ndarray
        Potential strength 2 m v0 / hbar^2, broadcast against `k`.
    width : float
        Full width d of the potential region.
    k : ndarray
        Real wavenumbers, every entry nonzero.

    Returns
    -------
    t, r : complex ndarrays
        Transmission and reflection amplitudes.
    dphi, dd0, dd1 : float ndarrays
        d(arg T)/dk and the two eigenphase derivatives d(delta_j)/dk.
    """
    k = np.asarray(k, dtype=float)
    A, B, den, _, rho, dphi, dd0, dd1 = phase_parts(g, width, k)
    ph = -k * float(width)
    t = (np.cos(ph) + 1j * np.sin(ph)) * (A - 1j * B) / den  # e^{-ikd} (A - iB)/|D|^2
    return t, 1j * rho * t, dphi, dd0, dd1


def complex_amplitudes(g, width, k):
    """T and R at complex nonzero wavenumbers, by analytic continuation:
    T = e^{-ikd}/D with complex D.  `scatter_grid` is the real-axis entry
    point; it also returns phase derivatives, which are defined only there.
    """
    k = np.asarray(k, dtype=complex)
    d = float(width)
    _, C, S1 = _trig_pair(k * k - g, d)
    D = C - 0.5j * S1 * (2.0 * k * k - g) / k
    t = np.exp(-1j * k * d) / D
    r = -0.5j * (g / k) * S1 * t
    return t, r
