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
"""
from __future__ import annotations

import numpy as np

# series switch for |mu|*d^2; below it the direct forms lose digits to
# cancellation, above it the 4-term series is exact to double precision
W_CUT = 1e-3


def trig_triplet(mu, width):
    """C, S1, S2 for an array of real or complex mu values at fixed width d."""
    mu = np.asarray(mu, dtype=complex if np.iscomplexobj(mu) else float)
    d = float(width)
    w = mu * d * d
    C = np.empty_like(mu)
    S1 = np.empty_like(mu)
    S2 = np.empty_like(mu)

    small = np.abs(w) < W_CUT
    if np.any(small):
        ws = w[small]
        C[small] = 1.0 + ws * (-0.5 + ws * (1.0 / 24 + ws * (-1.0 / 720)))
        S1[small] = d * (1.0 + ws * (-1.0 / 6 + ws * (1.0 / 120 + ws * (-1.0 / 5040))))
        S2[small] = d**3 * (-1.0 / 3 + ws * (1.0 / 30 + ws * (-1.0 / 840 + ws * (1.0 / 45360))))

    if np.iscomplexobj(mu):
        direct = ((~small, np.sqrt, np.cos, np.sin),)
    else:
        direct = (
            (~small & (mu > 0), np.sqrt, np.cos, np.sin),
            (~small & (mu < 0), lambda m: np.sqrt(-m), np.cosh, np.sinh),
        )
    for sel, root, cos, sin in direct:
        if np.any(sel):
            q = root(mu[sel])
            C[sel] = cos(q * d)
            S1[sel] = sin(q * d) / q
            S2[sel] = (d * C[sel] - S1[sel]) / mu[sel]
    return C, S1, S2


def _real_denominator(g, d, k):
    """S1, S2 and D's real-k parts A = Re D = C, B = Im D and den = |D|^2."""
    A, S1, S2 = trig_triplet(k * k - g, d)
    B = -S1 * (2.0 * k * k - g) / (2.0 * k)
    return S1, S2, A, B, A * A + B * B


def inverse_denominator(g, width, k):
    """1/D = T e^{ikd} on a grid of real nonzero wavenumbers, without the
    phase derivatives that `scatter_grid` also computes."""
    k = np.asarray(k, dtype=float)
    _, _, A, B, den = _real_denominator(g, float(width), k)
    return (A - 1j * B) / den


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
    d = float(width)
    S1, S2, A, B, den = _real_denominator(g, d, k)

    ph = -k * d
    e = np.cos(ph) + 1j * np.sin(ph)
    t = e * (A - 1j * B) / den
    rr = g * S1 / (2.0 * k)
    r = -1j * rr * t

    Ap = -d * k * S1
    Bp = -0.5 * (S2 * (2.0 * k * k - g) + S1 * (2.0 + g / (k * k)))
    dphi = -d - (Bp * A - Ap * B) / den

    # R/T = i*rho with rho = -g S1/(2k); arg(1 +- i*rho)' = +-rho'/(1+rho^2)
    rho = -rr
    drho = -(g / 2.0) * (S2 - S1 / (k * k))
    corr = drho / (1.0 + rho * rho)
    dd0 = 0.5 * (dphi + corr)
    dd1 = 0.5 * (dphi - corr)
    return t, r, dphi, dd0, dd1


def complex_amplitudes(g, width, k):
    """T and R at complex nonzero wavenumbers, by analytic continuation:
    T = e^{-ikd}/D with complex D.  `scatter_grid` is the real-axis entry
    point; it also returns phase derivatives, which are defined only there.
    """
    k = np.asarray(k, dtype=complex)
    d = float(width)
    C, S1, _ = trig_triplet(k * k - g, d)
    D = C - 0.5j * S1 * (2.0 * k * k - g) / k
    t = np.exp(-1j * k * d) / D
    r = -0.5j * (g / k) * S1 * t
    return t, r
