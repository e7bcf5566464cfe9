"""Test-side reference for the holonomy of a whole Landau level around any polygon.

On the whole level [L, L^T] = -1, so the ordered exponential of the step
generators phi I + zeta L + conj(zeta) L^T is exp(i (Phi + chi)) exp(i (Z L +
conj(Z) L^T)): Phi and Z integrate phi and zeta around the loop, and chi is
the integral of Im(zeta(t) conj(Z(t))), Z(t) the integral of zeta up to t.
On a straight segment, with x = Ex', y = Ey', w = (lambda B)^(-1/2),
c = -1/(4u), cross = x0 (y1 - y0) - y0 (x1 - x0), I1 and I2 the integrals of
w and w^2 over the segment's parameter t in [0, 1]:

    Phi_k = cross I2 / (16 u^2)
    Z_k   = c [(y1 - i x1) w1 - (y0 - i x0) w0 - ((y1 - y0) - i (x1 - x0)) I1]
    chi_k = c^2 cross (w1 (I1 - w0) - I2 + w0 I1)

and segments compose as chi = sum_k [chi_k + Im(Z_k conj(Z_1 + ... + Z_{k-1}))].
These formulas share no code with `dlh`: only the loop comes from it.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.linalg import expm

from dlh.holonomy import ParameterPath

_NODES, _WEIGHTS = leggauss(16)


def _w_integrals(a: np.ndarray, b: np.ndarray) -> tuple[float, float]:
    """(I1, I2) on a -> b: 16 Gauss nodes on each of equal panels, at a lambda or B ratio of at most 4 per panel."""
    ratio = max(max(a[k], b[k]) / min(a[k], b[k]) for k in (2, 3))
    panels = max(1, math.ceil((ratio - 1.0) / 3.0))
    t = ((np.arange(panels)[:, None] + 0.5 * (_NODES + 1.0)) / panels).ravel()
    w = 1.0 / np.sqrt((a[2] + t * (b[2] - a[2])) * (a[3] + t * (b[3] - a[3])))
    weights = np.tile(_WEIGHTS, panels) / (2.0 * panels)
    return float(weights @ w), float(weights @ (w * w))


def level(path: ParameterPath, u: float) -> tuple[float, float, complex]:
    """(Phi, chi, Z) of the loop at the scale u."""
    c, phi, chi, z = -1.0 / (4.0 * u), 0.0, 0.0, 0j
    for a, b in zip(path.vertices[:-1], path.vertices[1:]):
        (x0, y0, l0, b0), (x1, y1, l1, b1) = a, b
        w0, w1 = 1.0 / math.sqrt(l0 * b0), 1.0 / math.sqrt(l1 * b1)
        i1, i2 = _w_integrals(a, b)
        cross = x0 * (y1 - y0) - y0 * (x1 - x0)
        zk = c * ((y1 - 1j * x1) * w1 - (y0 - 1j * x0) * w0 - ((y1 - y0) - 1j * (x1 - x0)) * i1)
        phi += cross * i2 / (16.0 * u * u)
        chi += c * c * cross * (w1 * (i1 - w0) - i2 + w0 * i1) + (zk * z.conjugate()).imag
        z += zk
    return phi, chi, z


def level_block(path: ParameterPath, u: float) -> np.ndarray:
    """The (0, 3) block of exp(i (Phi + chi)) expm(i (Z L + conj(Z) L^T)) on levels 0..30."""
    phi, chi, z = level(path, u)
    L = np.diag(np.sqrt(np.arange(1.0, 31.0)), -1)  # L_{m+1,m} = sqrt(m+1)
    return np.exp(1j * (phi + chi)) * expm(1j * (z * L + np.conj(z) * L.T))[:4, :4]
