"""Small shared numerics: exactly-unitary exponentials and unitarization.

:func:`unitary_exp_i` exponentiates by eigendecomposition the displacement
D(nu) on the n-mode and the closed-form holonomy of an Ex' = 0 loop. The
engine's step generators go through ``holonomy._span_exp`` instead.
"""

from __future__ import annotations

import numpy as np

__all__ = ["unitary_exp_i", "unitarize", "max_abs"]


def unitary_exp_i(H: np.ndarray) -> np.ndarray:
    """exp(i H) for Hermitian H, or for each matrix of a (k, n, n) stack.

    Via eigendecomposition, so unitary to roundoff by construction, which
    keeps long path-ordered products from drifting off the unitary group.
    """
    w, V = np.linalg.eigh(H)
    return (V * np.exp(1j * w)[..., None, :]) @ np.swapaxes(V.conj(), -1, -2)


def unitarize(M: np.ndarray) -> np.ndarray:
    """Closest unitary in Frobenius norm (polar factor via SVD)."""
    u, _, vh = np.linalg.svd(M)
    return u @ vh


def max_abs(A: np.ndarray, B: np.ndarray | None = None) -> float:
    """Max-norm of A, or of A - B."""
    d = A if B is None else A - B
    return float(np.max(np.abs(d))) if d.size else 0.0
