"""Small shared numerics: the ladder, the one span exponential, the ordered product, unitarization.

The engine's holonomy steps, the Ex' = 0 angle (S / 4u) T and the generator
of D_n(nu) are each phi I + zeta L + conj(zeta) L^T, with L the ladder
L_{m+1,m} = sqrt(m+1) on a window of levels (:func:`_ladder`). The one span
kernel :func:`_span_exp` exponentiates all three. The one ordered product
:func:`_tree_product` multiplies the engine's step factors and the grid
oracle's Wilson links.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = ["unitarize", "max_abs"]


def _ladder(window: tuple[int, int]) -> np.ndarray:
    """L_{m+1,m} = sqrt(m+1) on the (already checked) window m_lo..m_hi."""
    m_lo, m_hi = window
    return np.diag(np.sqrt(np.arange(m_lo + 1, m_hi + 1, dtype=float)), -1)


@functools.lru_cache(maxsize=16)
def _span_basis(window: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues lam and eigenvectors V of T = L + L^T on a checked window; cached, read-only."""
    L = _ladder(window)
    lam, V = np.linalg.eigh(L + L.T)
    lam.setflags(write=False)
    V.setflags(write=False)
    return lam, V


@functools.lru_cache(maxsize=16)
def _span_table(window: tuple[int, int]) -> np.ndarray:
    """The (n, n*n) projectors V_aj V_bj, so that V diag(e) V^T is e @ table; cached, read-only."""
    V = _span_basis(window)[1]
    table = np.einsum("aj,bj->jab", V, V).reshape(len(V), -1)
    table.setflags(write=False)
    return table


def _span_exp(phi, zeta, window: tuple[int, int]) -> np.ndarray:
    """exp(i (phi I + zeta L + conj(zeta) L^T)) for each entry of the 1-d stacks phi, zeta.

    zeta L + conj(zeta) L^T = |zeta| R T R^dag with R = diag(e^{i m arg zeta}),
    so the exponential is e^{i phi} R V diag(e^{i |zeta| lam}) V^T R^dag, with
    T = V diag(lam) V^T from :func:`_span_basis` on the checked window.
    Unitary to roundoff, since V is orthogonal; returns a (k, n, n) stack.

    The middle factor is taken as I + V diag(e^{i |zeta| lam} - 1) V^T: the
    rounding of V V^T would otherwise enter every step's identity part alike
    and add up linearly over a long ordered product. A stack contracts with
    the table of :func:`_span_table`, faster than a batch of eigenvector
    products at 4-128 levels; a single exponential builds no table.
    """
    lam, V = _span_basis(window)
    size = len(lam)
    phi, zeta = np.atleast_1d(phi), np.atleast_1d(zeta)
    angle = np.abs(zeta)[:, None] * lam
    e = 1j * np.sin(angle) - 2.0 * np.sin(0.5 * angle) ** 2
    core = (V * e[:, None]) @ V.T if len(e) == 1 else (e @ _span_table(window)).reshape(-1, size, size)
    core += np.eye(size)
    rot = np.exp(1j * np.angle(zeta)[:, None] * np.arange(size))
    return core * (np.exp(1j * phi)[:, None] * rot)[:, :, None] * rot.conj()[:, None, :]


def _tree_product(stack: np.ndarray) -> np.ndarray:
    """Ordered product of a (k, n, n) stack, later entries on the left, by pairwise reduction."""
    while len(stack) > 1:
        paired = stack[1::2] @ stack[:-1:2]
        stack = np.concatenate([paired, stack[-1:]]) if len(stack) % 2 else paired
    return stack[0]


def unitarize(M: np.ndarray) -> np.ndarray:
    """Closest unitary in Frobenius norm (polar factor via SVD)."""
    u, _, vh = np.linalg.svd(M)
    return u @ vh


def max_abs(A: np.ndarray, B: np.ndarray | None = None) -> float:
    """Max-norm of A, or of A - B."""
    d = A if B is None else A - B
    return float(np.max(np.abs(d))) if d.size else 0.0
