"""Test-side ODE reference for the holonomy: DOP853 on the chain-rule connection.

dU/ds = i A(x(s)) x'(s) U, integrated segment by segment, with A assembled
entry by entry from :func:`dlh.connection.connection_general`, which shares
no formula with the closed-form generator scalars that the engine and the
level read. A run takes 0.2-1.5 s, so each loop, u and window is integrated
once per test session.
"""

from __future__ import annotations

import functools

import numpy as np
from scipy.integrate import solve_ivp

from dlh import connection
from dlh.holonomy import ParameterPath


def dop853_holonomy(path: ParameterPath, u: float, window: tuple[int, int]) -> np.ndarray:
    """The holonomy on the window by DOP853 at rtol 1e-12 (read-only, shared between callers)."""
    return _integrate(path.vertices.tobytes(), u, tuple(window))


@functools.cache
def _integrate(vertices: bytes, u: float, window: tuple[int, int]) -> np.ndarray:
    m_lo, m_hi = window
    size = m_hi - m_lo + 1

    def generator(point, step):
        out = np.zeros((size, size), dtype=complex)
        for param, d in zip(connection.CONTROL_PARAMS, step):
            for i in range(size):
                for j in range(max(0, i - 1), min(size, i + 2)):
                    out[i, j] += d * connection.connection_general(param, point, u, 0, m_lo + i, m_lo + j)
        return out

    v = np.frombuffer(vertices).reshape(-1, 4)
    U = np.eye(size, dtype=complex)
    for a, b in zip(v[:-1], v[1:]):
        def rhs(s, y, a=a, step=b - a):
            return (1j * generator(a + s * step, step) @ y.reshape(size, size)).ravel()

        sol = solve_ivp(rhs, (0.0, 1.0), U.ravel(), method="DOP853", rtol=1e-12, atol=1e-14)
        assert sol.success, sol.message
        U = sol.y[:, -1].reshape(size, size)
    U.setflags(write=False)
    return U
