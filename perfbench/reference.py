"""Independent holonomy reference by adaptive ODE integration.

Integrates dU/ds = i A(x(s)) x'(s) U segment by segment along a polygonal
loop with scipy's DOP853 at rtol 1e-12. A is assembled entry by entry from
:func:`dlh.connection.connection_general`, the chain-rule route, so the
reference shares no code with the holonomy engine's step generators or with
the closed-form :func:`dlh.connection.connection_matrix`.
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import solve_ivp

from dlh import connection

RTOL = 1e-12
ATOL = 1e-14


def _generator(point, step, u: float, window: tuple[int, int]) -> np.ndarray:
    """Sum over parameters of A_param(point) * step_param on the m-window."""
    m_lo, m_hi = window
    size = m_hi - m_lo + 1
    out = np.zeros((size, size), dtype=complex)
    for param, d in zip(connection.CONTROL_PARAMS, step):
        if d == 0.0:
            continue
        for i in range(size):
            for j in range(max(0, i - 1), min(size, i + 2)):
                out[i, j] += d * connection.connection_general(param, point, u, 0, m_lo + i, m_lo + j)
    return out


def ode_holonomy(vertices: np.ndarray, u: float, window: tuple[int, int]) -> np.ndarray:
    """Path-ordered exp(i closed-integral of A) around a closed polygon, later steps on the left."""
    size = window[1] - window[0] + 1
    U = np.eye(size, dtype=complex)
    for a, b in zip(vertices[:-1], vertices[1:]):
        step = b - a
        if not np.any(step):
            continue

        def rhs(s, y, a=a, step=step):
            return (1j * _generator(a + s * step, step, u, window) @ y.reshape(size, size)).ravel()

        sol = solve_ivp(rhs, (0.0, 1.0), U.ravel(), method="DOP853", rtol=RTOL, atol=ATOL)
        if not sol.success:
            raise RuntimeError(f"reference integration failed: {sol.message}")
        U = sol.y[:, -1].reshape(size, size)
    return U
