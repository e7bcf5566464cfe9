"""Berry connection of the displaced Landau levels over (Ex', Ey', lambda, B).

Within one Landau level n the degenerate states |n(nu), m> acquire a
Mead-Berry connection A_km(xi) = i <n(nu), k | d/dxi | n(nu), m>. Two
independent routes are implemented:

* :func:`connection_general` follows the chain rule through nu(xi) and
  l_m(xi): the in-plane field components move nu directly, while lambda and B
  move both nu (through l_m) and the basis scale itself.
* The closed form, written once in :func:`_generator_scalars`. Contracted
  with a step d = (dEx', dEy', dlambda, dB) the connection is the step
  generator

      Theta = phi I + zeta L + conj(zeta) L^T,
      phi   = (Ex' dEy' - Ey' dEx') / (16 u^2 lambda B),
      zeta  = (Ey' - i Ex') [dlambda / (8 u lambda^{3/2} B^{1/2})
                             + dB / (8 u lambda^{1/2} B^{3/2})],

  with L the lowering pattern L_{m+1,m} = sqrt(m+1) on the m-window.
  :func:`connection_matrix` is Theta for a unit step along one parameter,
  :func:`connection_closed_form` one entry of it, and the holonomy engine
  (:mod:`dlh.holonomy`) contracts the same function with its path steps.

Both routes use the sign convention fixed by the finite-difference oracle
(:mod:`dlh.oracle`); the two possible sign choices for the diagonal pair and
for the off-diagonal band are recorded in :data:`SIGN_CONVENTION`. Per
parameter, with m the radial index,

    A(Ex')_mm      = -Ey' / (16 u^2 lambda B)
    A(Ey')_mm      = +Ex' / (16 u^2 lambda B)
    A(lam)_{m+1,m} = +(Ey' - i Ex') sqrt(m+1) / (8 u lambda^{3/2} B^{1/2})
    A(B)_{m+1,m}   = +(Ey' - i Ex') sqrt(m+1) / (8 u lambda^{1/2} B^{3/2})

with Hermitian conjugate entries above the diagonal. The off-diagonal
prefactor 1/(8u) equals u exactly when hbar = alpha (natural units); only
1/(8u) keeps the holonomy angle invariant under a change of units. Matrix
elements do not depend on the level index n, only on m; n is accepted for
interface symmetry with the per-level holonomy and checked for validity.

Everything here assumes lambda > 0 and B > 0. The formulas carry no explicit
sigma: chirality is absorbed in the (n, m) labeling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._linalg import _ladder, max_abs
from .errors import ValidationError, _check_count, _check_positive, _check_window
from .params import CONTROL_PARAMS, _check_param

__all__ = [
    "CONTROL_PARAMS",
    "ConnectionMatrix",
    "SIGN_CONVENTION",
    "connection_general",
    "connection_closed_form",
    "connection_matrix",
    "chain_rule_consistency",
    "abelian_curvature",
]

# Resolved vs rejected sign choices, surfaced by `dlh oracle-check`.
SIGN_CONVENTION = {
    "diagonal_relative_sign": "opposite",
    "diagonal_resolved": {
        "Ex_prime": "-Ey'/(16 u^2 lam B)",
        "Ey_prime": "+Ex'/(16 u^2 lam B)",
    },
    "diagonal_rejected": (
        "same-sign variant: makes A dEx' + A dEy' an exact 1-form with zero "
        "curvature, contradicting the measured loop phase"
    ),
    "offdiagonal_sign": "+1",
    "offdiagonal_prefactor": "1/(8u), equal to u when hbar = alpha",
    "curvature_closed_form": "+1/(8 u^2 lam B)",
    "area_law_coefficient": "-1/(16 u^2 lam B)",
    "curvature_over_area_law": -2.0,
}


def _unpack(point) -> tuple[float, float, float, float]:
    try:
        ex, ey, lam, b = (float(v) for v in point)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"point must be 4 numbers (Ex', Ey', lambda, B): {point!r}") from exc
    if not all(map(math.isfinite, (ex, ey, lam, b))):
        raise ValidationError(f"point contains non-finite entries: {point!r}")
    if lam <= 0 or b <= 0:
        raise ValidationError(f"lambda and B must be positive, got lambda={lam}, B={b}")
    return ex, ey, lam, b


def _check_level_and_m(n: int, m_row: int, m_col: int) -> tuple[int, int, int]:
    return tuple(_check_count(name, index, 0) for name, index in (("n", n), ("m_row", m_row), ("m_col", m_col)))


def _lowering_pattern(window: tuple[int, int]) -> np.ndarray:
    """L_{m+1,m} = sqrt(m+1) on the window m_lo..m_hi, once the window is checked."""
    return _ladder(_check_window(window))


def _generator_scalars(points, steps, u: float):
    """Scalars (phi, zeta) of the step generator phi I + zeta L + conj(zeta) L^T.

    `points` and `steps` are (Ex', Ey', lambda, B) rows of the same shape,
    (4,) or (k, 4); the generator is the connection contracted with the step.
    """
    ex, ey, lam, b = np.asarray(points, dtype=float).T
    dex, dey, dlam, db = np.asarray(steps, dtype=float).T
    phi = (ex * dey - ey * dex) / (16.0 * u * u * lam * b)
    zeta = (ey - 1j * ex) * (
        dlam / (8.0 * u * lam ** 1.5 * np.sqrt(b)) + db / (8.0 * u * np.sqrt(lam) * b ** 1.5)
    )
    return phi, zeta


def _generators(phi, zeta, L: np.ndarray) -> np.ndarray:
    """phi I + zeta L + conj(zeta) L^T, stacked over the shape of phi and zeta."""
    phi = np.asarray(phi)[..., None, None]
    zeta = np.asarray(zeta)[..., None, None]
    return phi * np.eye(len(L)) + zeta * L + np.conj(zeta) * L.T


def connection_general(
    param: str, point, u: float, n: int, m_row: int, m_col: int
) -> complex:
    """Connection element by the chain rule through nu(xi) and l_m(xi).

    diag:      -Im(conj(nu) d(nu)/dxi)
    band +-1:  dln(l_m)/dxi * [conj(nu) sqrt(m+1) above, nu sqrt(m) below]

    The within-level piece of the basis-rescaling generator vanishes (pure
    scaling only connects adjacent levels), so these two terms are the whole
    element.
    """
    _check_param(param)
    _check_positive("u", u)
    _check_level_and_m(n, m_row, m_col)
    ex, ey, lam, b = _unpack(point)
    c = 1.0 / (4.0 * u * math.sqrt(lam * b))
    nu = complex(-c * ey, -c * ex)
    if param == "Ex_prime":
        dnu, dlnl = complex(0.0, -c), 0.0
    elif param == "Ey_prime":
        dnu, dlnl = complex(-c, 0.0), 0.0
    elif param == "lambda_density":
        dnu, dlnl = -nu / (2.0 * lam), -1.0 / (2.0 * lam)
    else:
        dnu, dlnl = -nu / (2.0 * b), -1.0 / (2.0 * b)
    if m_row == m_col:
        return complex(-((np.conj(nu) * dnu).imag), 0.0)
    if m_row == m_col + 1:
        return dlnl * np.conj(nu) * math.sqrt(m_col + 1)
    if m_row == m_col - 1:
        return dlnl * nu * math.sqrt(m_col)
    return 0.0 + 0.0j


def connection_closed_form(
    param: str, point, u: float, n: int, m_row: int, m_col: int
) -> complex:
    """One entry of :func:`connection_matrix` (see module docstring), bit for bit, from the generator scalars alone.

    The entry is phi I + zeta L + conj(zeta) L^T at (m_row, m_col), with the
    same operations on the same numbers as in the matrix, signed zeros too.
    """
    _, m_row, m_col = _check_level_and_m(n, m_row, m_col)
    _check_param(param)
    _check_positive("u", u)
    p = _unpack(point)
    if abs(m_row - m_col) > 1:
        return 0j
    phi, zeta = _generator_scalars(p, np.eye(4)[CONTROL_PARAMS.index(param)], u)
    band = math.sqrt(max(m_row, m_col))  # L_{m+1,m} = sqrt(m+1)
    lower, upper = (band if m_row > m_col else 0.0), (band if m_row < m_col else 0.0)
    return complex(phi * float(m_row == m_col) + zeta * lower + np.conj(zeta) * upper)


@dataclass(frozen=True)
class ConnectionMatrix:
    """Connection component on the window m_lo..m_hi of level n.

    entries[i, j] = A_{(m_lo+i),(m_lo+j)}(param) at `point`; Hermitian and
    tridiagonal by construction (the in-plane components are diagonal).
    """

    param: str
    point: tuple[float, float, float, float]
    n: int
    m_lo: int
    m_hi: int
    entries: np.ndarray

    @property
    def window(self) -> range:
        return range(self.m_lo, self.m_hi + 1)


def connection_matrix(
    param: str, point, u: float, n: int, window: tuple[int, int]
) -> ConnectionMatrix:
    """Window matrix of one connection component: the step generator of a unit step along `param`.

    The lower window edge m_lo = 0 is physical (the sqrt(m) coupling to
    m = -1 vanishes identically); any other edge is an artificial cut and
    windows should be widened to test sensitivity.
    """
    _check_param(param)
    _check_positive("u", u)
    m_lo, m_hi = _check_window(window)
    n = _check_count("n", n, 0)
    p = _unpack(point)
    step = np.eye(4)[CONTROL_PARAMS.index(param)]
    A = _generators(*_generator_scalars(p, step, u), _lowering_pattern(window))
    return ConnectionMatrix(param=param, point=p, n=n, m_lo=m_lo, m_hi=m_hi, entries=A)


def chain_rule_consistency(point, u: float, n: int, window: tuple[int, int]) -> dict[str, float]:
    """Max |general - closed_form| per parameter over the window, plus "max".

    Compares every band entry (diagonal and both off-diagonals) of the
    closed-form matrix on the window widened by one row at each edge, so
    edge couplings are covered too.
    """
    m_lo, m_hi = _check_window(window)
    wide = (max(0, m_lo - 1), m_hi + 1)
    out: dict[str, float] = {}
    for param in CONTROL_PARAMS:
        closed = connection_matrix(param, point, u, n, wide).entries
        general = np.array(
            [[connection_general(param, point, u, n, k, m) for m in range(wide[0], wide[1] + 1)]
             for k in range(wide[0], wide[1] + 1)]
        )
        out[param] = max_abs(general, closed)
    out["max"] = max(out.values())
    return out


def abelian_curvature(point, u: float) -> float:
    """Curvature d A(Ey')/dEx' - d A(Ex')/dEy' = +1/(8 u^2 lambda B).

    Constant over the (Ex', Ey') plane; equal to -2 times the area-law
    coefficient -1/(16 u^2 lambda B) used by the gamma_area_law branch.
    """
    _check_positive("u", u)
    _, _, lam, b = _unpack(point)
    return 1.0 / (8.0 * u * u * lam * b)
