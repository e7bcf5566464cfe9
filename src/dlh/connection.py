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
  and the holonomy engine (:mod:`dlh.holonomy`) contracts the same function
  with its path steps.

Both routes use the sign convention fixed by the finite-difference oracle;
:func:`dlh.oracle.sign_convention_report` (``dlh oracle-check``) measures it
and the rejected sign choices for the diagonal pair and the off-diagonal
band. Per parameter, with m the radial index,

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
from .errors import ValidationError, _check_count, _check_positive, _check_window, _floats
from .params import CONTROL_PARAMS, _check_param

__all__ = [
    "CONTROL_PARAMS",
    "ConnectionMatrix",
    "connection_general",
    "connection_matrix",
    "chain_rule_consistency",
    "abelian_curvature",
]


def _unpack(point) -> tuple[float, float, float, float]:
    ex, ey, lam, b = _floats(point, "point must be 4 numbers (Ex', Ey', lambda, B)", (4,)).tolist()
    if not all(map(math.isfinite, (ex, ey, lam, b))):
        raise ValidationError(f"point contains non-finite entries: {point!r}")
    if lam <= 0 or b <= 0:
        raise ValidationError(f"lambda and B must be positive, got lambda={lam}, B={b}")
    return ex, ey, lam, b


def _denominators(lam, b, u: float):
    """What the generator scalars divide by: 16 u^2 lambda B, 8 u lambda^{3/2} B^{1/2}, 8 u lambda^{1/2} B^{3/2}."""
    return 16.0 * u * u * lam * b, 8.0 * u * lam ** 1.5 * np.sqrt(b), 8.0 * u * np.sqrt(lam) * b ** 1.5


def _check_scales(lam_b, u: float) -> None:
    """Refuse a u that is not positive and finite, and (lambda, B) rows where the generator scalars are not finite.

    The rows are a path's vertices, or one point's. Where phi would divide by 0, or zeta by 0 or inf, the scalars are
    inf or NaN or numpy warns (B^{3/2} underflows at B = 1e-308, lambda^{3/2} overflows at lambda = 1e308); 16 u^2
    lambda B may overflow where u^2 does, and phi is then 0, rounded. Each denominator grows with lambda and B, so
    the rows' smallest and largest bound it between them.
    """
    _check_positive("u", u)
    low, high = np.min(lam_b, axis=0), np.max(lam_b, axis=0)
    with np.errstate(all="ignore"):
        smallest, largest = _denominators(*low, u), _denominators(*high, u)
    names = ("16 u^2 lambda B", "8 u lambda^(3/2) B^(1/2)", "8 u lambda^(1/2) B^(3/2)")
    bad = [(name, low, d) for name, d in zip(names, smallest) if not d > 0.0]
    bad += [(name, high, d) for name, d in zip(names[1:], largest[1:]) if not d < math.inf]
    if bad:
        name, (lam, b), d = bad[0]
        raise ValidationError(f"the connection is not finite at lambda = {float(lam)!r}, B = {float(b)!r}: "
                              f"{name} is {float(d)!r} (u = {u!r})")


def _generator_scalars(points, steps, u: float):
    """Scalars (phi, zeta) of the step generator phi I + zeta L + conj(zeta) L^T.

    `points` and `steps` are (Ex', Ey', lambda, B) rows of the same shape,
    (4,) or (k, 4); the generator is the connection contracted with the step.
    Callers pass u and the lambda and B range through :func:`_check_scales` first.
    """
    ex, ey, lam, b = np.asarray(points, dtype=float).T
    dex, dey, dlam, db = np.asarray(steps, dtype=float).T
    d_phi, d_lam, d_b = _denominators(lam, b, u)
    phi = (ex * dey - ey * dex) / d_phi
    zeta = (ey - 1j * ex) * (dlam / d_lam + db / d_b)
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
    for name, index in (("n", n), ("m_row", m_row), ("m_col", m_col)):
        _check_count(name, index, 0)
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
    m_lo, m_hi = _check_window(window)
    n = _check_count("n", n, 0)
    p = _unpack(point)
    _check_scales([p[2:]], u)
    step = np.eye(4)[CONTROL_PARAMS.index(param)]
    A = _generators(*_generator_scalars(p, step, u), _ladder((m_lo, m_hi)))
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
