"""Berry connection of the displaced Landau levels over (Ex', Ey', lambda, B).

Within one Landau level n the degenerate states |n(nu), m> acquire a
Mead-Berry connection A_km(xi) = i <n(nu), k | d/dxi | n(nu), m>. Two
independent routes are implemented:

* :func:`connection_general` follows the chain rule through nu(xi) and
  l_m(xi): the in-plane field components move nu directly, while lambda and B
  move both nu (through l_m) and the basis scale itself.
* The closed form, written once in :func:`_generator_scalars`. It depends on
  lambda and B only through the one scale w = |lambda B|^{-1/2} and the
  log-step d ln|lambda B| = dlambda/lambda + dB/B. Contracted with a step
  d = (dEx', dEy', dlambda, dB) the connection is the step generator

      Theta = phi I + zeta L + conj(zeta) L^T,
      phi   = w^2 (Ex' dEy' - Ey' dEx') / (16 u^2),
      zeta  = (Ey' - i Ex') (w / 8u) (dlambda/lambda + dB/B),

  with L the lowering pattern L_{m+1,m} = sqrt(m+1) on the m-window.
  :func:`connection_matrix` is Theta for a unit step along one parameter,
  and the holonomy engine (:mod:`dlh.holonomy`) contracts the same function
  with its path steps.

Both routes use the sign convention fixed by the finite-difference oracle;
:func:`dlh.oracle.sign_convention_report` (``dlh oracle-check``) measures it
and the rejected sign choices for the diagonal pair and the off-diagonal
band. Per parameter, with m the radial index,

    A(Ex')_mm      = -Ey' w^2 / (16 u^2)
    A(Ey')_mm      = +Ex' w^2 / (16 u^2)
    A(lam)_{m+1,m} = +(Ey' - i Ex') sqrt(m+1) w / (8 u lambda)
    A(B)_{m+1,m}   = +(Ey' - i Ex') sqrt(m+1) w / (8 u B)

with Hermitian conjugate entries above the diagonal, so lambda A(lam) = B A(B).
The off-diagonal prefactor 1/(8u) equals u exactly when hbar = alpha (natural
units); only 1/(8u) keeps the holonomy angle invariant under a change of units.
Matrix elements do not depend on the level index n, only on m; n is accepted
for interface symmetry with the per-level holonomy and checked for validity.

Both chiralities sigma = sign(lambda B) take these formulas, which carry no
explicit sigma: it is absorbed in the (n, m) labeling.
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
    if lam == 0.0 or b == 0.0:
        raise ValidationError(f"lambda and B must be nonzero, got lambda={lam}, B={b}")
    lam_b = abs(lam * b)  # w^2 = 1/|lambda B| must be finite and nonzero
    if not 0.0 < lam_b < math.inf:
        raise ValidationError(_not_finite(abs(lam), abs(b), "w^2", math.inf if lam_b == 0.0 else 0.0))
    return ex, ey, lam, b


def _not_finite(lam: float, b: float, name: str, value: float) -> str:
    """The refusal of a connection that is not finite at |lambda| = lam, |B| = b, where `name` is `value`."""
    return f"the connection is not finite at |lambda| = {lam!r}, |B| = {b!r}: {name} is {value!r}"


def _w2(lam, b):
    """w^2 = 1/|lambda B|, the square of the one scale w = |lambda B|^(-1/2) of lambda and B."""
    return 1.0 / np.abs(lam * b)


def _check_scales(lam_b, u: float) -> None:
    """Refuse a u that is not positive and finite, and (lambda, B) rows where the generator scalars are not finite.

    The rows are a path's vertices, or one point's. Per unit step the scalars are w^2/(16 u^2), and w/(8u) over
    lambda or B: each is largest at the rows' smallest |lambda| and |B|, where it must be finite (w/(8u B) is inf at
    B = 1e-308). w is smallest at their largest |lambda| and |B|, where lambda B must not overflow (w = 0).
    """
    _check_positive("u", u)
    low, high = np.min(np.abs(lam_b), axis=0), np.max(np.abs(lam_b), axis=0)
    with np.errstate(all="ignore"):
        w2, w2_high, w = _w2(*low), _w2(*high), np.sqrt(_w2(*low)) / (8.0 * u)
        factors = {"w^2/(16 u^2)": w2 / (16.0 * u * u), "w/(8u lambda)": w / low[0], "w/(8u B)": w / low[1]}
    bad = [(low, name, f) for name, f in factors.items() if not f < math.inf]
    bad += [(high, "w^2", w2_high)] if not w2_high > 0.0 else []
    if bad:
        (lam, b), name, f = bad[0]
        raise ValidationError(f"{_not_finite(float(lam), float(b), name, float(f))} (u = {u!r})")


def _generator_scalars(points, steps, u: float):
    """Scalars (phi, zeta) of the step generator phi I + zeta L + conj(zeta) L^T.

    `points` and `steps` are (Ex', Ey', lambda, B) rows of the same shape,
    (4,) or (k, 4); the generator is the connection contracted with the step.
    Callers pass u and the lambda and B range through :func:`_check_scales` first.
    """
    ex, ey, lam, b = np.asarray(points, dtype=float).T
    dex, dey, dlam, db = np.asarray(steps, dtype=float).T
    w2 = _w2(lam, b)
    phi = (ex * dey - ey * dex) * (w2 / (16.0 * u * u))
    zeta = (ey - 1j * ex) * (np.sqrt(w2) / (8.0 * u) * (dlam / lam + db / b))
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
    c = 1.0 / (4.0 * u * math.sqrt(abs(lam * b)))  # w / 4u
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
    """Connection component on the window (m_lo, m_hi) that :func:`connection_matrix` was called with.

    entries[i, j] = A_{(m_lo+i),(m_lo+j)} of its parameter and point;
    Hermitian and tridiagonal by construction (the in-plane components are
    diagonal). The entries do not depend on the level n.
    """

    entries: np.ndarray


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
    _check_count("n", n, 0)
    p = _unpack(point)
    _check_scales([p[2:]], u)
    step = np.eye(4)[CONTROL_PARAMS.index(param)]
    A = _generators(*_generator_scalars(p, step, u), _ladder((m_lo, m_hi)))
    return ConnectionMatrix(entries=A)


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
    """Curvature d A(Ey')/dEx' - d A(Ex')/dEy' = +w^2/(8 u^2), w = |lambda B|^(-1/2), on both chiralities.

    Constant over the (Ex', Ey') plane; equal to -2 times the area-law
    coefficient -w^2/(16 u^2) used by the gamma_area_law branch.
    """
    _check_positive("u", u)
    _, _, lam, b = _unpack(point)
    return float(_w2(lam, b) / (8.0 * u * u))
