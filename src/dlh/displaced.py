"""Displaced Fock states: the uniform in-plane field as a phase-space shift.

Adding a uniform (Ex', Ey') component to the radial field leaves the spectrum
untouched and displaces every eigenstate by the complex amplitude nu carried
in :class:`~dlh.params.DerivedScales`:

    D(nu) = exp(nu a+ - nu* a-),        |n(nu), m> = D(nu) |n, m>,
    H_nu  = hbar |omega| [(a+ - nu*)(a- - nu) + 1/2] = D H D^dag.

D acts on the level ladder only, so it commutes with b+- and the radial
index m is a spectator: on the (n, m) basis D = D_n (x) I_m, a Kronecker
factor, and everything here is computed on the single n-mode of n_max + 1
levels and expanded over m only at the end.

Two independent routes build D_n and are checked against each other on the
levels the truncation leaves resolved: the truncated generator
nu a+ - nu* a- = i (zeta L + conj(zeta) L^T), zeta = -i nu, L = a+,
exponentiated by the one span kernel :func:`dlh._linalg._span_exp`; and the
Cahill-Glauber closed form of the normally ordered product
e^{-|nu|^2/2} e^{nu a+} e^{-nu* a-} (Phys. Rev. 177, 1857 (1969)), whose
entries are exact on the infinite ladder, on any window of levels.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from ._linalg import _ladder, _span_exp, max_abs
from .errors import ConsistencyError, ValidationError
from .fock import FockBasis, OperatorMatrix
from .params import DerivedScales, PhysicalConfig, derive_scales

__all__ = ["DisplacedState", "displacement_matrix", "dual_route_deviation", "displaced_state",
           "displaced_hamiltonian", "position_shift"]

# One truncation rule on the weight that the exact column of the requested level
# keeps past n_max: above _RESOLVED_WEIGHT it warns, above _MAX_WEIGHT it refuses.
# 0.1 clears every level-0 weight of |nu|^2 <= n_max/2 (at most 0.090, at n_max 1),
# and below 0.197 the weight grows with the level (measured for n_max 1-100).
_RESOLVED_WEIGHT = 1.8e-8
_MAX_WEIGHT = 0.1
_DUAL_ROUTE_TOL = 1e-8
_HNU_TOL = 1e-7


def _amplitude(nu) -> complex:
    if not np.isfinite(nu := complex(nu)):
        raise ValidationError(f"nu must be finite, got {nu}")
    return nu


def _tail_weight(nu: complex, n_max: int, cols) -> np.ndarray:
    """Weight past n_max of the exact columns cols of D(nu), sum over k > n_max of |<k|D|j>|^2.

    Sums the closed-form entries from n_max + 1 to 40 levels past both n_max
    and the edge of the displaced weight of the highest column j,
    j + |nu|^2 + 12 sqrt((2j + 1)|nu|^2).
    """
    occ = abs(nu) ** 2
    j = max(cols)
    top = max(n_max, math.ceil(j + occ + 12.0 * math.sqrt((2 * j + 1) * occ))) + 40
    tail = _displacement_block(nu, np.arange(n_max + 1, top + 1), cols)
    return np.array([np.vdot(c, c).real for c in tail.T])


def _guard(nu: complex, n_max: int, cols) -> np.ndarray:
    """The truncation rule on level cols[0]; returns the weights past n_max of all of cols.

    Past |nu|^2 = n_max + 1 every level keeps over half its weight past n_max
    (0.513 or more, n_max 0-100), so the tail, whose rows grow with |nu|^2, is not formed.
    """
    past = _tail_weight(nu, n_max, cols) if abs(nu) ** 2 <= n_max + 1 else [math.inf]
    if not past[0] <= _MAX_WEIGHT:
        raise ValidationError(f"|nu|^2 = {abs(nu) ** 2:.3g}: level {cols[0]} keeps over {_MAX_WEIGHT} "
                              f"of its weight past n_max = {n_max}")
    if past[0] > _RESOLVED_WEIGHT:
        warnings.warn(f"level {cols[0]} keeps {past[0]:.3g} of its weight past n_max = {n_max} "
                      f"(resolved up to {_RESOLVED_WEIGHT:.2g})", stacklevel=3)
    return past


def _displacement_block(beta: complex, rows, cols) -> np.ndarray:
    """<k|D(beta)|j> on the infinite ladder, for k in rows and j in cols.

    For k >= j the entry is sqrt(j!/k!) beta^(k-j) e^{-|beta|^2/2}
    L_j^(k-j)(|beta|^2); for k < j swap k and j and replace beta with
    -conj(beta). The Laguerre factor runs its three-term recurrence divided
    by binom(n + d, n), which bounds it by e^{|beta|^2/2}, and the magnitude
    comes in logs from a log-factorial table, so far tail rows stay finite.
    Measured against mpmath: within 1.6e-14 for |beta|^2 <= 20 and levels
    <= 95, and within 6e-14 for |beta|^2 <= 500 on levels up to
    3 |beta|^2 + 60, small j (the weakest case of the recurrence) included.
    """
    rows = np.asarray(rows, dtype=int)[:, None]
    cols = np.asarray(cols, dtype=int)[None, :]
    if beta == 0:
        return (rows == cols).astype(complex)
    x = abs(beta) ** 2
    lo, d = np.minimum(rows, cols), np.abs(rows - cols)
    alpha = np.arange(d.max() + 1.0)
    ell = np.ones((lo.max() + 1, alpha.size))  # ell[n, d] = L_n^(d)(x) / binom(n + d, n)
    for n in range(lo.max()):  # the n * ell[n - 1] term vanishes at n = 0
        ell[n + 1] = ((2 * n + 1 + alpha - x) * ell[n] - n * ell[n - 1]) / (n + 1 + alpha)
    lnf = np.array([math.lgamma(k + 1.0) for k in range(lo.max() + d.max() + 1)])
    log_mag = 0.5 * (lnf[lo + d] - lnf[lo]) - lnf[d] + d * math.log(abs(beta)) - x / 2
    phase = np.where(rows >= cols, beta, -np.conj(beta)) / abs(beta)
    return ell[lo, d] * np.exp(log_mag) * phase**d


def _dense_route(nu: complex, n_max: int) -> np.ndarray:
    """D_n(nu) = exp(i (zeta L + conj(zeta) L^T)), zeta = -i nu, on levels 0..n_max."""
    return _span_exp(0.0, -1j * nu, (0, n_max))[0]


def _route_gap(nu: complex, dense: np.ndarray, past: np.ndarray) -> float:
    """Max deviation of `dense` from the closed form on the levels the truncation rule resolves.

    Those are the leading levels whose weight past n_max, `past`, is at most
    _RESOLVED_WEIGHT, or level 0 alone once the guard has warned. Over n_max 1-100
    and |nu|^2 from 1e-12 to the refusal bound the dense route was within 0.5007
    times the largest compared weight (2.5e-13 below a weight of 1e-12), so what the
    guard accepts in silence passes at 1e-8; on level 0 alone, within 0.21 times it.
    """
    k = max(1, int(np.cumprod(past <= _RESOLVED_WEIGHT).sum()))
    return max_abs(dense[:k, :k], _displacement_block(nu, range(k), range(k)))


def displacement_matrix(nu: complex, basis: FockBasis, check: bool = True) -> OperatorMatrix:
    """Matrix of D(nu) = exp(nu a+ - nu* a-) = D_n(nu) (x) I_m on the truncated basis.

    Parameters
    ----------
    nu : complex
        Phase-space displacement amplitude.
    basis : FockBasis
        Truncated basis. The truncation rule reads level 0: it warns once
        that column keeps more than 1.8e-8 of its weight past n_max and
        refuses above 0.1.
    check : bool
        Also evaluate the closed form of the normally ordered product
        e^{-|nu|^2/2} e^{nu a+} e^{-nu* a-} and require agreement to 1e-8
        on the levels the rule resolves, else raise ConsistencyError.

    Notes
    -----
    The dense route exponentiates the anti-Hermitian generator on the n-mode
    with the span kernel, so D_n is unitary to roundoff; truncation bends it
    away from the infinite-basis D in the last few levels.
    """
    nu = _amplitude(nu)
    past = _guard(nu, basis.n_max, range(basis.n_max + 1))
    d_n = _dense_route(nu, basis.n_max)
    if check and not (dev := _route_gap(nu, d_n, past)) <= _DUAL_ROUTE_TOL:
        raise ConsistencyError(f"dense-exponential and normally ordered D(nu) disagree by {dev:.3e} "
                               f"on the resolved levels (tol {_DUAL_ROUTE_TOL:.0e})")
    return OperatorMatrix(np.kron(d_n, np.eye(basis.m_max + 1)), basis)


def dual_route_deviation(nu: complex, basis: FockBasis) -> float:
    """Max deviation between the two routes to D(nu) on the resolved levels of the n-mode.

    The dense exponential against the closed form of the normally ordered
    product, as :func:`_route_gap` reads them; m plays no part.
    """
    nu = _amplitude(nu)
    past = _guard(nu, basis.n_max, range(basis.n_max + 1))
    return _route_gap(nu, _dense_route(nu, basis.n_max), past)


@dataclass(frozen=True)
class DisplacedState:
    """Coefficient vector of D(nu)|n, m> with its truncation deficit.

    coefficients is column n of D_n on the basis itself, placed at radial
    index m. trunc_deficit is the weight of D(nu)|n, m> that lies past
    n_max, sum over k > n_max of |<k, m|D(nu)|n, m>|^2: the probability that
    the truncated basis leaves out, which the truncation rule reads.
    """

    n: int
    m: int
    nu: complex
    coefficients: np.ndarray
    trunc_deficit: float


def displaced_state(n: int, m: int, nu: complex, basis: FockBasis) -> DisplacedState:
    """Expand D(nu)|n, m> over the truncated basis: column n of D_n, placed at radial index m."""
    basis.index(n, m)  # ValidationError outside the truncation
    nu = _amplitude(nu)
    deficit = float(_guard(nu, basis.n_max, [n])[0])
    coeff = np.zeros(basis.size, dtype=complex)
    coeff[m :: basis.m_max + 1] = _dense_route(nu, basis.n_max)[:, n]
    return DisplacedState(n=n, m=m, nu=nu, coefficients=coeff, trunc_deficit=deficit)


def displaced_hamiltonian(
    nu: complex, basis: FockBasis, scales: DerivedScales, check: bool = True
) -> OperatorMatrix:
    """H_nu = hbar |omega| [(a+ - nu*)(a- - nu) + 1/2], built on the n-mode.

    With check=True it must intertwine the closed-form D on the exact
    (n_max + 1)-square block, H_nu D = D H with H = hbar |omega| (a+ a- + 1/2),
    to 1e-7 max-norm. H_nu is tridiagonal, so every row of H_nu D below the
    top level is exact without padding; the top row is left out.
    """
    nu = _amplitude(nu)
    ap = _ladder((0, basis.n_max))  # a+; a- is its transpose
    eye = np.eye(basis.n_max + 1, dtype=complex)
    hw = scales.energy_quantum
    direct = hw * ((ap - np.conj(nu) * eye) @ (ap.T - nu * eye) + 0.5 * eye)
    if check:
        _guard(nu, basis.n_max, [0])
        levels = np.arange(basis.n_max + 1)
        d_n = _displacement_block(nu, levels, levels)
        dev = max_abs((direct @ d_n)[:-1], (d_n * (hw * (levels + 0.5)))[:-1])
        if not dev <= _HNU_TOL * max(1.0, hw):
            raise ConsistencyError(f"H_nu D and D H disagree by {dev:.3e} below the top level "
                                   f"(tol {_HNU_TOL:.0e} x energy quantum)")
    return OperatorMatrix(np.kron(direct, np.eye(basis.m_max + 1)), basis)


def position_shift(config: PhysicalConfig) -> tuple[float, float]:
    """Shift (dx, dy) = (2 alpha l_m^2 Ex'/hbar, 2 alpha l_m^2 Ey'/hbar).

    This is the argument substitution that turns H into H_nu,
    H_nu = H(x + dx, y + dy), quoted in the conventional branch-independent
    magnitude form. Note it is NOT the centroid displacement of the displaced
    states: D(nu) translates densities by
    (-sqrt(2) l_m nu_y, +sigma sqrt(2) l_m nu_x), half the Hamiltonian shift
    with a sign twist, because the level ladder displaces the cyclotron
    coordinate while the guiding center stays put. The grid oracle pins the
    centroid value; this function reports the Hamiltonian shift.
    """
    scales = derive_scales(config)
    k = 2.0 * config.alpha * scales.l_m**2 / config.hbar
    return (k * config.Ex_prime, k * config.Ey_prime)
