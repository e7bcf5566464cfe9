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

__all__ = [
    "DisplacedState",
    "displacement_matrix",
    "dual_route_deviation",
    "displaced_state",
    "displaced_hamiltonian",
    "position_shift",
]

# Truncation guards on the coherent amplitude: the displaced vacuum has mean
# level occupation |nu|^2, so the basis must extend well past it.
_NU_ERROR_FACTOR = 0.5   # |nu|^2 > n_max/2 is refused
_NU_WARN_FACTOR = 0.125  # |nu|^2 > n_max/8 warns

_DUAL_ROUTE_TOL = 1e-8
_RESOLVED_WEIGHT = 1.8e-8
_HNU_TOL = 1e-7


def _check_truncation(nu: complex, basis: FockBasis) -> None:
    occ = abs(nu) ** 2
    if occ > _NU_ERROR_FACTOR * basis.n_max:
        raise ValidationError(
            f"|nu|^2 = {occ:.3g} exceeds n_max/2 = {basis.n_max / 2:.3g}: "
            "displacement would push most weight past the truncation"
        )
    if occ > _NU_WARN_FACTOR * basis.n_max:
        warnings.warn(
            f"|nu|^2 = {occ:.3g} exceeds n_max/8 = {basis.n_max / 8:.3g}; "
            "displaced-state tails are close to the truncation",
            stacklevel=3,
        )


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


def _route_gap(nu: complex, n_max: int, dense: np.ndarray) -> float:
    """Max deviation of `dense` from the closed form on the leading levels it resolves.

    Level j is resolved when the weight of its exact column past n_max,
    1 - sum over k <= n_max of |<k|D|j>|^2, is at most _RESOLVED_WEIGHT; on
    those levels the dense route was within 0.5001 times that weight (n_max
    2-100, |nu|^2 1e-10 to n_max/8). With no level resolved the gap is nan.
    """
    levels = np.arange(n_max + 1)
    closed = _displacement_block(nu, levels, levels)
    past = 1.0 - np.sum(np.abs(closed) ** 2, axis=0)
    k = int(np.cumprod(past <= _RESOLVED_WEIGHT).sum())
    if k < 2:
        warnings.warn(f"the dual-route check of D(nu) at |nu|^2 = {abs(nu) ** 2:.3g} resolves only "
                      f"{k} level(s) below n_max = {n_max}", stacklevel=3)
    return max_abs(dense[:k, :k], closed[:k, :k]) if k else math.nan


def displacement_matrix(nu: complex, basis: FockBasis, check: bool = True) -> OperatorMatrix:
    """Matrix of D(nu) = exp(nu a+ - nu* a-) = D_n(nu) (x) I_m on the truncated basis.

    Parameters
    ----------
    nu : complex
        Phase-space displacement amplitude.
    basis : FockBasis
        Truncated basis; n_max must comfortably exceed |nu|^2.
    check : bool
        Also evaluate the closed form of the normally ordered product
        e^{-|nu|^2/2} e^{nu a+} e^{-nu* a-} and require agreement to 1e-8
        on the resolved levels, else (or with none) raise ConsistencyError.

    Notes
    -----
    The dense route exponentiates the anti-Hermitian generator on the n-mode
    with the span kernel, so D_n is unitary to roundoff; truncation bends it
    away from the infinite-basis D in the last few levels.
    """
    nu = complex(nu)
    _check_truncation(nu, basis)
    d_n = _dense_route(nu, basis.n_max)
    if check:
        dev = _route_gap(nu, basis.n_max, d_n)
        if not dev <= _DUAL_ROUTE_TOL:
            raise ConsistencyError(
                f"dense-exponential and normally ordered D(nu) disagree by {dev:.3e} "
                f"on the resolved levels (tol {_DUAL_ROUTE_TOL:.0e}; nan: no level resolved)"
            )
    return OperatorMatrix(np.kron(d_n, np.eye(basis.m_max + 1)), basis)


def dual_route_deviation(nu: complex, basis: FockBasis) -> float:
    """Max deviation between the two routes to D(nu) on the resolved levels of the n-mode.

    The dense exponential against the closed form of the normally ordered
    product, as :func:`_route_gap` reads them (nan when no level is
    resolved); m plays no part.
    """
    nu = complex(nu)
    _check_truncation(nu, basis)
    return _route_gap(nu, basis.n_max, _dense_route(nu, basis.n_max))


@dataclass(frozen=True)
class DisplacedState:
    """Coefficient vector of D(nu)|n, m> with its truncation deficit.

    coefficients is column n of D_n on the basis itself, placed at radial
    index m. trunc_deficit is the weight of D(nu)|n, m> that lies past
    n_max, sum over k > n_max of |<k, m|D(nu)|n, m>|^2: the probability that
    the truncated basis leaves out. It sums the exact closed-form entries
    from n_max + 1 to 40 levels past both n_max and the edge of the
    displaced weight, n + |nu|^2 + 12 sqrt((2n + 1)|nu|^2).
    """

    n: int
    m: int
    nu: complex
    coefficients: np.ndarray
    trunc_deficit: float


def displaced_state(n: int, m: int, nu: complex, basis: FockBasis) -> DisplacedState:
    """Expand D(nu)|n, m> over the truncated basis: column n of D_n, placed at radial index m."""
    basis.index(n, m)  # ValidationError outside the truncation
    nu = complex(nu)
    _check_truncation(nu, basis)
    coeff = np.zeros(basis.size, dtype=complex)
    coeff[m :: basis.m_max + 1] = _dense_route(nu, basis.n_max)[:, n]
    occ = abs(nu) ** 2
    top = max(basis.n_max, math.ceil(n + occ + 12.0 * math.sqrt((2 * n + 1) * occ))) + 40
    tail = _displacement_block(nu, np.arange(basis.n_max + 1, top + 1), [n])
    return DisplacedState(n=n, m=m, nu=nu, coefficients=coeff, trunc_deficit=float(np.vdot(tail, tail).real))


def displaced_hamiltonian(
    nu: complex, basis: FockBasis, scales: DerivedScales, check: bool = True
) -> OperatorMatrix:
    """H_nu = hbar |omega| [(a+ - nu*)(a- - nu) + 1/2], built on the n-mode.

    With check=True it must intertwine the closed-form D on the exact
    (n_max + 1)-square block, H_nu D = D H with H = hbar |omega| (a+ a- + 1/2),
    to 1e-7 max-norm. H_nu is tridiagonal, so every row of H_nu D below the
    top level is exact without padding; the top row is left out.
    """
    nu = complex(nu)
    ap = _ladder((0, basis.n_max))  # a+; a- is its transpose
    eye = np.eye(basis.n_max + 1, dtype=complex)
    hw = scales.energy_quantum
    direct = hw * ((ap - np.conj(nu) * eye) @ (ap.T - nu * eye) + 0.5 * eye)
    if check:
        _check_truncation(nu, basis)
        levels = np.arange(basis.n_max + 1)
        d_n = _displacement_block(nu, levels, levels)
        dev = max_abs((direct @ d_n)[:-1], (d_n * (hw * (levels + 0.5)))[:-1])
        if not dev <= _HNU_TOL * max(1.0, hw):
            raise ConsistencyError(
                f"H_nu D and D H disagree by {dev:.3e} below the top level "
                f"(tol {_HNU_TOL:.0e} x energy quantum)"
            )
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
