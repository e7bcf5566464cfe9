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
interior block: the eigendecomposition of the truncated generator, which is
i times a Hermitian matrix, through :func:`dlh._linalg.unitary_exp_i`; and
the normally ordered product e^{-|nu|^2/2} e^{nu a+} e^{-nu* a-} whose
factors are finite series in the nilpotent truncated ladders.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from ._linalg import max_abs, unitary_exp_i
from .errors import ConsistencyError, ValidationError
from .fock import FockBasis, OperatorMatrix, _ladder_1d
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


def _nilpotent_exp(A: np.ndarray, degree: int) -> np.ndarray:
    # exp of a nilpotent matrix: the series terminates after `degree` powers
    out = np.eye(A.shape[0], dtype=complex)
    term = np.eye(A.shape[0], dtype=complex)
    for j in range(1, degree + 1):
        term = term @ A / j
        out += term
    return out


def _n_ladders(n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """(a+, a-) on the single n-mode of n_max + 1 levels."""
    return _ladder_1d(n_max + 1, "create"), _ladder_1d(n_max + 1, "annihilate")


def _dense_route(nu: complex, n_max: int) -> np.ndarray:
    """D_n(nu) = exp(i H) with H = -i (nu a+ - nu* a-) Hermitian, by eigendecomposition."""
    ap, am = _n_ladders(n_max)
    return unitary_exp_i(-1j * (nu * ap - np.conj(nu) * am))


def _padded_top(n_max: int) -> int:
    """Highest level of the padded n-mode of 2 n_max + 16 levels, where D_n is read free of truncation."""
    return 2 * n_max + 15


def _interior(n_max: int) -> slice:
    """Levels n <= n_max - max(1, n_max // 2): the upper half, where truncation bends D, is cut."""
    return slice(0, n_max + 1 - max(1, n_max // 2))


def _route_gap(nu: complex, n_max: int, dense: np.ndarray) -> float:
    """Max deviation of `dense` from e^{-|nu|^2/2} e^{nu a+} e^{-nu* a-} on the interior levels."""
    ap, am = _n_ladders(n_max)
    ordered = (
        math.exp(-abs(nu) ** 2 / 2.0)
        * _nilpotent_exp(nu * ap, n_max)
        @ _nilpotent_exp(-np.conj(nu) * am, n_max)
    )
    i = _interior(n_max)
    return max_abs(dense[i, i], ordered[i, i])


def displacement_matrix(nu: complex, basis: FockBasis, check: bool = True) -> OperatorMatrix:
    """Matrix of D(nu) = exp(nu a+ - nu* a-) = D_n(nu) (x) I_m on the truncated basis.

    Parameters
    ----------
    nu : complex
        Phase-space displacement amplitude.
    basis : FockBasis
        Truncated basis; n_max must comfortably exceed |nu|^2.
    check : bool
        Also build the normally ordered route
        e^{-|nu|^2/2} e^{nu a+} e^{-nu* a-} and require interior agreement
        to 1e-8 max-norm, raising ConsistencyError otherwise.

    Notes
    -----
    The dense route exponentiates the anti-Hermitian generator on the
    n-mode by eigendecomposition (:func:`dlh._linalg.unitary_exp_i`), so
    D_n is unitary to roundoff. Truncation bends it away from the
    infinite-basis D in the last few levels; the interior block matches.
    """
    nu = complex(nu)
    _check_truncation(nu, basis)
    d_n = _dense_route(nu, basis.n_max)
    if check:
        dev = _route_gap(nu, basis.n_max, d_n)
        if dev > _DUAL_ROUTE_TOL:
            raise ConsistencyError(
                f"dense-exponential and normally ordered D(nu) disagree by {dev:.3e} "
                f"on the interior block (tol {_DUAL_ROUTE_TOL:.0e})"
            )
    return OperatorMatrix(np.kron(d_n, np.eye(basis.m_max + 1)), basis)


def dual_route_deviation(nu: complex, basis: FockBasis) -> float:
    """Interior max deviation between the two routes to D(nu), on the n-mode.

    Compares the dense matrix exponential against the normally ordered
    product e^{-|nu|^2/2} e^{nu a+} e^{-nu* a-} on the levels
    n <= n_max - max(1, n_max // 2); m is a spectator and plays no part.
    """
    nu = complex(nu)
    _check_truncation(nu, basis)
    return _route_gap(nu, basis.n_max, _dense_route(nu, basis.n_max))


@dataclass(frozen=True)
class DisplacedState:
    """Coefficient vector of D(nu)|n, m> with its truncation deficit.

    coefficients is column n of D_n on the basis itself, placed at radial
    index m. trunc_deficit is the weight of D(nu)|n, m> that lies past
    n_max, sum over k > n_max of |<k, m|D(nu)|n, m>|^2, read off column n of
    D_n on a padded n-mode of 2 n_max + 16 levels: the probability that the
    truncated basis leaves out.
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
    tail = _dense_route(nu, _padded_top(basis.n_max))[basis.n_max + 1 :, n]
    deficit = float(np.vdot(tail, tail).real)
    return DisplacedState(n=n, m=m, nu=nu, coefficients=coeff, trunc_deficit=deficit)


def displaced_hamiltonian(
    nu: complex, basis: FockBasis, scales: DerivedScales, check: bool = True
) -> OperatorMatrix:
    """H_nu = hbar |omega| [(a+ - nu*)(a- - nu) + 1/2], built on the n-mode.

    With check=True the same operator is built as D_n H_n D_n^dag and the
    two constructions must agree to 1e-7 max-norm on the interior levels.
    The direct form is exact on the truncated basis, but truncation bends
    D_n near the cut, and the conjugation carries that error inwards; so the
    conjugation runs on a padded n-mode of 2 n_max + 16 levels and is
    compared on the interior block of the original one.
    """
    nu = complex(nu)
    ap, am = _n_ladders(basis.n_max)
    eye = np.eye(basis.n_max + 1, dtype=complex)
    hw = scales.energy_quantum
    direct = hw * ((ap - np.conj(nu) * eye) @ (am - nu * eye) + 0.5 * eye)
    if check:
        _check_truncation(nu, basis)
        pad = _padded_top(basis.n_max)
        d_pad = _dense_route(nu, pad)
        h_pad = hw * np.diag(np.arange(pad + 1) + 0.5)  # H = hw (a+ a- + 1/2) on the padded mode
        conjugated = d_pad @ h_pad @ d_pad.conj().T
        i = _interior(basis.n_max)
        dev = max_abs(direct[i, i], conjugated[i, i])
        if dev > _HNU_TOL * max(1.0, hw):
            raise ConsistencyError(
                f"H_nu direct form and D H D^dag disagree by {dev:.3e} on the interior "
                f"block (tol {_HNU_TOL:.0e} x energy quantum)"
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
