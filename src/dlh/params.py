"""Physical configuration and derived scales.

A neutral particle with polarizability ``alpha`` moving through the field
configuration E = (lambda/2)(x, y, 0), B = (0, 0, B) behaves as an effective
Landau problem: the induced dipole couples the motion to an effective vector
potential proportional to E x B, giving a cyclotron frequency

    omega = alpha * lambda * B / M,

a magnetic length ``l_m = sqrt(hbar / (M |omega|))``, and a chirality
``sigma = sign(lambda * B)``. A uniform in-plane field (Ex', Ey') displaces
every Landau level in phase space by the complex amplitude ``nu``; the phase
scale ``u = sqrt(hbar / (8 alpha))`` controls all geometric phases downstream.

Everything downstream consumes :class:`DerivedScales` rather than raw inputs,
so unit questions are settled once, here.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from .errors import ValidationError, _check_positive, _is_integer

__all__ = [
    "CONTROL_PARAMS",
    "PhysicalConfig",
    "DerivedScales",
    "RegimeReport",
    "derive_scales",
    "validate_regime",
]


CONTROL_PARAMS = ("Ex_prime", "Ey_prime", "lambda_density", "B")
_DEGENERATE = "lambda_density * B must be nonzero: the effective Landau problem degenerates at zero cyclotron frequency"


def _check_param(param: str) -> None:
    if param not in CONTROL_PARAMS:
        raise ValidationError(f"unknown control parameter {param!r}, expected one of {CONTROL_PARAMS}")


@dataclass(frozen=True)
class PhysicalConfig:
    """Input record. SI units unless you are feeding natural units on purpose.

    Attributes
    ----------
    mass : float
        Particle mass M (kg).
    alpha : float
        Electric polarizability (F m^2). Must be positive.
    hbar : float
        Reduced Planck constant; override for natural-unit runs.
    lambda_density : float
        Radial electric field gradient lambda (V/m^2); E_radial = (lambda/2) r.
    B : float
        Axial magnetic field (T). lambda_density * B must be nonzero.
    Ex_prime, Ey_prime : float
        Uniform in-plane electric field components (V/m).
    sigma_override : int or None
        Force the chirality to +1 or -1 instead of sign(lambda * B).
    """

    mass: float
    alpha: float
    hbar: float
    lambda_density: float
    B: float
    Ex_prime: float = 0.0
    Ey_prime: float = 0.0
    sigma_override: int | None = None

    def __post_init__(self):
        for name in ("mass", "alpha", "hbar"):
            _check_positive(name, getattr(self, name))
        for name in CONTROL_PARAMS:
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
                raise ValidationError(f"{name} must be a finite number, got {value!r}")
        if self.lambda_density * self.B == 0:
            raise ValidationError(_DEGENERATE)
        sigma = self.sigma_override
        if sigma is not None and not (_is_integer(sigma) and sigma in (1, -1)):
            raise ValidationError(f"sigma_override must be +1, -1 or None, got {sigma!r}")

    def at_point(self, Ex: float, Ey: float, lam: float, B: float) -> "PhysicalConfig":
        """Same particle, different control-space point (Ex', Ey', lambda, B)."""
        return replace(
            self, Ex_prime=float(Ex), Ey_prime=float(Ey), lambda_density=float(lam), B=float(B)
        )


@dataclass(frozen=True)
class DerivedScales:
    """Derived quantities every other module consumes, as :func:`derive_scales` checks them.

    omega is the positive cyclotron frequency |omega|; the sign lives in
    sigma. hbar is carried along because energy and angular-momentum quanta
    (hbar*omega, hbar) are needed wherever scales are.
    """

    omega: float
    sigma: int
    l_m: float
    u: float
    nu: complex
    hbar: float

    @property
    def energy_quantum(self) -> float:
        """hbar * |omega|, the Landau level spacing."""
        return self.hbar * self.omega


def _point_scales(config: PhysicalConfig, points) -> tuple[np.ndarray, ...]:
    """omega, sigma, l_m, u and nu, each of shape (K,), of the particle of `config` at K (Ex', Ey', lambda, B) rows.

    nu pairs nu_x with Ey' and nu_y with Ex': nu = -(alpha l_m / (sqrt(2) hbar)) (Ey' + i Ex'). Every row needs
    finite coordinates, lambda B != 0, omega, l_m and u positive and finite, nu finite; the first bad row raises.
    """
    p = np.asarray(points, dtype=float)
    if p.ndim != 2 or p.shape[1] != 4:
        raise ValidationError(f"points must be rows of (Ex', Ey', lambda, B), got shape {p.shape}")
    ex, ey, lam, b = p.T
    with np.errstate(all="ignore"):  # finite inputs can still over- or underflow, e.g. alpha/M = 1e600
        lam_B = lam * b
        omega = config.alpha * np.abs(lam_B) / config.mass
        sigma = np.sign(lam_B).astype(int) if config.sigma_override is None else np.full(len(p), config.sigma_override)
        l_m = np.sqrt(config.hbar / (config.mass * omega))
        u0 = math.sqrt(config.hbar / (8.0 * config.alpha))
        u = np.full(len(p), u0)
        c = config.alpha * l_m / (math.sqrt(2.0) * config.hbar)
        nu = (-c * ey).astype(complex)
        nu.imag = -c * ex
    # A row passes every check just when l_m > 0 and nu is finite: l_m > 0 needs a finite omega, so finite lambda
    # and B, and a finite nu needs l_m < inf (so omega > 0, lambda B != 0) and finite Ex', Ey'. Only failures are diagnosed.
    if not (np.all((0 < l_m) & np.isfinite(nu)) and 0 < u0 < math.inf):
        positive = {"omega": omega, "l_m": l_m, "u": u}
        ok = np.column_stack([np.isfinite(p), lam_B != 0, *((0 < v) & (v < math.inf) for v in positive.values()), np.isfinite(nu)])
        for k in np.flatnonzero(~ok.all(axis=1))[:1]:
            point = tuple(float(v) for v in p[k])
            messages = [
                *(f"{name} must be a finite number, got {v!r}" for name, v in zip(CONTROL_PARAMS, point)),
                _DEGENERATE,
                *(f"{name} must be positive and finite, got {float(v[k])}" for name, v in positive.items()),
                f"nu must be finite, got {complex(nu[k])}",
            ]
            raise ValidationError(f"{messages[np.argmin(ok[k])]} at (Ex', Ey', lambda, B) = {point}")
    return omega, sigma, l_m, u, nu


def derive_scales(config: PhysicalConfig) -> DerivedScales:
    """Compute (omega, sigma, l_m, u, nu) from a configuration: the one-point case of :func:`_point_scales`."""
    omega, sigma, l_m, u, nu = (a[0] for a in _point_scales(config, [[getattr(config, f) for f in CONTROL_PARAMS]]))
    return DerivedScales(float(omega), int(sigma), float(l_m), float(u), complex(nu), config.hbar)


@dataclass(frozen=True)
class RegimeReport:
    """Outcome of the small-coupling screening.

    mass_correction_ratio is alpha B^2 / M, the relative size of the
    field-induced mass correction; dipole_energy is alpha E'^2 / 2, the
    induced-dipole energy of the uniform field component.
    """

    mass_correction_ratio: float
    dipole_energy: float
    mass_threshold: float
    energy_threshold: float
    verdict: str  # "pass" | "warn"

    @property
    def ok(self) -> bool:
        return self.verdict == "pass"


_MASS_THRESHOLD = 1e-6
_ENERGY_THRESHOLD = 1e-20


def validate_regime(config: PhysicalConfig) -> RegimeReport:
    """Screen the approximation regime of the effective Hamiltonian.

    The effective single-particle picture drops a term quadratic in the fields
    whose size relative to the rest mass is alpha B^2 / M, and treats the
    induced-dipole energy alpha E'^2 / 2 as small. Exceeding either threshold
    produces verdict "warn", never an exception: desk-scale natural-unit
    configurations are legitimate and always warn.
    """
    ratio = config.alpha * config.B**2 / config.mass
    e2 = config.Ex_prime**2 + config.Ey_prime**2
    energy = 0.5 * config.alpha * e2
    verdict = "pass" if (ratio < _MASS_THRESHOLD and energy < _ENERGY_THRESHOLD) else "warn"
    return RegimeReport(
        mass_correction_ratio=ratio,
        dipole_energy=energy,
        mass_threshold=_MASS_THRESHOLD,
        energy_threshold=_ENERGY_THRESHOLD,
        verdict=verdict,
    )
