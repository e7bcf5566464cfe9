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

import cmath
import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from .errors import ValidationError, _is_integer

__all__ = [
    "PhysicalConfig",
    "DerivedScales",
    "RegimeReport",
    "derive_scales",
    "validate_regime",
    "NATURAL_DESK",
]


_REAL_FIELDS = ("mass", "alpha", "hbar", "lambda_density", "B", "Ex_prime", "Ey_prime")


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
        for name in _REAL_FIELDS:
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
                raise ValidationError(f"{name} must be a finite number, got {value!r}")
        if not self.mass > 0:
            raise ValidationError(f"mass must be positive, got {self.mass}")
        if not self.alpha > 0:
            raise ValidationError(f"alpha must be positive, got {self.alpha}")
        if not self.hbar > 0:
            raise ValidationError(f"hbar must be positive, got {self.hbar}")
        if self.lambda_density * self.B == 0:
            raise ValidationError(
                "lambda_density * B must be nonzero: the effective Landau "
                "problem degenerates at zero cyclotron frequency"
            )
        sigma = self.sigma_override
        if sigma is not None and not (_is_integer(sigma) and sigma in (1, -1)):
            raise ValidationError(f"sigma_override must be +1, -1 or None, got {sigma!r}")

    def at_point(self, Ex: float, Ey: float, lam: float, B: float) -> "PhysicalConfig":
        """Same particle, different control-space point (Ex', Ey', lambda, B)."""
        return replace(
            self, Ex_prime=float(Ex), Ey_prime=float(Ey), lambda_density=float(lam), B=float(B)
        )


# Desk-scale reference: natural units with omega = 1, sigma = +1, u = 1/sqrt(8).
NATURAL_DESK = PhysicalConfig(mass=1.0, alpha=1.0, hbar=1.0, lambda_density=1.0, B=1.0)


@dataclass(frozen=True)
class DerivedScales:
    """Derived quantities every other module consumes.

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

    def __post_init__(self):
        # finite inputs can still over- or underflow here, e.g. alpha/M = 1e600
        for name in ("omega", "l_m", "u"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ValidationError(f"{name} must be positive and finite, got {value}")
        if not cmath.isfinite(self.nu):
            raise ValidationError(f"nu must be finite, got {self.nu}")
        if self.sigma not in (1, -1):
            raise ValidationError(f"sigma must be +1 or -1, got {self.sigma}")

    @property
    def energy_quantum(self) -> float:
        """hbar * |omega|, the Landau level spacing."""
        return self.hbar * self.omega


def derive_scales(config: PhysicalConfig) -> DerivedScales:
    """Compute (omega, sigma, l_m, u, nu) from a configuration.

    nu follows the cross-pairing of the in-plane field components:
    nu_x couples to Ey' and nu_y couples to Ex',

        nu = -(alpha l_m / (sqrt(2) hbar)) * (Ey' + i Ex').
    """
    lam_B = config.lambda_density * config.B
    omega = config.alpha * abs(lam_B) / config.mass
    sigma = int(np.sign(lam_B))
    if config.sigma_override is not None:
        sigma = config.sigma_override
    l_m = math.sqrt(config.hbar / (config.mass * omega))
    u = math.sqrt(config.hbar / (8.0 * config.alpha))
    c = config.alpha * l_m / (math.sqrt(2.0) * config.hbar)
    nu = complex(-c * config.Ey_prime, -c * config.Ex_prime)
    return DerivedScales(omega=omega, sigma=sigma, l_m=l_m, u=u, nu=nu, hbar=config.hbar)


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


def validate_regime(
    config: PhysicalConfig,
    mass_threshold: float = 1e-6,
    energy_threshold: float = 1e-20,
) -> RegimeReport:
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
    verdict = "pass" if (ratio < mass_threshold and energy < energy_threshold) else "warn"
    return RegimeReport(
        mass_correction_ratio=ratio,
        dipole_energy=energy,
        mass_threshold=mass_threshold,
        energy_threshold=energy_threshold,
        verdict=verdict,
    )
