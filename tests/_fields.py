"""The grid oracle's per-field spectral route, the independent check of its stacks.

Fields are N x N arrays on a :class:`dlh.oracle.Grid2D`. States are the raising
differential operators, with complex FFT derivatives, applied to the centred
ground Gaussian (:func:`build_state`), and displacement is an FFT translation
times a phase ramp (:func:`displace_field`). :func:`window_states` forms the
fields of one `dlh.oracle` stack, so the tests pin the shifted-coordinate
stack against this route, and C2 reads grid energies from the Hamiltonians
below. The route shares no arithmetic with the stack: its Gaussian, its
wavenumbers and derivatives, its ladders, its translation and its ramp are
computed here. From `dlh.oracle` it takes only the grid, the stack and its
ramp (to form the stack's fields) and the two field guards. Like the oracle,
this module takes nothing from the ladder algebra (`dlh.fock`,
`dlh.displaced`) or the holonomy engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from dlh.errors import ValidationError, _check_count
from dlh.oracle import Grid2D, _check_drift, _check_frame, _ramp, _stack
from dlh.params import DerivedScales, PhysicalConfig, derive_scales

_NORM_TOL = 1e-6


def X(grid: Grid2D) -> np.ndarray:
    return grid.x[:, None]


def Y(grid: Grid2D) -> np.ndarray:
    return grid.x[None, :]


def overlap(grid: Grid2D, f: np.ndarray, g: np.ndarray) -> complex:
    return complex(grid.h * grid.h * np.vdot(f, g))


def norm(grid: Grid2D, f: np.ndarray) -> float:
    return math.sqrt(overlap(grid, f, f).real)


def boundary_max(grid: Grid2D, f: np.ndarray) -> float:
    edges = (f[0, :], f[-1, :], f[:, 0], f[:, -1])
    return float(max(np.max(np.abs(e)) for e in edges))


def k(grid: Grid2D) -> np.ndarray:
    """Wavenumbers of the complex FFT along either axis."""
    return 2.0 * np.pi * np.fft.fftfreq(grid.points, d=grid.h)


def deriv(grid: Grid2D, f: np.ndarray, axis: int) -> np.ndarray:
    """Spectral derivative of f along any one of its axes, by the complex FFT."""
    kk = k(grid).reshape((-1,) + (1,) * (f.ndim - 1 - axis % f.ndim))
    return np.fft.ifft(1j * kk * np.fft.fft(f, axis=axis), axis=axis)


def _ladder(grid: Grid2D, l_m: float, a: int, sign: int, f: np.ndarray) -> np.ndarray:
    """[(X + i a Y) f / (2 l_m) + sign l_m (d/dx + i a d/dy) f] / sqrt(2).

    All four ladder operators have this form (a = +-sigma, sign = +-1).
    """
    position = (X(grid) + 1j * a * Y(grid)) * f / (2.0 * l_m)
    return (position + sign * l_m * (deriv(grid, f, 0) + 1j * a * deriv(grid, f, 1))) / math.sqrt(2.0)


def _translate(grid: Grid2D, f: np.ndarray, ax: float, ay: float) -> np.ndarray:
    """f(x + ax, y + ay) by spectral phase ramp (exact for band-limited f)."""
    return np.fft.ifft2(np.fft.fft2(f) * np.outer(np.exp(1j * k(grid) * ax), np.exp(1j * k(grid) * ay)))


@dataclass(frozen=True)
class WaveField:
    """Normalized complex field with its (n, m, nu, l_m) provenance labels.

    Construction enforces unit quadrature norm and decay below 1e-10 on the
    boundary frame, so any state that outgrows the grid is rejected rather
    than silently wrapped by the periodic derivatives.
    """

    grid: Grid2D
    values: np.ndarray
    n: int
    m: int
    nu: complex
    l_m: float

    def __post_init__(self) -> None:
        if self.values.shape != (self.grid.points, self.grid.points):
            raise ValidationError("field shape does not match its grid")
        if not abs(norm(self.grid, self.values) - 1.0) <= _NORM_TOL:
            raise ValidationError("field is not normalized")
        _check_frame(boundary_max(self.grid, self.values), "field")


def _normalized(grid: Grid2D, f: np.ndarray, context: str) -> np.ndarray:
    """f scaled to unit norm in place, once its norm is within 1e-3 of 1."""
    nrm = norm(grid, f)
    _check_drift(nrm, context)
    f /= nrm
    return f


def ground_state(grid: Grid2D, l_m: float) -> WaveField:
    """Gaussian ground field at unit quadrature norm.

    The norm is fixed numerically (analytically the constant is
    1/(l_m sqrt(2 pi))), which keeps the contract independent of that choice.
    """
    grid.check_adequate(l_m)
    g = np.exp(-(X(grid) ** 2 + Y(grid) ** 2) / (4.0 * l_m * l_m)).astype(complex)
    return WaveField(grid=grid, values=g / norm(grid, g), n=0, m=0, nu=0j, l_m=l_m)


def apply_level_raise(grid: Grid2D, l_m: float, sigma: int, f: np.ndarray) -> np.ndarray:
    """Level-index raising operator (n -> n+1) as a differential operator.

    The overall factor i fixes the phase so that the displacement field
    produced by :func:`displace_field` equals exp(nu A+ - conj(nu) A-) for
    exactly this pair of ladder operators.  Per-level phases i**n drop out
    of every fixed-level observable (connections, overlaps within a level).
    """
    return 1j * _ladder(grid, l_m, -sigma, -1, f)


def apply_level_lower(grid: Grid2D, l_m: float, sigma: int, f: np.ndarray) -> np.ndarray:
    """Adjoint of the level raise; annihilates the ground field."""
    return -1j * _ladder(grid, l_m, sigma, +1, f)


def apply_radial_raise(grid: Grid2D, l_m: float, sigma: int, f: np.ndarray) -> np.ndarray:
    """Radial-index raising operator (m -> m+1) as a differential operator."""
    return _ladder(grid, l_m, sigma, -1, f)


def apply_radial_lower(grid: Grid2D, l_m: float, sigma: int, f: np.ndarray) -> np.ndarray:
    """Adjoint of the radial raise; annihilates the ground field."""
    return _ladder(grid, l_m, -sigma, +1, f)


def build_state(grid: Grid2D, scales: DerivedScales, n: int, m: int) -> WaveField:
    """Undisplaced (n, m) field: raising operators applied to the ground Gaussian."""
    n, m = _check_count("n", n, 0), _check_count("m", m, 0)
    f = ground_state(grid, scales.l_m).values
    for j in range(1, m + 1):
        f = apply_radial_raise(grid, scales.l_m, scales.sigma, f) / math.sqrt(j)
    for j in range(1, n + 1):
        f = apply_level_raise(grid, scales.l_m, scales.sigma, f) / math.sqrt(j)
    f = _normalized(grid, f, f"state (n={n}, m={m})")
    return WaveField(grid=grid, values=f, n=n, m=m, nu=0j, l_m=scales.l_m)


def displace_field(grid: Grid2D, scales: DerivedScales, field: WaveField) -> WaveField:
    """Exact displacement: linear phase times rigid translation.

    The displacement generator is linear in positions and derivatives, so
    it factorizes exactly (the cross commutator is a scalar already absorbed
    here): with s = sigma and l = l_m,

        (D f)(x, y) = exp[i (nu_x x + s nu_y y) / (sqrt(2) l)]
                      * f(x + sqrt(2) l nu_y,  y - sqrt(2) s l nu_x)

    which moves the density centroid by (-sqrt(2) l nu_y, +sqrt(2) s l nu_x).
    This is the spectral route (an FFT translation of a sampled field);
    :func:`window_states` builds the same states in shifted coordinates.
    """
    nu, l = scales.nu, scales.l_m
    if nu == 0:
        return WaveField(grid=grid, values=field.values.copy(), n=field.n, m=field.m, nu=0j, l_m=l)
    r, s = math.sqrt(2.0) * l, scales.sigma
    g = _translate(grid, field.values, r * nu.imag, -r * s * nu.real)
    g *= np.exp(1j * (nu.real * X(grid) + s * nu.imag * Y(grid)) / r)
    g = _normalized(grid, g, f"displaced state (n={field.n}, m={field.m})")
    return WaveField(grid=grid, values=g, n=field.n, m=field.m, nu=nu, l_m=l)


def window_states(
    grid: Grid2D, config: PhysicalConfig, point, n: int, window: tuple[int, int]
) -> list[WaveField]:
    """Displaced fields for every m in the window, formed as U C V^T from its 1-D factors.

    Every state on one grid comes from the same closed-form pipeline
    (shifted ground Gaussian -> raises -> phase ramp), so the family is
    smooth in the control parameters and finite differences of it measure
    the connection in a fixed gauge. Built without a translation FFT: the
    raising operators act in the shifted coordinates on the shifted
    Gaussian (the docstring of `dlh.oracle`).
    """
    st = _stack(grid, config, [point], n, window)
    sc = derive_scales(config.at_point(*point))
    U, V = _ramp(grid, st.rate[0])[:, None] * st.R[0]  # F^T: the one place the factors are formed
    return [WaveField(grid=grid, values=f, n=n, m=window[0] + i, nu=sc.nu, l_m=sc.l_m) for i, f in enumerate(U.T @ st.C[0] @ V)]


def apply_angular_momentum(grid: Grid2D, hbar: float, f: np.ndarray) -> np.ndarray:
    return -1j * hbar * (X(grid) * deriv(grid, f, 1) - Y(grid) * deriv(grid, f, 0))


def apply_base_hamiltonian(grid: Grid2D, scales: DerivedScales, f: np.ndarray) -> np.ndarray:
    """Zero-uniform-field Hamiltonian in kinetic + angular + potential form.

    H = p^2/2M - (sigma |omega|/2) Lz + M omega^2 r^2 / 8, written with
    M = hbar/(|omega| l_m^2) so only derived scales enter. This is
    arithmetic independent of the ladder composition H = hw (a+ a- + 1/2)
    that it is tested against.
    """
    hw = scales.hbar * scales.omega
    l2 = scales.l_m * scales.l_m
    kinetic = np.fft.ifft2(np.fft.fft2(f) * (0.5 * hw * l2 * (k(grid)[:, None] ** 2 + k(grid) ** 2)))
    angular = -0.5 * scales.sigma * scales.omega * apply_angular_momentum(grid, scales.hbar, f)
    potential = (hw / (8.0 * l2)) * (X(grid) ** 2 + Y(grid) ** 2) * f
    return kinetic + angular + potential


def apply_uniform_field_hamiltonian(grid: Grid2D, scales: DerivedScales, f: np.ndarray) -> np.ndarray:
    """Hamiltonian with the uniform field folded in through the nu map.

    H(nu) = H(0) - hw (nu a+ + conj(nu) a-) + hw |nu|^2, realized with the
    grid differential ladders; its eigenfields are the displaced states at
    the unshifted eigenvalues.
    """
    hw = scales.hbar * scales.omega
    nu, s, l = scales.nu, scales.sigma, scales.l_m
    out = apply_base_hamiltonian(grid, scales, f)
    if nu != 0:
        out = out - hw * (
            nu * apply_level_raise(grid, l, s, f) + np.conj(nu) * apply_level_lower(grid, l, s, f)
        )
        out = out + hw * abs(nu) ** 2 * f
    return out
