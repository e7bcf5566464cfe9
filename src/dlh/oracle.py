"""Coordinate-grid ground truth for the algebraic machinery.

Everything in this module works on explicit wavefunctions sampled on a
square grid, with spectral (FFT) derivatives and plain quadrature overlaps.
No ladder matrices and no closed-form connections enter: states are built by
applying raising differential operators to the analytic ground Gaussian,
displacement is an exact phase-times-translation map, and Berry connections
come from central finite differences of the resulting fields. Agreement
with :mod:`dlh.fock`, :mod:`dlh.displaced` and :mod:`dlh.connection` is
therefore an independent check, and the finite-difference measurements are
what fixes the sign conventions: :func:`sign_convention_report`
(``dlh oracle-check``) measures them.

Displaced windows are built in shifted coordinates from 1-D factors, with
no translation FFT and no N x N field. The translation T of the displacement
commutes with d/dx and d/dy and moves the coordinates, T X T^-1 = X + a_x,
so T R^m B^n G is the raises R^m B^n with X -> X + a_x, Y -> Y + a_y applied
to the shifted Gaussian. Every ladder operator is P (x) I + i a I (x) Q, with
P and Q one 1-D operator c x + e d/dx (:func:`_axis_ladder`) along x and y;
the radial raise has a = sigma, the level raise a = -sigma. The Gaussian and
the phase ramp are outer products too, so the field (n, m) is U C V^T: U
holds P^p g_x and V holds Q^q g_y (p, q <= n + m_hi), each times its 1-D
ramp, and each raise takes the small matrix C to S C + i a C S^T (S the
down-shift) before its 1/sqrt(j) and i factors. :func:`_stack` builds the
windows of K control points as one stack: the scales l_m, sigma, nu as (K,)
arrays, the real powers R (K, 2, n + m_hi + 1, N), built in place with one
real FFT per power and power-major (each P^p g one contiguous row), C once
per (sigma, n, window), and each factor's ramp rate. The ramp has unit
modulus, so it drops out of each point's Gram R R^T and of every |edge|: the
norms and a bound of the 1e-10 frame guard (Cauchy-Schwarz) read R, and only
a stack the bound cannot clear forms exact edges. Between points the ramps
enter only as the relative phase exp(i (rate' - rate) x), so U^H U' is
R diag(cos) R'^T + i R diag(sin) R'^T on one :func:`_ramp`, and the overlaps
h^2 sum conj(C) o (U^H U') C' (V^H V')^T are one batched product over slices
of the stack. Only :func:`window_states` (K = 1) forms F = R times the ramp.
The independent check is :func:`build_state` then :func:`displace_field`.

The oracle operates at desk-scale dimensionless parameters (everything of
order one), never at laboratory magnitudes; the phases being validated are
dimensionless, so convention resolution transfers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from ._linalg import _tree_product, unitarize
from .connection import connection_matrix
from .errors import ValidationError, _check_count, _check_positive, _check_window, _floats
from .holonomy import ParameterPath, _nodes, _runs, rectangle_loop
from .params import CONTROL_PARAMS, DerivedScales, PhysicalConfig, _check_param, _point_scales, derive_scales

__all__ = [
    "OPERATING_CONFIG",
    "Grid2D",
    "WaveField",
    "ground_state",
    "apply_level_raise",
    "apply_level_lower",
    "apply_radial_raise",
    "apply_radial_lower",
    "build_state",
    "displace_field",
    "window_states",
    "apply_angular_momentum",
    "apply_base_hamiltonian",
    "apply_uniform_field_hamiltonian",
    "fd_connection_matrix",
    "WilsonResult",
    "wilson_loop_oracle",
    "sign_convention_report",
    "render_sign_report",
]

# Desk-scale operating point of the sign-convention report and of
# `dlh oracle-check` without --config: u = 0.5, l_m = 1, fields on.
OPERATING_CONFIG = PhysicalConfig(
    mass=1.0, alpha=0.5, hbar=1.0, lambda_density=2.0, B=1.0, Ex_prime=0.3, Ey_prime=0.7
)

_NORM_TOL = 1e-6
_BOUNDARY_TOL = 1e-10
_DRIFT_TOL = 1e-3


@dataclass(frozen=True)
class Grid2D:
    """Square grid on [-extent, extent]^2 with points-per-axis nodes.

    Spacing h = 2 extent / (points - 1); the default, 256 points on
    [-12, 12]^2, is the grid of `dlh oracle-check`. Fields are treated as
    periodic by the spectral derivatives; all states of interest decay far
    below rounding at the boundary, which :class:`WaveField` enforces.
    """

    extent: float = 12.0
    points: int = 256

    def __post_init__(self) -> None:
        _check_count("grid points", self.points, 64)
        _check_positive("grid extent", self.extent)

    @property
    def h(self) -> float:
        return 2.0 * self.extent / (self.points - 1)

    @cached_property
    def x(self) -> np.ndarray:
        return -self.extent + self.h * np.arange(self.points)

    @cached_property
    def k(self) -> np.ndarray:
        return 2.0 * np.pi * np.fft.fftfreq(self.points, d=self.h)

    @cached_property
    def k_half(self) -> np.ndarray:
        """Wavenumbers of the real FFT, an even grid's Nyquist term set to 0: the derivative of real data is real."""
        k = 2.0 * np.pi * np.fft.rfftfreq(self.points, d=self.h)
        k[-1] *= self.points % 2
        return k

    @cached_property
    def X(self) -> np.ndarray:
        return self.x[:, None]

    @cached_property
    def Y(self) -> np.ndarray:
        return self.x[None, :]

    def check_adequate(self, l_m, shift=0.0) -> None:
        """Adequacy rule: extent covers 6 l_m plus the shift, spacing <= l_m/4; at arrays of points, the first failure raises."""
        ok = (self.extent >= 6.0 * l_m + np.abs(shift)) & (self.h <= l_m / 4.0)  # False for a NaN l_m
        if np.all(ok):
            return
        l_m, shift, ok = np.broadcast_arrays(l_m, shift, ok)
        l, d = float(l_m[~ok][0]), float(shift[~ok][0])
        if not 0 < l < math.inf:
            raise ValidationError(f"l_m must be positive and finite, got {l}")
        if not self.extent >= 6.0 * l + abs(d):
            raise ValidationError(f"grid extent {self.extent} too small for l_m={l:.4g} with shift {d:.4g}")
        raise ValidationError(f"grid spacing {self.h:.4g} does not resolve l_m={l:.4g} (need h <= l_m/4)")

    def overlap(self, f: np.ndarray, g: np.ndarray) -> complex:
        return complex(self.h * self.h * np.vdot(f, g))

    def norm(self, f: np.ndarray) -> float:
        return math.sqrt(self.overlap(f, f).real)

    def boundary_max(self, f: np.ndarray) -> float:
        edges = (f[0, :], f[-1, :], f[:, 0], f[:, -1])
        return float(max(np.max(np.abs(e)) for e in edges))


def _deriv(grid: Grid2D, f: np.ndarray, axis: int) -> np.ndarray:
    """Spectral derivative along x (axis -2 of a field), along y (axis -1) or of a 1-D factor (real f: real FFT)."""
    if not np.iscomplexobj(f):
        k = grid.k_half[:, None] if axis == -2 else grid.k_half
        return np.fft.irfft(1j * k * np.fft.rfft(f, axis=axis), grid.points, axis=axis)
    k = grid.k[:, None] if axis == -2 else grid.k
    return np.fft.ifft(1j * k * np.fft.fft(f, axis=axis), axis=axis)


def _axis_ladder(grid: Grid2D, l_m: float, sign: int, coord, f: np.ndarray, axis: int, out=None) -> np.ndarray:
    """[coord f / (2 l_m) + sign l_m df/dcoord] / sqrt(2) along one axis of f, written into `out` when given.

    The 1-D factor of every ladder operator (see :func:`_ladder`); `coord`
    is the coordinate of that axis, possibly shifted, broadcast against f.
    """
    d = _deriv(grid, f, axis)
    d *= sign * l_m
    d += np.multiply(0.5 / l_m * coord, f, out=out)  # `out` holds this term until the sum lands in it
    return np.divide(d, math.sqrt(2.0), out=d if out is None else out)


def _ladder(grid: Grid2D, l_m: float, a: int, sign: int, f: np.ndarray) -> np.ndarray:
    """[(X + i a Y) f / (2 l_m) + sign l_m (d/dx + i a d/dy) f] / sqrt(2).

    All four ladder operators have this form (a = +-sigma, sign = +-1). It is
    P f + i a Q f, with P and Q the 1-D factor acting along x and along y.
    """
    return _axis_ladder(grid, l_m, sign, grid.X, f, -2) + 1j * a * _axis_ladder(grid, l_m, sign, grid.Y, f, -1)


def _translate(grid: Grid2D, f: np.ndarray, ax: float, ay: float) -> np.ndarray:
    """f(x + ax, y + ay) by spectral phase ramp (exact for band-limited f)."""
    return np.fft.ifft2(np.fft.fft2(f) * np.outer(np.exp(1j * grid.k * ax), np.exp(1j * grid.k * ay)))


def _check_frame(edge: float, context: str) -> None:
    if not edge <= _BOUNDARY_TOL:
        raise ValidationError(
            f"{context} reaches the boundary frame at {edge:.3e} (> {_BOUNDARY_TOL}); enlarge the grid"
        )


def _check_drift(nrm: float, context: str) -> None:
    if not abs(nrm - 1.0) <= _DRIFT_TOL:
        raise ValidationError(
            f"norm drifted to {nrm:.6f} while building {context}; grid resolution insufficient"
        )


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
        if not abs(self.grid.norm(self.values) - 1.0) <= _NORM_TOL:
            raise ValidationError("field is not normalized")
        _check_frame(self.grid.boundary_max(self.values), "field")


def _normalized(grid: Grid2D, f: np.ndarray, context: str) -> np.ndarray:
    """f scaled to unit norm in place, once its norm is within 1e-3 of 1."""
    nrm = grid.norm(f)
    _check_drift(nrm, context)
    f /= nrm
    return f


def ground_state(grid: Grid2D, l_m: float) -> WaveField:
    """Gaussian ground field at unit quadrature norm.

    The norm is fixed numerically (analytically the constant is
    1/(l_m sqrt(2 pi))), which keeps the contract independent of that choice.
    """
    grid.check_adequate(l_m)
    g = _gaussian(grid, l_m, 0.0)
    return WaveField(grid=grid, values=np.outer(g, g).astype(complex), n=0, m=0, nu=0j, l_m=l_m)


def _gaussian(grid: Grid2D, l_m, a, out=None) -> np.ndarray:
    """exp(-(x + a)^2 / (4 l_m^2)) at unit 1-D norm: a real factor of the unit-norm 2-D Gaussian.

    l_m and a may be arrays shaped (..., 1), giving one factor per entry; each step writes into `out` if given.
    """
    g = np.add(grid.x, a, out=out)
    np.exp(np.divide(np.square(g, out=g), -4.0 * l_m * l_m, out=g), out=g)
    return np.divide(g, np.sqrt(grid.h * (g[..., None, :] @ g[..., None])[..., 0]), out=g)


def _ramp(grid: Grid2D, rate) -> np.ndarray:
    """exp(i rate x) on the grid, rate shaped (..., 1): x_j = x_16a + h b, so one outer product of 2 short tables."""
    coarse, fine = np.exp(1j * rate * grid.x[::16]), np.exp(1j * rate * grid.h * np.arange(16))
    return (coarse[..., :, None] * fine[..., None, :]).reshape(*coarse.shape[:-1], -1)[..., : grid.points]


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


def _displacement(l_m, s, nu) -> tuple:
    """Translation (a_x, a_y) and phase-ramp rates (k_x, k_y) of the displacement (see displace_field), per point."""
    r, c = math.sqrt(2.0) * l_m, 1.0 / (math.sqrt(2.0) * l_m)
    return r * nu.imag, -r * s * nu.real, c * nu.real, c * s * nu.imag


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
    ax, ay, kx, ky = _displacement(l, scales.sigma, nu)
    g = _translate(grid, field.values, ax, ay)
    g *= np.exp(1j * kx * grid.x)[:, None]
    g *= np.exp(1j * ky * grid.x)
    g = _normalized(grid, g, f"displaced state (n={field.n}, m={field.m})")
    return WaveField(grid=grid, values=g, n=field.n, m=field.m, nu=nu, l_m=l)


@dataclass(frozen=True)
class _Stack:
    """K displaced m-windows from real powers and ramp rates: ramps enter overlaps only as relative phases."""

    grid: Grid2D
    l_m: np.ndarray  # (K,): the scales of each point
    sigma: np.ndarray
    nu: np.ndarray
    R: np.ndarray  # (K, 2, size, N), real: row R[k, a, p] is P^p g (a = 0) or Q^p g (a = 1), U^T and V^T without ramps
    rate: np.ndarray  # (K, 2, 1): the ramp rates along x and y
    C: np.ndarray

    def __getitem__(self, idx) -> _Stack:
        return _Stack(self.grid, *(a[idx] for a in (self.l_m, self.sigma, self.nu, self.R, self.rate, self.C)))


def _overlaps(bras: _Stack, kets: _Stack, gram=None) -> np.ndarray:
    """Overlaps <bras_ki | kets_kj> = h^2 sum conj(C_ki) o (U^H U') C'_kj (V^H V')^T, broadcast over k."""
    if gram is None:  # else the caller's; U^H U' = R diag(cos) R'^T + i R diag(sin) R'^T of the relative ramp
        ramp = _ramp(bras.grid, kets.rate - bras.rate)[..., None, :]
        w = np.multiply(ramp.real, kets.R)  # one real buffer, for the cos and then the sin part
        gram = bras.R @ w.swapaxes(-1, -2) + 1j * (bras.R @ np.multiply(ramp.imag, kets.R, out=w).swapaxes(-1, -2))
    uu, vv = gram[:, 0], gram[:, 1]
    moved = uu[:, None] @ kets.C @ vv[:, None].swapaxes(-1, -2)
    k, m = moved.shape[:2]
    return bras.grid.h ** 2 * (bras.C.conj().reshape(len(bras.C), m, -1) @ moved.reshape(k, m, -1).swapaxes(-1, -2))


@lru_cache(maxsize=16)
def _coefficients(sigma: int, n: int, m_lo: int, m_hi: int) -> np.ndarray:
    """Unnormalized C of the (n, m) fields for m in [m_lo, m_hi], each (n + m_hi + 1) square; cached, read-only."""
    size = n + m_hi + 1
    down = np.eye(size, k=-1)  # S: power p -> p + 1
    coefs = [np.zeros((size, size), dtype=complex)]
    coefs[0][0, 0] = 1.0
    for m in range(1, m_hi + 1):
        coefs.append((down @ coefs[-1] + 1j * sigma * (coefs[-1] @ down.T)) / math.sqrt(m))  # radial raise
    c = np.array(coefs[m_lo:])
    for j in range(1, n + 1):
        c = (1j / math.sqrt(j)) * (down @ c - 1j * sigma * (c @ down.T))  # level raise
    c.setflags(write=False)
    return c


def _frame_edges(R: np.ndarray, ends: list) -> np.ndarray:
    """Exact max |field| on the frame per (point, m): the edge rows `ends` of every field times its other factor."""
    return np.maximum(*(np.abs(e.reshape(len(R), -1, R.shape[-2]) @ R[:, 1 - a]).reshape(*e.shape[:2], -1)
                        .max(axis=-1) for a, e in enumerate(ends)))


def _stack(grid: Grid2D, config: PhysicalConfig, points, n: int, window: tuple[int, int]) -> _Stack:
    """Normalized factors of the displaced window at each point, with every field guard applied to them."""
    m_lo, m_hi = _check_window(window)
    n = _check_count("n", n, 0)
    _, sigma, l_m, _, nu = _point_scales(config, points)
    grid.check_adequate(l_m, shift=math.sqrt(2.0) * l_m * np.abs(nu))
    size, count, l = n + m_hi + 1, len(l_m), l_m[:, None, None]
    shift, rate = np.reshape(_displacement(l_m, sigma, nu), (2, 2, count, 1)).swapaxes(1, 2)
    R = np.empty((count, 2, size, grid.points))  # the real x and y factors of every point
    _gaussian(grid, l, shift, out=R[:, :, 0])
    for p in range(1, size):  # P (or Q) in the shifted coordinate
        _axis_ladder(grid, l, -1, grid.x + shift, R[:, :, p - 1], -1, out=R[:, :, p])
    C = np.where(sigma[:, None, None, None] > 0, _coefficients(1, n, m_lo, m_hi), _coefficients(-1, n, m_lo, m_hi))
    st = _Stack(grid, l_m, sigma, nu, R, rate, C)  # C per chirality
    gram = R @ R.swapaxes(-1, -2)  # U^H U and V^H V per point: the unit-modulus ramps drop out
    norms = np.sqrt(np.diagonal(_overlaps(st, st, gram), axis1=1, axis2=2).real)  # (K, m-count)
    # |edge rows| = |ends[0] V^T|, |edge columns| = |ends[1] U^T|. Cauchy-Schwarz, max_y |V_yq| <= ||V_q||, bounds them:
    ends = [R[:, a][:, None, :, [0, -1]].swapaxes(-1, -2) @ c for a, c in ((0, st.C), (1, st.C.swapaxes(-1, -2)))]
    cols = np.sqrt(np.diagonal(gram, axis1=2, axis2=3))[:, :, None, None]  # ||U_q||, ||V_q||
    frame = np.maximum(*((np.abs(e) * cols[:, 1 - a]).sum(axis=-1).max(axis=-1) for a, e in enumerate(ends))) / norms
    if not np.all(frame <= _BOUNDARY_TOL):  # a bound over 1e-10, or NaN: only then form the exact edges
        frame = _frame_edges(R, ends) / norms
    failed = ~(np.abs(norms - 1.0) <= _DRIFT_TOL) | ~(frame <= _BOUNDARY_TOL)
    for k, i in np.argwhere(failed)[:1]:  # the first in (point, m) order raises, drift before frame
        _check_drift(float(norms[k, i]), f"state (n={n}, m={m_lo + i})")
        _check_frame(float(frame[k, i]), f"state (n={n}, m={m_lo + i})")
    np.divide(st.C, norms[:, :, None, None], out=st.C)
    return st


def window_states(
    grid: Grid2D, config: PhysicalConfig, point, n: int, window: tuple[int, int]
) -> list[WaveField]:
    """Displaced fields for every m in the window, formed as U C V^T from its 1-D factors.

    Every state on one grid comes from the same closed-form pipeline
    (shifted ground Gaussian -> raises -> phase ramp), so the family is
    smooth in the control parameters and finite differences of it measure
    the connection in a fixed gauge. Built without a translation FFT: the
    raising operators act in the shifted coordinates on the shifted
    Gaussian (module docstring).
    """
    st = _stack(grid, config, [point], n, window)
    nu, l = complex(st.nu[0]), float(st.l_m[0])
    U, V = _ramp(grid, st.rate[0])[:, None] * st.R[0]  # F^T: the one place the factors are formed
    return [WaveField(grid=grid, values=f, n=n, m=window[0] + i, nu=nu, l_m=l) for i, f in enumerate(U.T @ st.C[0] @ V)]


def apply_angular_momentum(grid: Grid2D, hbar: float, f: np.ndarray) -> np.ndarray:
    return -1j * hbar * (grid.X * _deriv(grid, f, -1) - grid.Y * _deriv(grid, f, -2))


def apply_base_hamiltonian(grid: Grid2D, scales: DerivedScales, f: np.ndarray) -> np.ndarray:
    """Zero-uniform-field Hamiltonian in kinetic + angular + potential form.

    H = p^2/2M - (sigma |omega|/2) Lz + M omega^2 r^2 / 8, written with
    M = hbar/(|omega| l_m^2) so only derived scales enter. This is
    arithmetic independent of the ladder composition H = hw (a+ a- + 1/2)
    that it is tested against.
    """
    hw = scales.hbar * scales.omega
    l2 = scales.l_m * scales.l_m
    kinetic = np.fft.ifft2(np.fft.fft2(f) * (0.5 * hw * l2 * (grid.k[:, None] ** 2 + grid.k ** 2)))
    angular = -0.5 * scales.sigma * scales.omega * apply_angular_momentum(grid, scales.hbar, f)
    potential = (hw / (8.0 * l2)) * (grid.X ** 2 + grid.Y ** 2) * f
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


def _shifted_point(point, param: str, delta: float) -> np.ndarray:
    p = _floats(point, "a point must be numbers (Ex', Ey', lambda, B)").copy()  # never the caller's array
    if p.shape != (4,):
        raise ValidationError(f"a point must be (Ex', Ey', lambda, B), got {p.size} coordinates")
    p[CONTROL_PARAMS.index(param)] += delta
    return p


def fd_connection_matrix(
    grid: Grid2D,
    config: PhysicalConfig,
    param: str,
    point,
    n: int,
    window: tuple[int, int],
    h_step: float = 1e-3,
) -> np.ndarray:
    """Finite-difference connection matrix over an m-window: 1j (<b|p> - <b|m>) / (2 h_step).

    Entry [row - m_lo, col - m_lo] is i <psi_row | d/dxi | psi_col>. The
    derivative acts on the full pipeline state, so for xi in {lambda, B} it
    includes the basis rescaling through l_m, not just the motion of nu.
    Truncation error is O(h_step^2); halving h_step is the Richardson check
    used in the tests.
    """
    return _fd_matrices(grid, config, (param,), point, n, window, h_step)[0]


def _fd_matrices(grid: Grid2D, config: PhysicalConfig, params, point, n: int, window, h_step) -> np.ndarray:
    """fd connection matrices of several parameters, from one stack [point, +h, -h, +h', -h', ...]."""
    _check_positive("h_step", h_step)
    for param in params:
        _check_param(param)
    pts = [point] + [_shifted_point(point, p, d) for p in params for d in (h_step, -h_step)]
    st = _stack(grid, config, pts, n, window)
    shifted = _overlaps(st[:1], st[1:])  # <point | +h>, <point | -h>, ...
    return 1j * (shifted[0::2] - shifted[1::2]) / (2.0 * h_step)


@dataclass(frozen=True)
class WilsonResult:
    """Discrete overlap-product holonomy and its conditioning diagnostics.

    points is the number of links, ``path._allocation(steps).sum()``, or 0 on
    a constant path, whose holonomy is the identity.
    """

    matrix: np.ndarray
    points: int
    smallest_overlap_singular: float


def wilson_loop_oracle(
    grid: Grid2D,
    config: PhysicalConfig,
    path: ParameterPath,
    n: int = 0,
    window: tuple[int, int] = (0, 1),
    steps: int = 128,
) -> WilsonResult:
    """Holonomy from unitarized products of state-overlap matrices.

    The loop is split as the holonomy engine splits it,
    ``path._allocation(steps)`` links per segment (even counts by length, at
    least two on every segment of nonzero length), and sampled at the start
    of every link. It forms link matrices
    (M_k)_{ij} = <psi_i(xi_k) | psi_j(xi_{k+1})>, multiplies them in path
    order, polar-unitarizes the product, and takes the adjoint so the
    result matches the path-ordered exponential of +i times the connection
    (each link carries e^{-iA dxi}). Entirely independent of the analytic
    connection; the error is second order in the link count, O(1/steps^2)
    (it falls about 4x per doubling), and spectral in the grid.
    """
    steps = _check_count("steps", steps, 8)
    window = _check_window(window)
    counts = path._allocation(steps)
    if not counts.any():
        # constant path: every link is the Gram matrix of one frame, identity
        return WilsonResult(np.eye(window[1] - window[0] + 1, dtype=complex), 0, 1.0)
    pts = _nodes(path.vertices[:-1], path.vertices[1:], counts, *_runs(counts), [0.0]).reshape(-1, 4)
    st = _stack(grid, config, np.concatenate([pts, pts[:1]]), n, window)  # the last link ends on the first point
    links = _overlaps(st[:-1], st[1:])
    smallest = float(np.linalg.svd(links, compute_uv=False)[:, -1].min())
    gamma = unitarize(_tree_product(links[::-1])).conj().T  # the product in path order, the first link leftmost
    return WilsonResult(gamma, len(pts), smallest)


def _c2(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def sign_convention_report(config: PhysicalConfig = OPERATING_CONFIG, grid: Grid2D | None = None) -> dict:
    """Measure the connection sign conventions and curvature on the grid.

    Finite differences (h_step 1e-3) fix the relative sign of the two
    diagonal components and the sign and prefactor of the off-diagonal band.
    All four come from one stack on window (0, 1), the point and its eight
    shifts: the diagonal entries are its (0, 0) entries and the band entries
    its (1, 0) entries, read against the same entries of
    :func:`dlh.connection.connection_matrix` on that window. A small Wilson
    rectangle, the report's only other stack, measures the curvature
    constant, which is compared against the closed form +1/(8 u^2 lambda B)
    and against the area-law coefficient -1/(16 u^2 lambda B) (factor -2:
    magnitude 2 and opposite orientation).
    The rejected sign variants are evaluated on the same measurements so the
    report shows how far off each one is.

    The rectangle's 8 links are exact: at fixed lambda and B its states are
    displaced ground states |nu>, nu linear in (Ex', Ey'), and the overlap
    phases Im(conj(nu) nu') around a straight-edged polygon sum to twice its
    area, however its sides are split; more links move only rounding.
    """
    if grid is None:
        grid = Grid2D()
    u = derive_scales(config).u
    point = (config.Ex_prime, config.Ey_prime, config.lambda_density, config.B)
    ex, ey, lam, b = point

    # one stack on window (0, 1): the diagonal entries (0, 0) of Ex', Ey' and the band entries (1, 0) of lambda, B
    fd = _fd_matrices(grid, config, CONTROL_PARAMS, point, 0, (0, 1), 1e-3)
    fd_ex, fd_ey, fd_lam, fd_b = map(complex, (*fd[:2, 0, 0], *fd[2:, 1, 0]))

    cf = np.array([connection_matrix(param, point, u, 0, (0, 1)).entries for param in CONTROL_PARAMS])
    cf_ex, cf_ey, cf_lam, cf_b = map(complex, (*cf[:2, 0, 0], *cf[2:, 1, 0]))

    side = 0.25
    loop = rectangle_loop(
        "Ex_prime", "Ey_prime", (ex - side / 2, ex + side / 2), (ey - side / 2, ey + side / 2), point
    )
    wilson = wilson_loop_oracle(grid, config, loop, n=0, window=(0, 0), steps=8)
    gamma_measured = float(np.angle(wilson.matrix[0, 0]))
    area = side * side
    measured_curvature = gamma_measured / area
    curvature_closed = 1.0 / (8.0 * u * u * lam * b)
    area_law_coefficient = -1.0 / (16.0 * u * u * lam * b)

    return {
        "operating_point": {"Ex_prime": ex, "Ey_prime": ey, "lambda_density": lam, "B": b, "u": u},
        "diagonal": {
            "fd_Ex": _c2(fd_ex),
            "fd_Ey": _c2(fd_ey),
            "closed_Ex": _c2(cf_ex),
            "closed_Ey": _c2(cf_ey),
            "resolved_relative_sign": "opposite",
            "deviation_resolved": max(abs(fd_ex - cf_ex), abs(fd_ey - cf_ey)),
            "deviation_same_sign_variant": max(abs(fd_ex - cf_ex), abs(fd_ey + cf_ey)),
        },
        "off_diagonal": {
            "fd_lambda_10": _c2(fd_lam),
            "fd_B_10": _c2(fd_b),
            "closed_lambda_10": _c2(cf_lam),
            "closed_B_10": _c2(cf_b),
            "resolved_sign": "+1",
            "deviation_resolved": max(abs(fd_lam - cf_lam), abs(fd_b - cf_b)),
            "deviation_flipped_sign": max(abs(fd_lam + cf_lam), abs(fd_b + cf_b)),
            "prefactor": "1/(8u)",
            "alternate_u_prefactor_ratio": 8.0 * u * u,
            "alternate_prefactor_note": (
                "the u-prefactor variant scales the band by 8u^2; it matches only when hbar = alpha"
            ),
        },
        "curvature": {
            "measured": measured_curvature,
            "closed_form": curvature_closed,
            "deviation": abs(measured_curvature - curvature_closed),
            "area_law_coefficient": area_law_coefficient,
            "measured_over_area_law": measured_curvature / area_law_coefficient,
            "flag": (
                "line-integral curvature is -2x the area-law coefficient: "
                "factor 2 in magnitude and opposite orientation"
            ),
        },
        "wilson_points": wilson.points,
    }


def render_sign_report(report: dict) -> str:
    """Human-readable rendering of :func:`sign_convention_report` output."""
    op = report["operating_point"]
    d = report["diagonal"]
    o = report["off_diagonal"]
    c = report["curvature"]
    lines = [
        "sign convention report",
        "----------------------",
        (
            f"operating point: Ex'={op['Ex_prime']:g} Ey'={op['Ey_prime']:g} "
            f"lambda={op['lambda_density']:g} B={op['B']:g} (u={op['u']:g})"
        ),
        "",
        "diagonal components (in-plane field directions):",
        f"  fd A(Ex') = {d['fd_Ex'][0]:+.6e} {d['fd_Ex'][1]:+.2e}i   closed {d['closed_Ex'][0]:+.6e}",
        f"  fd A(Ey') = {d['fd_Ey'][0]:+.6e} {d['fd_Ey'][1]:+.2e}i   closed {d['closed_Ey'][0]:+.6e}",
        f"  resolved relative sign: {d['resolved_relative_sign']}",
        f"  |fd - resolved| = {d['deviation_resolved']:.3e}   |fd - same-sign variant| = {d['deviation_same_sign_variant']:.3e}",
        "",
        "off-diagonal band (lambda and B directions), element (m=1, m=0):",
        f"  fd A(lambda) = {o['fd_lambda_10'][0]:+.6e} {o['fd_lambda_10'][1]:+.6e}i",
        f"  closed       = {o['closed_lambda_10'][0]:+.6e} {o['closed_lambda_10'][1]:+.6e}i",
        f"  fd A(B)      = {o['fd_B_10'][0]:+.6e} {o['fd_B_10'][1]:+.6e}i",
        f"  closed       = {o['closed_B_10'][0]:+.6e} {o['closed_B_10'][1]:+.6e}i",
        f"  resolved sign {o['resolved_sign']}, prefactor {o['prefactor']}",
        f"  |fd - resolved| = {o['deviation_resolved']:.3e}   |fd + resolved| = {o['deviation_flipped_sign']:.3e}",
        f"  u-prefactor variant ratio 8u^2 = {o['alternate_u_prefactor_ratio']:g} ({o['alternate_prefactor_note']})",
        "",
        "curvature over the in-plane field plane:",
        f"  measured (Wilson rectangle): {c['measured']:+.6e}",
        f"  closed form +1/(8 u^2 lambda B): {c['closed_form']:+.6e}   deviation {c['deviation']:.3e}",
        f"  area-law coefficient -1/(16 u^2 lambda B): {c['area_law_coefficient']:+.6e}",
        f"  measured / area-law = {c['measured_over_area_law']:+.4f}",
        f"  {c['flag']}",
    ]
    return "\n".join(lines)
