"""Coordinate-grid ground truth for the algebraic machinery.

Everything in this module works on explicit wavefunctions sampled on a
square grid, with spectral (FFT) derivatives and plain quadrature overlaps.
No ladder matrices and no closed-form connections enter: states are built by
applying raising differential operators to the analytic ground Gaussian,
displacement is an exact phase-times-translation map, and Berry connections
come from central finite differences of the resulting fields. Agreement
with :mod:`dlh.fock`, :mod:`dlh.displaced` and :mod:`dlh.connection` is
therefore an independent check, and the finite-difference measurements are
what fixes the sign conventions recorded in
:data:`dlh.connection.SIGN_CONVENTION`.

Displaced states are built in shifted coordinates, with no translation FFT.
The translation T of the displacement commutes with d/dx and d/dy and moves
the coordinates, T X T^-1 = X + a_x, so T R^m B^n G = R'^m B'^n G(x + a_x,
y + a_y), where R' and B' are the raising operators with X -> X + a_x and
Y -> Y + a_y. The shifted Gaussian and the phase ramp are products of 1-D
vectors, so the raising operators' spectral derivatives are the only FFTs
left (:func:`window_states`). The spectral route, :func:`build_state`
followed by the FFT translation of :func:`displace_field`, is kept as the
independent check that pins this one.

The oracle operates at desk-scale dimensionless parameters (everything of
order one), never at laboratory magnitudes; the phases being validated are
dimensionless, so convention resolution transfers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._linalg import max_abs, unitarize
from .connection import CONTROL_PARAMS, _check_window, connection_closed_form
from .errors import ValidationError
from .holonomy import ParameterPath, rectangle_loop
from .params import DerivedScales, PhysicalConfig, derive_scales

__all__ = [
    "OPERATING_CONFIG",
    "Grid2D",
    "default_grid",
    "WaveField",
    "ground_state",
    "apply_level_raise",
    "apply_level_lower",
    "apply_radial_raise",
    "apply_radial_lower",
    "build_state",
    "displace_field",
    "pipeline_state",
    "window_states",
    "apply_angular_momentum",
    "apply_base_hamiltonian",
    "apply_uniform_field_hamiltonian",
    "berry_connection_fd",
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

    Spacing h = 2 extent / (points - 1). Fields are treated as periodic by
    the spectral derivatives; all states of interest decay far below
    rounding at the boundary, which :class:`WaveField` enforces.
    """

    extent: float
    points: int

    def __post_init__(self) -> None:
        if self.points < 64:
            raise ValidationError(f"grid needs at least 64 points per axis, got {self.points}")
        if self.extent <= 0:
            raise ValidationError(f"grid extent must be positive, got {self.extent}")

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
    def X(self) -> np.ndarray:
        return self.x[:, None]

    @cached_property
    def Y(self) -> np.ndarray:
        return self.x[None, :]

    @cached_property
    def KX(self) -> np.ndarray:
        return self.k[:, None]

    @cached_property
    def KY(self) -> np.ndarray:
        return self.k[None, :]

    def check_adequate(self, l_m: float, shift: float = 0.0) -> None:
        """Adequacy rule: extent covers 6 l_m plus the shift, spacing <= l_m/4."""
        if self.extent < 6.0 * l_m + abs(shift):
            raise ValidationError(
                f"grid extent {self.extent} too small for l_m={l_m:.4g} with shift {shift:.4g}"
            )
        if self.h > l_m / 4.0:
            raise ValidationError(
                f"grid spacing {self.h:.4g} does not resolve l_m={l_m:.4g} (need h <= l_m/4)"
            )

    def overlap(self, f: np.ndarray, g: np.ndarray) -> complex:
        return complex(self.h * self.h * np.vdot(f, g))

    def norm(self, f: np.ndarray) -> float:
        return math.sqrt(self.overlap(f, f).real)

    def boundary_max(self, f: np.ndarray) -> float:
        edges = (f[0, :], f[-1, :], f[:, 0], f[:, -1])
        return float(max(np.max(np.abs(e)) for e in edges))


def default_grid(extent: float = 12.0, points: int = 256) -> Grid2D:
    return Grid2D(extent=extent, points=points)


def _ddx(grid: Grid2D, f: np.ndarray) -> np.ndarray:
    return np.fft.ifft(1j * grid.KX * np.fft.fft(f, axis=0), axis=0)


def _ddy(grid: Grid2D, f: np.ndarray) -> np.ndarray:
    return np.fft.ifft(1j * grid.KY * np.fft.fft(f, axis=1), axis=1)


def _ladder(grid: Grid2D, l_m: float, a: int, sign: int, f: np.ndarray, X, Y, out=None) -> np.ndarray:
    """[(X + i a Y) f / (2 l_m) + sign l_m (d/dx + i a d/dy) f] / sqrt(2).

    All four ladder operators have this form (a = +-sigma, sign = +-1). The
    coordinates (X, Y) may be shifted, and f may be one field (N, N) or a
    stack (k, N, N): every term acts on the last two axes. Each term is
    added into `out` from one scratch array, since fresh full-size
    temporaries cost more (in page faults) than the arithmetic.
    """
    c, e = 0.5 / (math.sqrt(2.0) * l_m), sign * l_m / math.sqrt(2.0)
    out = np.multiply(f, c * X, out=out)
    buf = np.multiply(f, (1j * a * c) * Y)
    out += buf
    for axis, factor in ((-2, 1j * e * grid.KX), (-1, -a * e * grid.KY)):  # d/dx, i a d/dy
        np.fft.fft(f, axis=axis, out=buf)
        buf *= factor
        np.fft.ifft(buf, axis=axis, out=buf)
        out += buf
    return out


def _translate(grid: Grid2D, f: np.ndarray, ax: float, ay: float) -> np.ndarray:
    """f(x + ax, y + ay) by spectral phase ramp (exact for band-limited f)."""
    return np.fft.ifft2(np.fft.fft2(f) * np.outer(np.exp(1j * grid.k * ax), np.exp(1j * grid.k * ay)))


def _overlaps(grid: Grid2D, bras: np.ndarray, kets: np.ndarray) -> np.ndarray:
    """Matrix of grid overlaps <bras[i] | kets[j]> for two (k, N, N) stacks."""
    return grid.h * grid.h * (bras.conj().reshape(len(bras), -1) @ kets.reshape(len(kets), -1).T)


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
        if abs(self.grid.norm(self.values) - 1.0) > _NORM_TOL:
            raise ValidationError("field is not normalized")
        edge = self.grid.boundary_max(self.values)
        if edge > _BOUNDARY_TOL:
            raise ValidationError(
                f"field reaches the boundary frame at {edge:.3e} (> {_BOUNDARY_TOL}); enlarge the grid"
            )


def _normalized(grid: Grid2D, f: np.ndarray, context: str) -> np.ndarray:
    """f scaled to unit norm in place, once its norm is within 1e-3 of 1."""
    nrm = grid.norm(f)
    if abs(nrm - 1.0) > _DRIFT_TOL:
        raise ValidationError(
            f"norm drifted to {nrm:.6f} while building {context}; grid resolution insufficient"
        )
    f /= nrm
    return f


def ground_state(grid: Grid2D, l_m: float) -> WaveField:
    """Gaussian ground field at unit quadrature norm.

    The norm is fixed numerically (analytically the constant is
    1/(l_m sqrt(2 pi))), which keeps the contract independent of that choice.
    """
    grid.check_adequate(l_m)
    return WaveField(grid=grid, values=_gaussian(grid, l_m, 0.0, 0.0), n=0, m=0, nu=0j, l_m=l_m)


def _gaussian(grid: Grid2D, l_m: float, ax: float, ay: float) -> np.ndarray:
    """exp(-((x + ax)^2 + (y + ay)^2) / (4 l_m^2)) at unit quadrature norm.

    Separable: the outer product of two 1-D factors, each normalized on its
    own, since the 2-D quadrature norm is the product of the 1-D norms.
    """
    gx, gy = (np.exp(-((grid.x + a) ** 2) / (4.0 * l_m * l_m)) for a in (ax, ay))
    gx, gy = (g / math.sqrt(grid.h * float(g @ g)) for g in (gx, gy))
    return np.outer(gx.astype(complex), gy)


def apply_level_raise(grid: Grid2D, l_m: float, sigma: int, f: np.ndarray) -> np.ndarray:
    """Level-index raising operator (n -> n+1) as a differential operator.

    The overall factor i fixes the phase so that the displacement field
    produced by :func:`displace_field` equals exp(nu A+ - conj(nu) A-) for
    exactly this pair of ladder operators.  Per-level phases i**n drop out
    of every fixed-level observable (connections, overlaps within a level).
    """
    return 1j * _ladder(grid, l_m, -sigma, -1, f, grid.X, grid.Y)


def apply_level_lower(grid: Grid2D, l_m: float, sigma: int, f: np.ndarray) -> np.ndarray:
    """Adjoint of the level raise; annihilates the ground field."""
    return -1j * _ladder(grid, l_m, sigma, +1, f, grid.X, grid.Y)


def apply_radial_raise(grid: Grid2D, l_m: float, sigma: int, f: np.ndarray) -> np.ndarray:
    """Radial-index raising operator (m -> m+1) as a differential operator."""
    return _ladder(grid, l_m, sigma, -1, f, grid.X, grid.Y)


def apply_radial_lower(grid: Grid2D, l_m: float, sigma: int, f: np.ndarray) -> np.ndarray:
    """Adjoint of the radial raise; annihilates the ground field."""
    return _ladder(grid, l_m, -sigma, +1, f, grid.X, grid.Y)


def build_state(grid: Grid2D, scales: DerivedScales, n: int, m: int) -> WaveField:
    """Undisplaced (n, m) field: raising operators applied to the ground Gaussian."""
    if n < 0 or m < 0:
        raise ValidationError(f"indices must be >= 0, got (n={n}, m={m})")
    f = ground_state(grid, scales.l_m).values
    for j in range(1, m + 1):
        f = apply_radial_raise(grid, scales.l_m, scales.sigma, f) / math.sqrt(j)
    for j in range(1, n + 1):
        f = apply_level_raise(grid, scales.l_m, scales.sigma, f) / math.sqrt(j)
    f = _normalized(grid, f, f"state (n={n}, m={m})")
    return WaveField(grid=grid, values=f, n=n, m=m, nu=0j, l_m=scales.l_m)


def _shift(scales: DerivedScales) -> tuple[float, float]:
    """Translation (a_x, a_y) of the displacement (see displace_field)."""
    r = math.sqrt(2.0) * scales.l_m
    return r * scales.nu.imag, -r * scales.sigma * scales.nu.real


def _apply_ramp(grid: Grid2D, scales: DerivedScales, f: np.ndarray) -> np.ndarray:
    """Multiply f (one field or a (k, N, N) stack) in place by the separable phase ramp."""
    c = 1.0 / (math.sqrt(2.0) * scales.l_m)
    f *= np.exp(1j * c * scales.nu.real * grid.X)
    f *= np.exp(1j * c * scales.sigma * scales.nu.imag * grid.Y)
    return f


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
    g = _apply_ramp(grid, scales, _translate(grid, field.values, *_shift(scales)))
    g = _normalized(grid, g, f"displaced state (n={field.n}, m={field.m})")
    return WaveField(grid=grid, values=g, n=field.n, m=field.m, nu=nu, l_m=l)


def pipeline_state(grid: Grid2D, config: PhysicalConfig, point, n: int, m: int) -> WaveField:
    """Displaced (n, m) field at a control point: one field of :func:`window_states`.

    Every state on one grid comes from the same closed-form pipeline
    (shifted ground Gaussian -> raises -> phase ramp), so the family is
    smooth in the control parameters and finite differences of it measure
    the connection in a fixed gauge.
    """
    return window_states(grid, config, point, n, (m, m))[0]


def window_states(
    grid: Grid2D, config: PhysicalConfig, point, n: int, window: tuple[int, int]
) -> list[WaveField]:
    """Displaced fields for every m in the window, sharing the raise chain.

    Built without a translation FFT: the raising operators act in the
    shifted coordinates on the shifted Gaussian (module docstring). The
    fields are views into one (k, N, N) stack.
    """
    return _window_stack(grid, config, point, n, window)[1]


def _window_stack(
    grid: Grid2D, config: PhysicalConfig, point, n: int, window: tuple[int, int]
) -> tuple[np.ndarray, list[WaveField]]:
    """(k, N, N) stack of the displaced window fields, and the guarded fields viewing it."""
    m_lo, m_hi = _check_window(window)
    if n < 0:
        raise ValidationError(f"indices must be >= 0, got n={n}")
    ex, ey, lam, b = (float(v) for v in point)
    sc = derive_scales(config.at_point(ex, ey, lam, b))
    l, s = sc.l_m, sc.sigma
    grid.check_adequate(l, shift=math.sqrt(2.0) * l * abs(sc.nu))
    ax, ay = _shift(sc)
    X, Y = grid.X + ax, grid.Y + ay
    stack = np.empty((m_hi - m_lo + 1, grid.points, grid.points), dtype=complex)
    f = _gaussian(grid, l, ax, ay)
    if m_lo == 0:
        stack[0] = f
    for m in range(1, m_hi + 1):
        # radial raise, into the stack once m reaches the window
        f = _ladder(grid, l, s, -1, f, X, Y, out=stack[m - m_lo] if m >= m_lo else None)
        f /= math.sqrt(m)
    for j in range(1, n + 1):
        stack = _ladder(grid, l, -s, -1, stack, X, Y)  # level raise, up to its factor i
        stack *= 1j / math.sqrt(j)
    _apply_ramp(grid, sc, stack)
    fields = []
    for i, m in enumerate(range(m_lo, m_hi + 1)):
        _normalized(grid, stack[i], f"state (n={n}, m={m})")
        fields.append(WaveField(grid=grid, values=stack[i], n=n, m=m, nu=sc.nu, l_m=l))
    return stack, fields


def apply_angular_momentum(grid: Grid2D, hbar: float, f: np.ndarray) -> np.ndarray:
    return -1j * hbar * (grid.X * _ddy(grid, f) - grid.Y * _ddx(grid, f))


def apply_base_hamiltonian(grid: Grid2D, scales: DerivedScales, f: np.ndarray) -> np.ndarray:
    """Zero-uniform-field Hamiltonian in kinetic + angular + potential form.

    H = p^2/2M - (sigma |omega|/2) Lz + M omega^2 r^2 / 8, written with
    M = hbar/(|omega| l_m^2) so only derived scales enter. This is
    arithmetic independent of the ladder composition H = hw (a+ a- + 1/2)
    that it is tested against.
    """
    hw = scales.hbar * scales.omega
    l2 = scales.l_m * scales.l_m
    kinetic = np.fft.ifft2(np.fft.fft2(f) * (0.5 * hw * l2 * (grid.KX ** 2 + grid.KY ** 2)))
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


def _shifted_point(point, param: str, delta: float) -> tuple[float, float, float, float]:
    idx = CONTROL_PARAMS.index(param)
    p = [float(v) for v in point]
    p[idx] += delta
    return tuple(p)


def berry_connection_fd(
    grid: Grid2D,
    config: PhysicalConfig,
    param: str,
    point,
    n: int,
    m_row: int,
    m_col: int,
    h_step: float = 1e-3,
) -> complex:
    """Central-difference connection element i <psi_row | d/dxi | psi_col>.

    The derivative acts on the full pipeline state, so for xi in
    {lambda, B} it includes the basis rescaling through l_m, not just the
    motion of nu. Truncation error is O(h_step^2); halving h_step is the
    Richardson check used in the tests.
    """
    if param not in CONTROL_PARAMS:
        raise ValidationError(f"unknown control parameter {param!r}, expected one of {CONTROL_PARAMS}")
    if h_step <= 0:
        raise ValidationError(f"h_step must be positive, got {h_step}")
    bra = pipeline_state(grid, config, point, n, m_row)
    ket_plus = pipeline_state(grid, config, _shifted_point(point, param, +h_step), n, m_col)
    ket_minus = pipeline_state(grid, config, _shifted_point(point, param, -h_step), n, m_col)
    dket = (ket_plus.values - ket_minus.values) / (2.0 * h_step)
    return 1j * grid.overlap(bra.values, dket)


def fd_connection_matrix(
    grid: Grid2D,
    config: PhysicalConfig,
    param: str,
    point,
    n: int,
    window: tuple[int, int],
    h_step: float = 1e-3,
) -> np.ndarray:
    """Finite-difference connection matrix over an m-window."""
    if param not in CONTROL_PARAMS:
        raise ValidationError(f"unknown control parameter {param!r}, expected one of {CONTROL_PARAMS}")
    if h_step <= 0:
        raise ValidationError(f"h_step must be positive, got {h_step}")
    bras = _window_stack(grid, config, point, n, window)[0]
    dkets = _window_stack(grid, config, _shifted_point(point, param, +h_step), n, window)[0]
    dkets -= _window_stack(grid, config, _shifted_point(point, param, -h_step), n, window)[0]
    dkets /= 2.0 * h_step
    return 1j * _overlaps(grid, bras, dkets)


@dataclass(frozen=True)
class WilsonResult:
    """Discrete overlap-product holonomy and its conditioning diagnostics."""

    matrix: np.ndarray
    points: int
    window: tuple[int, int]
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

    Samples the loop at `steps` points, forms link matrices
    (M_k)_{ij} = <psi_i(xi_k) | psi_j(xi_{k+1})>, multiplies them in path
    order, polar-unitarizes the product, and takes the adjoint so the
    result matches the path-ordered exponential of +i times the connection
    (each link carries e^{-iA dxi}). Entirely independent of the analytic
    connection; convergence is O(1/steps) in the link count and spectral in
    the grid.
    """
    if not path.is_closed:
        raise ValidationError("wilson_loop_oracle needs a closed path")
    if steps < 8:
        raise ValidationError(f"steps must be >= 8, got {steps}")
    m_lo, m_hi = _check_window(window)
    lengths = path.segment_lengths
    total = float(lengths.sum())
    size = m_hi - m_lo + 1
    if total == 0.0:
        # constant path: every link is the Gram matrix of one frame, identity
        return WilsonResult(
            matrix=np.eye(size, dtype=complex),
            points=0,
            window=tuple(window),
            smallest_overlap_singular=1.0,
        )
    pts: list[np.ndarray] = []
    for a, b, ln in zip(path.vertices[:-1], path.vertices[1:], lengths):
        if ln == 0.0:
            continue
        count = max(1, int(round(steps * ln / total)))
        t = np.arange(count) / count
        pts.extend(a + tt * (b - a) for tt in t)
    first = _window_stack(grid, config, pts[0], n, window)[0]
    prev = first
    product = np.eye(size, dtype=complex)
    smallest = np.inf
    for k in range(1, len(pts) + 1):
        cur = _window_stack(grid, config, pts[k], n, window)[0] if k < len(pts) else first
        link = _overlaps(grid, prev, cur)
        smallest = min(smallest, float(np.linalg.svd(link, compute_uv=False)[-1]))
        product = product @ link
        prev = cur
    gamma = unitarize(product).conj().T
    return WilsonResult(
        matrix=gamma,
        points=len(pts),
        window=(int(window[0]), int(window[1])),
        smallest_overlap_singular=smallest,
    )


def _c2(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def sign_convention_report(
    config: PhysicalConfig | None = None,
    grid: Grid2D | None = None,
    h_step: float = 1e-3,
) -> dict:
    """Measure the connection sign conventions and curvature on the grid.

    Finite differences fix the relative sign of the two diagonal components
    and the sign and prefactor of the off-diagonal band; a small Wilson
    rectangle measures the curvature constant, which is compared against
    the closed form +1/(8 u^2 lambda B) and against the area-law
    coefficient -1/(16 u^2 lambda B) (factor -2: magnitude 2 and opposite
    orientation). The rejected sign variants are evaluated on the same
    measurements so the report shows how far off each one is.
    """
    if config is None:
        config = OPERATING_CONFIG
    if grid is None:
        grid = default_grid()
    sc = derive_scales(config)
    u = sc.u
    point = (config.Ex_prime, config.Ey_prime, config.lambda_density, config.B)
    ex, ey, lam, b = point

    fd_ex = berry_connection_fd(grid, config, "Ex_prime", point, 0, 0, 0, h_step)
    fd_ey = berry_connection_fd(grid, config, "Ey_prime", point, 0, 0, 0, h_step)
    fd_lam = berry_connection_fd(grid, config, "lambda_density", point, 0, 1, 0, h_step)
    fd_b = berry_connection_fd(grid, config, "B", point, 0, 1, 0, h_step)

    cf_ex = connection_closed_form("Ex_prime", point, u, 0, 0, 0)
    cf_ey = connection_closed_form("Ey_prime", point, u, 0, 0, 0)
    cf_lam = connection_closed_form("lambda_density", point, u, 0, 1, 0)
    cf_b = connection_closed_form("B", point, u, 0, 1, 0)

    side = 0.25
    loop = rectangle_loop(
        "Ex_prime", "Ey_prime", (ex - side / 2, ex + side / 2), (ey - side / 2, ey + side / 2), point
    )
    wilson = wilson_loop_oracle(grid, config, loop, n=0, window=(0, 0), steps=32)
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
