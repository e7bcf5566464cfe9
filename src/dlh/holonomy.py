"""Geometric phases and holonomies along loops in (Ex', Ey', lambda, B).

A loop is a piecewise-linear :class:`ParameterPath`. Four computations live
here, the first three in increasing generality:

* :func:`abelian_phase` for loops confined to the in-plane field components
  at fixed lambda and B, where the connection is diagonal and the phase is
  curvature times signed area.
* :func:`commuting_holonomy` for loops at Ex' = 0, where every step
  generator is a real multiple of one fixed tridiagonal matrix T
  (T_{m+1,m} = sqrt(m+1)) and the path-ordered product collapses to
  exp(i S T / (4u)) with S the loop functional
  S = closed-integral of |lambda B|^(-1/2) dEy'.
* :func:`holonomy_path_ordered` for arbitrary loops, segment by segment.
  With ``method="auto"``, a segment whose step generators commute (the
  in-plane field keeps one direction through the origin, or lambda and B
  stay fixed) contributes one exact factor, the exponential of its
  Gauss-integrated generator. Every other segment takes the commutator-free
  fourth-order Magnus steps of Blanes & Moan (2006) on the two-point Gauss
  rule. Each call derives the loop's geometry (segment ends and steps, which
  segments are exact, their integrals) once. One ordered product is one
  stack across segments, built, exponentiated and multiplied in chunks of
  bounded size. ``method="magnus"`` sends every segment through these
  steps. A shadow run at half the step count gives an a-posteriori
  convergence estimate, which refinement turns into a step-doubling
  estimate of the returned product's own error. Products are built in
  batches that share their chunks and the call's geometry: the first
  product with its shadow, then the next doublings (at most 3) that the
  fourth-order rate predicts for the target.
* :func:`level_holonomy` for the whole degenerate level around any loop:
  exp(i (Phi + chi)) D(i Z) from three integrals over the Gauss nodes of the
  loop's segments, and its block on a window, which is not the product of
  the window-projected connection that :func:`holonomy_path_ordered` returns.

Every step generator is Theta = phi I + zeta L + conj(zeta) L^T, with L the
lowering pattern L_{m+1,m} = sqrt(m+1) on the m-window. The scalars
(phi, zeta) come from :func:`dlh.connection._generator_scalars`, the one
closed form of the connection contracted with a step. Every exponential here
stays in that span and goes through the one span kernel, :func:`dlh._linalg._span_exp`,
with one eigendecomposition of T = L + L^T per window, computed once; the
level's D(i Z) is the closed form of :mod:`dlh.displaced`, exact on any window.

Paths cover both chiralities sigma = sign(lambda B): lambda and B may take
either sign, but neither may change sign along a segment.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ._linalg import _span_exp, _tree_product, max_abs
from .connection import _check_scales, _generator_scalars, _unpack, abelian_curvature
from .errors import ConvergenceError, ValidationError, _check_count, _check_positive, _check_window, _floats
from .params import CONTROL_PARAMS

__all__ = ["BOX_KINDS", "LOOP_KINDS", "ParameterPath", "rectangle_loop", "box_loop", "signed_area", "AbelianPhases",
           "abelian_phase", "loop_area_integral", "area_closed_form", "commuting_holonomy", "HolonomyResult",
           "DEFAULT_STEPS", "holonomy_path_ordered", "unordered_holonomy", "LevelHolonomy", "level_holonomy"]

# Box itineraries: each vertex indexes (low 0, high 1) into the Ey', lambda
# and B ranges, in that order.
_BOX_ITINERARIES = {
    "ABCHEFA": ("000", "010", "011", "111", "101", "100", "000"),
    "ABCHGFA": ("000", "010", "011", "001", "101", "100", "000"),
    "ADCHEFA": ("000", "100", "110", "111", "101", "001", "000"),
}
BOX_KINDS = tuple(_BOX_ITINERARIES)
_BOX_RANGES = "ey_range, lam_range and b_range must be pairs of numbers"
LOOP_KINDS = ("C1_rectangle", *BOX_KINDS, "custom")

_CLOSURE_ATOL = 1e-12
_MAX_RATIO = 1e4  # largest lambda or B ratio along one path segment
_STEP_CAP = 2 ** 20
# Initial step count of holonomy_path_ordered; refinement doubles it until
# the target is met.
DEFAULT_STEPS = 32
_METHODS = ("auto", "magnus")

# Commutator-free fourth-order step (Blanes & Moan 2006): with A1, A2 the
# step generators at the two Gauss nodes on [0, 1] and a, b = 1/4 +- sqrt(3)/6,
# the step is exp(i (b A1 + a A2)) exp(i (a A1 + b A2)). Rows of _CF4_MIX
# give the later (left) factor, then the earlier one; columns weigh A1, A2.
_GAUSS2_T = 0.5 + np.array([-1.0, 1.0]) * (math.sqrt(3.0) / 6.0)
_CF4_MIX = 0.25 + np.array([[-1.0, 1.0], [1.0, -1.0]]) * (math.sqrt(3.0) / 6.0)

# Complex entries per batched (k, n, n) step stack, so that memory stays
# bounded at any step count.
_CHUNK_ENTRIES = 2 ** 16

# A doubling that fails to halve the estimate marks the rounding floor only
# while the estimate is below a thousand roundings (double epsilon 2^-52)
# per step: coarse steps on a large loop can stall once before the
# fourth-order rate sets in.
_FLOOR_ROUNDINGS = 1e3 * 2.0 ** -52

# Step doubling on fourth-order steps: the product at s steps is about
# 2^4 - 1 = 15 times closer to the limit than |U(s) - U(s/2)|. That ratio is
# taken, with a margin of 2, only once two successive differences fell at
# least 8x (the steps are in their asymptotic regime) and while the
# difference stays above the rounding floor.
_ORDER_RATE = 16.0
_MIN_RATE = 8.0
_MARGIN = 2.0
_BATCH_DOUBLINGS = 3  # most doublings built ahead in one batch


def _ratios(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The larger ratio of |lambda|, and of |B|, between the ends of every segment a -> b."""
    a, b = np.abs(a[:, 2:]), np.abs(b[:, 2:])
    return np.max(np.maximum(a, b) / np.minimum(a, b), axis=1)


def _validate_vertices(vertices) -> np.ndarray:
    """A read-only float copy of `vertices`, or ValidationError."""
    v = _floats(vertices, "vertices must be rows of numbers (Ex', Ey', lambda, B)").copy()
    if v.ndim != 2 or v.shape[1] != 4 or v.shape[0] < 2:
        raise ValidationError(
            f"vertices must be (V, 4) with V >= 2 rows of (Ex', Ey', lambda, B), got shape {v.shape}"
        )
    if not np.all(np.isfinite(v)):
        raise ValidationError("vertices contain non-finite entries")
    signs = np.sign(v[:, 2:])
    if not signs.all() or np.any(signs[1:] != signs[:-1]):
        raise ValidationError("lambda and B must be nonzero at every vertex and keep their signs along every segment")
    v.setflags(write=False)
    return v


@dataclass(frozen=True, eq=False)
class ParameterPath:
    """Closed piecewise-linear loop through (Ex', Ey', lambda, B), checked once, when it is built.

    The path keeps a read-only copy of its vertices; the last must equal the
    first. Segments are straight in all four coordinates, so lambda and B,
    nonzero at the vertices and of one sign along every segment, stay nonzero
    along the whole path; either sign, so either chirality, is allowed. A zero
    lambda or B at a vertex, or a sign change along a segment, is a
    ValidationError. So is a segment whose length overflows, or whose |lambda|
    or |B| ratio exceeds 1e4, the quadrature's cap (3,333 panels), and an open
    vertex list. A path equals only itself and hashes by identity.
    """

    vertices: np.ndarray
    kind: str = "custom"

    def __post_init__(self) -> None:
        object.__setattr__(self, "vertices", _validate_vertices(self.vertices))
        if self.kind not in LOOP_KINDS:
            raise ValidationError(f"kind must be one of {LOOP_KINDS}, got {self.kind!r}")
        a, b = self.vertices[:-1], self.vertices[1:]
        with np.errstate(over="ignore"):
            lengths, ratio = self.segment_lengths, _ratios(a, b)
        if not np.all(np.isfinite(lengths)):
            s = int(np.argmin(np.isfinite(lengths)))
            raise ValidationError(f"segment {s} (vertex {s} to {s + 1}) is too long: its length overflows")
        if np.any(ratio > _MAX_RATIO):
            s = int(np.argmax(ratio))
            raise ValidationError(
                f"lambda or B changes by a ratio of {ratio[s]:.3g} along the segment {tuple(a[s].tolist())} -> "
                f"{tuple(b[s].tolist())}, above the quadrature's cap {_MAX_RATIO:g}"
            )
        scale = max(1.0, float(np.max(np.abs(self.vertices))))
        if np.max(np.abs(self.vertices[0] - self.vertices[-1])) > _CLOSURE_ATOL * scale:
            raise ValidationError("path must be closed (first vertex == last vertex)")

    @functools.cached_property
    def segment_lengths(self) -> np.ndarray:
        """Length of every segment, computed once per path (read-only)."""
        lengths = np.linalg.norm(np.diff(self.vertices, axis=0), axis=1)
        lengths.setflags(write=False)
        return lengths

    def _allocation(self, steps: int) -> np.ndarray:
        """Steps per segment at a nominal count of `steps`: the one split of a loop.

        steps // 2 is split by length, at least one step to every segment of
        nonzero length and none to a zero-length segment, and every share is
        doubled. The counts are even, so halving them gives a run at half the
        steps on every segment at once, however many segments the path has.
        A constant path takes no steps. The split is symmetric under path
        reversal. The holonomy engine takes its steps from it and the Wilson
        oracle its links; both validate `steps` first.
        """
        lengths = self.segment_lengths
        total = float(lengths.sum())
        if total == 0.0:
            return np.zeros(len(lengths), dtype=int)
        half = np.maximum(1, np.rint((steps // 2) * lengths / total)).astype(int)
        return np.where(lengths == 0.0, 0, 2 * half)


def rectangle_loop(axis_a: str, axis_b: str, range_a, range_b, base_point) -> ParameterPath:
    """Axis-aligned rectangle in the (axis_a, axis_b) plane, other axes fixed.

    Traversal order a-up, b-up, a-down, b-down, so the signed area in the
    (axis_a, axis_b) plane is (a2 - a1)(b2 - b1). A rectangle in the
    in-plane field components is tagged C1_rectangle; anything else is
    custom.
    """
    if axis_a not in CONTROL_PARAMS or axis_b not in CONTROL_PARAMS or axis_a == axis_b:
        raise ValidationError(f"axes must be two distinct names from {CONTROL_PARAMS}")
    ia, ib = CONTROL_PARAMS.index(axis_a), CONTROL_PARAMS.index(axis_b)
    (a1, a2), (b1, b2) = _floats((range_a, range_b), "range_a and range_b must be pairs of numbers", (2, 2)).tolist()
    p = _floats(base_point, "base_point must be 4 numbers")
    if p.shape != (4,):
        raise ValidationError(f"base_point must have 4 entries, got shape {p.shape}")
    verts = np.tile(p, (5, 1))
    verts[:, ia] = (a1, a2, a2, a1, a1)
    verts[:, ib] = (b1, b1, b2, b2, b1)
    kind = "C1_rectangle" if {axis_a, axis_b} == {"Ex_prime", "Ey_prime"} else "custom"
    return ParameterPath(verts, kind=kind)


def box_loop(kind: str, ey_range, lam_range, b_range, ex: float = 0.0) -> ParameterPath:
    """One of three loop itineraries through the corners of an (Ey', lambda, B) box.

    Corners combine Ey' in {Ey1, Ey2}, lambda in {lam1, lam2}, B in {B1, B2};
    Ex' is held fixed (0 keeps all step generators real and mutually
    commuting). The itineraries differ in where the two Ey' legs sit:

        ABCHEFA: Ey' up at (lam2, B2), down at (lam1, B1)
        ABCHGFA: Ey' up at (lam1, B2), down at (lam1, B1)
        ADCHEFA: Ey' up at (lam1, B1), down at (lam1, B2)

    so their loop functionals S = closed-integral of |lam B|^(-1/2) dEy' are
    the closed forms in :func:`area_closed_form`.
    """
    if kind not in _BOX_ITINERARIES:
        raise ValidationError(f"kind must be ABCHEFA, ABCHGFA or ADCHEFA, got {kind!r}")
    ranges = _floats((ey_range, lam_range, b_range), _BOX_RANGES, (3, 2)).tolist()
    ex = float(_floats(ex, "ex must be a number", ()))
    verts = np.array([(ex, *(r[int(c)] for r, c in zip(ranges, corner))) for corner in _BOX_ITINERARIES[kind]])
    return ParameterPath(verts, kind=kind)


def signed_area(path: ParameterPath) -> float:
    """Shoelace signed area of a loop in the (Ex', Ey') plane, counterclockwise positive.

    lambda and B must be constant along the path.
    """
    v = path.vertices
    for j in (2, 3):
        if np.ptp(v[:, j]) != 0.0:
            raise ValidationError(f"path is not planar: {CONTROL_PARAMS[j]} varies along it")
    a, b = v[:, 0], v[:, 1]
    return 0.5 * float(np.sum(a[:-1] * b[1:] - a[1:] * b[:-1]))


@dataclass(frozen=True)
class AbelianPhases:
    """Both phase conventions for an in-plane field loop at fixed lambda, B.

    gamma_line_integral is the closed line integral of the diagonal
    connection, equal to curvature * signed_area; gamma_area_law is the
    area-law branch -signed_area w^2/(16 u^2), w = |lambda B|^(-1/2). The two differ by an
    exact factor of -2 (sign and magnitude), which the sign-convention report
    (:func:`dlh.oracle.sign_convention_report`, ``dlh oracle-check``) measures.
    """

    signed_area: float
    curvature: float
    gamma_line_integral: float
    gamma_area_law: float

    @property
    def ratio(self) -> float:
        if self.gamma_area_law == 0.0:
            raise ValidationError("gamma_area_law is 0 (zero signed area, or 16 u^2 |lambda B| overflows): no ratio")
        return self.gamma_line_integral / self.gamma_area_law


def abelian_phase(path: ParameterPath, u: float) -> AbelianPhases:
    """Phases for a closed loop in the (Ex', Ey') plane at fixed lambda, B.

    The line integral sums the step generator's phase phi
    (:func:`dlh.connection._generator_scalars`) over the polygon's segments,
    each evaluated at the segment midpoint; the diagonal connection is
    linear in the field components, so this midpoint rule is exact.
    """
    _check_scales(path.vertices[:, 2:], u)
    area = signed_area(path)
    v = path.vertices
    _, _, lam, b = _unpack(v[0])
    phi, _ = _generator_scalars(v[:-1] + 0.5 * np.diff(v, axis=0), np.diff(v, axis=0), u)
    return AbelianPhases(
        signed_area=area,
        curvature=abelian_curvature(v[0], u),
        gamma_line_integral=float(np.sum(phi)),
        gamma_area_law=-area / abs(16.0 * u * u * lam * b),
    )


def loop_area_integral(path: ParameterPath) -> float:
    """Loop functional S = closed-integral of w dEy', w = |lambda B|^(-1/2).

    Gauss quadrature per segment (:func:`_segment_quadrature`); exact for the
    named box loops, where every segment has either dEy' = 0 or lambda, B
    constant. A node where lambda B underflows to 0 or overflows is a
    ValidationError.
    """
    a, b = path.vertices[:-1], path.vertices[1:]
    seg, pts, w = _segment_quadrature(a, b)
    with np.errstate(over="ignore"):
        lam_b = np.abs(pts[:, 2] * pts[:, 3])
    finite = (lam_b > 0.0) & (lam_b < math.inf)
    if not finite.all():
        k = int(np.argmin(finite))
        what = "overflows" if lam_b[k] else "underflows to 0"
        raise ValidationError(f"lambda B {what} at lambda = {float(pts[k, 2])!r}, B = {float(pts[k, 3])!r}")
    per_segment = np.bincount(seg, w / np.sqrt(lam_b), len(a))
    return float(np.sum((b[:, 1] - a[:, 1]) * per_segment))


def area_closed_form(kind: str, ey_range, lam_range, b_range) -> float:
    """Closed form of the loop functional S for the named box itineraries.

    With w_ij = |lam_i B_j|^(-1/2):

        ABCHEFA: (Ey2 - Ey1)(w_22 - w_11)
        ABCHGFA: (Ey2 - Ey1)(w_12 - w_11)
        ADCHEFA: the negative of ABCHGFA

    All three vanish when Ey1 = Ey2; ABCHEFA also vanishes when
    lam1 B1 = lam2 B2. A lambda or B range that contains 0, as the box's
    segments would cross it, and an S that overflows are ValidationErrors.
    """
    (ey1, ey2), (l1, l2), (b1, b2) = _floats((ey_range, lam_range, b_range), _BOX_RANGES, (3, 2)).tolist()
    if not all(map(math.isfinite, (ey1, ey2, l1, l2, b1, b2))):
        raise ValidationError(f"ranges must be finite, got {ey_range!r}, {lam_range!r}, {b_range!r}")
    if 0.0 in (l1, l2, b1, b2) or (l1 < 0) != (l2 < 0) or (b1 < 0) != (b2 < 0):
        raise ValidationError(f"lambda and B ranges must be nonzero and of one sign, got {lam_range!r}, {b_range!r}")
    products = (abs(l1 * b1), abs(l1 * b2), abs(l2 * b2))
    if min(products) == 0.0 or max(products) == math.inf:
        what = "underflows to 0" if min(products) == 0.0 else "overflows"
        raise ValidationError(f"lambda B {what} at a corner of {lam_range!r} and {b_range!r}")
    if kind not in BOX_KINDS:
        raise ValidationError(f"kind must be ABCHEFA, ABCHGFA or ADCHEFA, got {kind!r}")
    w11, w12, w22 = (1.0 / math.sqrt(p) for p in products)
    area = (ey2 - ey1) * {"ABCHEFA": w22 - w11, "ABCHGFA": w12 - w11, "ADCHEFA": w11 - w12}[kind]
    if not math.isfinite(area):  # the Ey' width, or its product with the w difference, overflows
        raise ValidationError(f"S of {kind} overflows on {ey_range!r}, {lam_range!r} and {b_range!r}")
    return area


def commuting_holonomy(area: float, u: float, window: tuple[int, int]) -> np.ndarray:
    """exp(i (S / 4u) T), the closed-form holonomy of an Ex' = 0 loop: phi = 0, zeta = S / 4u."""
    _check_positive("u", u)
    return _span_exp(0.0, float(area) / (4.0 * u), _check_window(window))[0]


@functools.cache
def _gauss16() -> tuple[np.ndarray, np.ndarray]:
    """16-point Gauss-Legendre nodes and weights on [0, 1], built on first use."""
    t, w = np.polynomial.legendre.leggauss(16)
    t, w = 0.5 * (t + 1.0), 0.5 * w
    t.setflags(write=False)
    w.setflags(write=False)
    return t, w


@functools.cache
def _gauss16_antiderivative() -> np.ndarray:
    """S[k, j] = integral from 0 to the k-th node of :func:`_gauss16` of the j-th Lagrange polynomial on its nodes.

    So S @ f integrates the interpolant of f at the nodes up to every node; built on first use, read-only.
    """
    legendre = np.polynomial.legendre
    x = 2.0 * _gauss16()[0] - 1.0
    lagrange = np.linalg.inv(legendre.legvander(x, 15))  # column j: the Legendre coefficients of the j-th polynomial
    s = 0.5 * legendre.legvander(x, 16) @ legendre.legint(lagrange, lbnd=-1)
    s.setflags(write=False)
    return s


def _runs(lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Run index and offset within its run of every entry of consecutive runs of `lengths`."""
    index = np.repeat(np.arange(len(lengths)), lengths)
    return index, np.arange(len(index)) - np.repeat(np.cumsum(lengths) - lengths, lengths)


def _nodes(a: np.ndarray, b: np.ndarray, counts: np.ndarray, seg: np.ndarray, j: np.ndarray, t) -> np.ndarray:
    """Points a + (j + t) / counts[seg] (b - a), (len(seg), len(t), 4), at the offsets t of piece j.

    (seg, j) are entries of ``_runs(counts)``; a, b the (S, 4) segment ends.
    """
    frac = (j[:, None] + np.asarray(t)) / counts[seg, None]
    return a[seg, None] + frac[:, :, None] * (b - a)[seg, None]


def _segment_quadrature(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Composite 16-point Gauss rule on every segment a -> b of the (S, 4) rows a, b.

    Returns the segment index, point and weight of every node, segment by
    segment. One panel per segment, unless lambda or B changes by more than
    4x along it; then enough equal panels that each stays within a ratio of
    4, which keeps the rule at rounding accuracy for the powers of lambda and
    B it weighs. The segments are those of a :class:`ParameterPath`, which
    caps the ratio at 1e4 (3,333 panels).
    """
    gauss_t, gauss_w = _gauss16()
    panels = np.maximum(1, np.ceil((_ratios(a, b) - 1.0) / 3.0)).astype(int)
    seg, panel = _runs(panels)
    pts = _nodes(a, b, panels, seg, panel, gauss_t).reshape(-1, 4)
    w = (gauss_w / panels[seg, None]).ravel()
    return np.repeat(seg, len(gauss_t)), pts, w


def _segment_integrals(a: np.ndarray, b: np.ndarray, u: float) -> tuple[np.ndarray, np.ndarray]:
    """Integrals (Phi, Z) of the generator scalars phi, zeta along every segment a -> b.

    One Gauss quadrature over the nodes of all (S, 4) rows a, b at once; the
    weighted nodes are summed per segment.
    """
    seg, pts, w = _segment_quadrature(a, b)
    phi, zeta = _generator_scalars(pts, (b - a)[seg], u)
    size = len(a)
    wz = w * zeta
    return np.bincount(seg, w * phi, size), np.bincount(seg, wz.real, size) + 1j * np.bincount(seg, wz.imag, size)


def _commuting_segments(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Whether every step generator on each segment a -> b commutes with every other.

    True when the in-plane field keeps one direction through the origin (zero
    cross product: phi = 0 and zeta keeps a fixed phase) or when lambda and
    B stay fixed (zeta = 0).
    """
    cross = a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]
    return (cross == 0.0) | ((a[:, 2] == b[:, 2]) & (a[:, 3] == b[:, 3]))


def _loop_geometry(path: ParameterPath, u: float, method: str) -> tuple:
    """Segment starts a, steps b - a, the exact mask and (Phi, Z): what every batch of one engine call reads.

    Under "auto" a segment whose step generators commute is exact; (Phi, Z) integrate its generator scalars in
    one vectorised quadrature, and are 0 on every other segment.
    """
    a, b = path.vertices[:-1], path.vertices[1:]
    exact = (method == "auto") & _commuting_segments(a, b)
    phi, zeta = np.zeros(len(a)), np.zeros(len(a), dtype=complex)
    if exact.any():
        phi[exact], zeta[exact] = _segment_integrals(a[exact], b[exact], u)
    return a, b - a, exact, phi, zeta


def _step_factors(geometry: tuple, u: float, window: tuple[int, int], counts_list):
    """Factors of one ordered product per entry of `counts_list`, as (product, (k, n, n) stack) chunks.

    Each entry gives the steps of every segment of the loop whose
    :func:`_loop_geometry` is `geometry`. An exact segment yields its one factor
    exp(i (Phi I + Z L + conj(Z) L^T)); every other segment its count of
    commutator-free fourth-order steps exp(i (b A1 + a A2)) exp(i (a A1 + b A2)),
    with A1, A2 the step generators at the two Gauss nodes of a step and
    a, b = 1/4 +- sqrt(3)/6: both factors lie in the generator span, and the
    step is time-symmetric. Each product's factors are laid out in path order
    and cut into chunks of bounded size, across segment boundaries too. Each
    chunk is a batch, or all products are one batch if they fit in one chunk.
    A batch takes one scalar evaluation, one exponential of its (left, right)
    pairs, an exact factor's right half being I, and one pairwise product; a
    batch of two or more exact factors exponentiates just those.
    """
    a, step, exact, exact_phi, exact_zeta = geometry
    size = window[1] - window[0] + 1
    chunk = max(1, _CHUNK_ENTRIES // (size * size))
    # row p of `counts` is product p; an exact segment is one entry
    counts = np.array(counts_list)
    entries = np.where((counts > 0) & exact, 1, counts)
    seg, offset = _runs(entries.ravel())
    ends = [0, *entries.sum(axis=1).cumsum().tolist()]
    pieces = [(p, lo, min(lo + chunk, hi)) for p, hi in enumerate(ends[1:]) for lo in range(ends[p], hi, chunk)]
    # products that fit in one chunk together share one batch
    for batch in [pieces] if 0 < ends[-1] <= chunk else [[piece] for piece in pieces]:
        lo, hi = batch[0][1], batch[-1][2]
        s, j = seg[lo:hi], offset[lo:hi]
        g, n = s % len(a), counts.ravel()[s, None]  # the segment and the count of every entry
        ex = exact[g]
        if ex.all() and len(s) > 1:
            stack = _span_exp(exact_phi[g], exact_zeta[g], tuple(window))
        else:
            # the two Gauss nodes a + (j + t) / n (b - a) of every step, as _nodes places them
            pts = (a[g, None] + ((j[:, None] + _GAUSS2_T) / n)[:, :, None] * step[g, None]).reshape(-1, 4)
            phi, zeta = _generator_scalars(pts, (step[g] / n).repeat(2, axis=0), u)
            # node scalars (A1, A2) per step -> factor scalars (left, right)
            phi, zeta = (v.reshape(-1, 2) @ _CF4_MIX.T for v in (phi, zeta))
            if ex.any():
                phi[ex], zeta[ex] = 0.0, 0.0
                phi[ex, 0], zeta[ex, 0] = exact_phi[g[ex]], exact_zeta[g[ex]]
            pair = _span_exp(phi.ravel(), zeta.ravel(), tuple(window)).reshape(len(s), 2, size, size)
            stack = pair[:, 0] @ pair[:, 1]
        for p, i0, i1 in batch:
            yield p, stack[i0 - lo : i1 - lo]


def _ordered_products(geometry: tuple, u: float, window, counts_list) -> list:
    """One ordered product per entry of `counts_list`, each with the bits of the product built alone; I if empty."""
    m_lo, m_hi = _check_window(window)
    eye = np.eye(m_hi - m_lo + 1, dtype=complex)
    products = [eye] * len(counts_list)
    for p, factors in _step_factors(geometry, u, window, counts_list):
        tree = _tree_product(factors)
        products[p] = tree if products[p] is eye else tree @ products[p]
    return products


@dataclass(frozen=True)
class HolonomyResult:
    """Path-ordered holonomy on an m-window, with its numerical defects and how it was made.

    steps is the nominal step count of the returned product: half the start count is split over the
    segments by length, at least one step per moving segment, and doubled; each refinement round after
    the first product doubles it. convergence_estimate estimates the returned product's error from
    diff = max |U(steps) - U(steps // 2)|, against a shadow run with exactly half the count on every
    segment; diff is the error of the coarser product. The commutator-free fourth-order steps of Blanes
    & Moan 2006 are about 16x more accurate per halving of the step, so once a round has fallen at least
    8x from the previous diff (rate = previous / diff >= 8) and diff is above the rounding floor of a
    thousand roundings per step, the estimate is 2 diff / (min(rate, 16) - 1), with a margin of 2.
    Otherwise, and always without refinement (target=None, the first product, sweep rows), it is diff
    itself; it is zero when every segment is exact. unitarity_defect is max |U U^dag - I|.
    """

    matrix: np.ndarray
    steps: int
    unitarity_defect: float
    convergence_estimate: float


def _unitarity_defect(matrix: np.ndarray) -> float:
    return max_abs(matrix @ matrix.conj().T, np.eye(matrix.shape[0]))


def _extrapolated_error(previous: float, diff: float, steps: int) -> float:
    """Error estimate of U(steps) from `diff` = |U(steps) - U(steps/2)| and `previous`, a doubling earlier.

    With rate = previous / diff >= 8 and diff above the rounding floor, 2 diff / (min(rate, 16) - 1); else diff.
    """
    if diff < _FLOOR_ROUNDINGS * steps or previous < _MIN_RATE * diff:
        return diff
    return _MARGIN * diff / (min(previous / diff, _ORDER_RATE) - 1.0)


def _doublings(diff: float, target: float, room: int) -> int:
    """Predicted doublings: least r with 2 diff / (15 * 16^r) <= target (3 if either is 0), in 1..3, <= `room`."""
    r = _BATCH_DOUBLINGS
    if diff > 0.0 and target > 0.0:
        r = math.ceil(min(r, math.log(_MARGIN * diff / ((_ORDER_RATE - 1.0) * target), _ORDER_RATE)))
    return max(1, min(r, room))


def holonomy_path_ordered(
    path: ParameterPath,
    u: float,
    window: tuple[int, int] = (0, 3),
    steps: int = DEFAULT_STEPS,
    target: float | None = 1e-7,
    method: str = "auto",
) -> HolonomyResult:
    """Path-ordered product of step exponentials around a closed loop, later steps on the left.

    Under ``method="auto"`` each segment whose step generators commute is one
    exact factor and the other segments take commutator-free fourth-order
    Magnus steps (Blanes & Moan 2006); ``method="magnus"`` takes those steps
    everywhere. The loop's geometry is derived once per call, and each product
    is one stack of factors across all segments, in chunks of bounded size. A
    loop of exact segments takes one quadrature, one exponential and one
    product, with estimate 0. Otherwise the first batch builds the product and
    its shadow run, with exactly half the count on every segment, and
    diff = max |U(steps) - U(steps // 2)|. While convergence_estimate (see
    :class:`HolonomyResult`) exceeds `target`, the count of every segment
    doubles, the previous product becoming the new shadow, up to the step cap
    2^20 (target=None disables refinement). A batch builds the next r
    doublings at once: the fewest at which the estimate would meet the target
    if each diff fell 16x, at most 3 and none past the cap. The rounds are
    walked one product at a time and the products after the one that meets
    the target are discarded, so every result is that of one product per
    round. `steps` must be an integer from 16 to the step cap, else
    ValidationError before any work. ConvergenceError is raised at the cap, or
    at once when a doubling fails to halve a difference that is already within
    a thousand roundings per step: the estimate has then reached its rounding
    floor. Reversing the path returns the adjoint holonomy to rounding
    accuracy, because the discretization mirrors exactly and every factor is
    time-symmetric.
    """
    if target is not None:
        value = float(_floats(target, "target must be a number or None", ()))
        if isinstance(target, bool) or not (math.isfinite(value) and value >= 0.0):
            raise ValidationError(f"target must be a finite number >= 0 or None, got {target!r}")
        target = value
    steps = _check_count("steps", steps, 16)
    if steps > _STEP_CAP:
        raise ValidationError(f"steps must be <= the step cap {_STEP_CAP}, got {steps}")
    _check_scales(path.vertices[:, 2:], u)
    if method not in _METHODS:
        raise ValidationError(f"method must be one of {_METHODS}, got {method!r}")
    counts = path._allocation(steps)  # a constant path takes no steps: its product is I
    geometry = _loop_geometry(path, u, method)
    integrated = not geometry[2].all()  # some segment takes steps, and the shadow run
    current, *shadow = _ordered_products(geometry, u, window, [counts, counts // 2][: 1 + integrated])
    diff = max_abs(current, shadow[0]) if shadow else 0.0
    estimate, batch = diff, []
    while target is not None and estimate > target:
        if 2 * steps > _STEP_CAP:
            raise ConvergenceError(
                f"holonomy estimate {estimate:.3e} above target {target:.3e} at step cap {_STEP_CAP}"
            )
        if not batch:
            ahead = _doublings(diff, target, (_STEP_CAP // steps).bit_length() - 1)
            doublings = [counts * 2**k for k in range(1, ahead + 1)]
            batch = _ordered_products(geometry, u, window, doublings)
        steps, counts = 2 * steps, 2 * counts
        coarse, current = current, batch.pop(0)
        previous, diff = diff, max_abs(current, coarse)
        estimate = _extrapolated_error(previous, diff, steps)
        stalled = diff > 0.5 * previous and diff < _FLOOR_ROUNDINGS * steps
        if estimate > target and stalled:
            raise ConvergenceError(
                f"holonomy estimate stalled at its rounding floor {min(previous, diff):.3e}, "
                f"above target {target:.3e}, at {steps} steps"
            )
    return HolonomyResult(current, steps, _unitarity_defect(current), estimate)


def unordered_holonomy(path: ParameterPath, u: float, window: tuple[int, int] = (0, 3)) -> np.ndarray:
    """exp(i integral of the step generator), ignoring path ordering.

    Built from the same per-segment Gauss integrals as the exact segments,
    so it does not depend on a step count. Coincides with the ordered
    product exactly when all step generators commute (Ex' = 0 loops); the
    gap between the two is the non-commutativity diagnostic.
    """
    _check_scales(path.vertices[:, 2:], u)
    window = _check_window(window)
    phi, zeta = _segment_integrals(path.vertices[:-1], path.vertices[1:], u)
    return _span_exp(phi.sum(), zeta.sum(), window)[0]


@dataclass(frozen=True)
class LevelHolonomy:
    """Holonomy of the whole Landau level around a loop, exp(i (Phi + chi)) D(i Z), and its block on an m-window.

    Phi and Z integrate the generator scalars phi and zeta around the loop; chi is the integral of
    Im(zeta(t) conj(Z(t))), Z(t) the integral of zeta up to t, the phase that path ordering adds on the
    whole level. matrix is the block of exp(i (Phi + chi)) D(i Z) on the window, exact on any window.
    leakage = max |I - matrix^dag matrix| is the weight that the window's states carry out of it; the
    projected product of :func:`holonomy_path_ordered` on the same window misses the block by a gap of the
    same order (0.24 at a leakage of 0.38 on ABCHEFA, window (0, 3)).
    """

    Phi: float
    chi: float
    Z: complex
    matrix: np.ndarray
    leakage: float


def level_holonomy(path: ParameterPath, u: float, window: tuple[int, int] = (0, 3)) -> LevelHolonomy:
    """The holonomy of the whole level from one pass over the nodes of :func:`_segment_quadrature`.

    On the whole level [L, L^T] = -1, so the Magnus series of the ordered exponential of
    phi I + zeta L + conj(zeta) L^T stops after its second term: exp(i (Phi + chi)) exp(i (Z L + conj(Z) L^T)),
    and the second factor is the displacement D(i Z). Z(t) at each node is Z at the start of its panel plus
    the panel's width times the integral of the interpolant of zeta up to the node
    (:func:`_gauss16_antiderivative`), and chi is the Gauss sum of Im(zeta conj(Z(t))) over every node.
    """
    from .displaced import _displacement_block  # here, so `dlh phase` and `dlh sweep` do not load it

    _check_scales(path.vertices[:, 2:], u)
    m_lo, m_hi = _check_window(window)
    a, b = path.vertices[:-1], path.vertices[1:]
    seg, pts, w = _segment_quadrature(a, b)
    phi, zeta = _generator_scalars(pts, (b - a)[seg], u)
    nodes = len(_gauss16()[0])
    w, zeta = w.reshape(-1, nodes), zeta.reshape(-1, nodes)  # one row per panel, in path order
    panel = np.sum(w * zeta, axis=1)
    start = np.cumsum(panel) - panel  # Z at the start of every panel
    z_nodes = start[:, None] + np.sum(w, axis=1)[:, None] * (zeta @ _gauss16_antiderivative().T)
    phi_total, chi, z = float(w.ravel() @ phi), float(np.sum(w * (zeta * z_nodes.conj()).imag)), complex(panel.sum())
    rows = range(m_lo, m_hi + 1)
    matrix = np.exp(1j * (phi_total + chi)) * _displacement_block(1j * z, rows, rows)
    return LevelHolonomy(phi_total, chi, z, matrix, _unitarity_defect(matrix.conj().T))
