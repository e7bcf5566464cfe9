import functools
import math
import subprocess
import sys
import time

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import dlh.holonomy as hol
from dlh import connection
from dlh._linalg import _ladder, _span_basis, _span_exp, _span_table
from dlh.connection import _generator_scalars, _generators
from dlh.errors import ConvergenceError, ValidationError
from dlh.holonomy import (
    AbelianPhases,
    ParameterPath,
    abelian_phase,
    area_closed_form,
    box_loop,
    commuting_holonomy,
    holonomy_path_ordered,
    loop_area_integral,
    rectangle_loop,
    signed_area,
    unordered_holonomy,
)

EY, LAM, BB = (0.0, 1.0), (1.0, 4.0), (1.0, 4.0)

# the generic loop of acceptance check C9: Ex' engaged, so the field rotates
# on every segment but the first
C9_LOOP = ParameterPath(
    np.array(
        [
            [0.0, 0.0, 1.0, 1.0],
            [0.6, 0.2, 1.0, 1.0],
            [0.6, 0.9, 2.0, 1.0],
            [0.2, 0.9, 2.0, 2.0],
            [0.0, 0.0, 1.0, 1.0],
        ]
    )
)


def _random_loop(rng):
    corners = np.column_stack([rng.uniform(-0.8, 0.8, (4, 2)), rng.uniform(1.0, 4.0, (4, 2))])
    return ParameterPath(np.vstack([corners, corners[:1]]))


def _commuting_loop(rng, legs=3):
    """Random loop whose every segment commutes internally, but not with the others.

    Legs alternate between moving the field at fixed (lambda, B) and moving
    (lambda, B) at fixed field.
    """
    start = np.concatenate([rng.uniform(-0.8, 0.8, 2), rng.uniform(1.0, 4.0, 2)])
    verts = [start]
    for k in range(legs):
        field = verts[-1].copy()
        field[:2] = start[:2] if k == legs - 1 else rng.uniform(-0.8, 0.8, 2)
        control = field.copy()
        control[2:] = start[2:] if k == legs - 1 else rng.uniform(1.0, 4.0, 2)
        verts += [field, control]
    return ParameterPath(np.array(verts))


def test_path_validation():
    with pytest.raises(ValidationError):
        ParameterPath(np.zeros((1, 4)))  # too few vertices
    with pytest.raises(ValidationError):
        ParameterPath(np.zeros((3, 3)))  # wrong width
    # lambda, B > 0 only: the sigma = -1 branch is rejected at the vertices
    with pytest.raises(ValidationError, match="positive"):
        ParameterPath(np.array([[0, 0, 1, 1], [0, 0, -1, 1]], dtype=float))
    with pytest.raises(ValidationError, match="positive"):
        ParameterPath(np.array([[0, 0, 1, 1], [0, 0, 1, -1]], dtype=float))
    with pytest.raises(ValidationError, match="kind"):
        ParameterPath(np.array([[0, 0, 1, 1], [0, 0, 2, 1], [0, 0, 1, 1]]), kind="XYZ")
    # closure is checked once, when the path is built
    with pytest.raises(ValidationError, match=r"path must be closed \(first vertex == last vertex\)"):
        ParameterPath(np.array([[0, 0, 1, 1], [0, 1, 1, 1]], dtype=float))


def test_path_keeps_a_read_only_copy_of_its_vertices():
    v = np.array([[0, 0, 1, 1], [0, 1, 1, 1], [0, 1, 2, 1], [0, 0, 1, 1]], dtype=float)
    path = ParameterPath(v)
    v[1, 2] = -5.0
    assert path.vertices[1, 2] == 1.0 and not np.shares_memory(path.vertices, v)
    assert not path.vertices.flags.writeable and not path.segment_lengths.flags.writeable
    assert path.segment_lengths is path.segment_lengths  # computed once per path


def test_rectangle_vertices_and_area():
    loop = rectangle_loop("Ex_prime", "Ey_prime", (0.0, 0.5), (1.0, 3.0), (0, 0, 2.0, 1.0))
    assert loop.kind == "C1_rectangle"
    want = np.array(
        [
            [0.0, 1.0, 2.0, 1.0],
            [0.5, 1.0, 2.0, 1.0],
            [0.5, 3.0, 2.0, 1.0],
            [0.0, 3.0, 2.0, 1.0],
            [0.0, 1.0, 2.0, 1.0],
        ]
    )
    assert np.array_equal(loop.vertices, want)
    assert signed_area(loop) == pytest.approx(0.5 * 2.0)
    assert signed_area(loop.reversed()) == pytest.approx(-1.0)
    # rectangles off the field plane are plain custom paths
    other = rectangle_loop("lambda_density", "B", (1, 2), (1, 2), (0, 0, 1, 1))
    assert other.kind == "custom"
    with pytest.raises(ValidationError):
        rectangle_loop("Ex_prime", "Ex_prime", (0, 1), (0, 1), (0, 0, 1, 1))


def test_box_loop_itineraries():
    a = box_loop("ABCHEFA", EY, LAM, BB).vertices
    want_a = np.array(
        [
            [0, 0, 1, 1], [0, 0, 4, 1], [0, 0, 4, 4], [0, 1, 4, 4],
            [0, 1, 1, 4], [0, 1, 1, 1], [0, 0, 1, 1],
        ],
        dtype=float,
    )
    assert np.array_equal(a, want_a)
    g = box_loop("ABCHGFA", EY, LAM, BB).vertices
    want_g = np.array(
        [
            [0, 0, 1, 1], [0, 0, 4, 1], [0, 0, 4, 4], [0, 0, 1, 4],
            [0, 1, 1, 4], [0, 1, 1, 1], [0, 0, 1, 1],
        ],
        dtype=float,
    )
    assert np.array_equal(g, want_g)
    d = box_loop("ADCHEFA", EY, LAM, BB).vertices
    want_d = np.array(
        [
            [0, 0, 1, 1], [0, 1, 1, 1], [0, 1, 4, 1], [0, 1, 4, 4],
            [0, 1, 1, 4], [0, 0, 1, 4], [0, 0, 1, 1],
        ],
        dtype=float,
    )
    assert np.array_equal(d, want_d)
    for k in ("ABCHEFA", "ABCHGFA", "ADCHEFA"):
        v = box_loop(k, EY, LAM, BB).vertices
        assert np.array_equal(v[0], v[-1])
    with pytest.raises(ValidationError):
        box_loop("AAAAAAA", EY, LAM, BB)


def test_allocation_mirrors_under_reversal():
    for loop in (box_loop("ABCHEFA", EY, LAM, BB), C9_LOOP):
        assert np.array_equal(loop.reversed()._allocation(97), loop._allocation(97)[::-1])


def test_nodes_tile_every_segment():
    # offset 1 of each piece is offset 0 of the next; the ends are the vertices
    a, b = C9_LOOP.vertices[:-1], C9_LOOP.vertices[1:]
    counts = C9_LOOP._allocation(40)
    seg, j = hol._runs(counts)
    ends = hol._nodes(a, b, counts, seg, j, [0.0, 1.0])
    last = np.cumsum(counts) - 1
    assert np.allclose(ends[1:, 0], ends[:-1, 1], rtol=0, atol=1e-15)
    assert np.array_equal(ends[last - counts + 1, 0], a) and np.allclose(ends[last, 1], b, rtol=0, atol=1e-15)


def test_loop_functional_closed_forms():
    for kind in ("ABCHEFA", "ABCHGFA", "ADCHEFA"):
        assert abs(loop_area_integral(box_loop(kind, EY, LAM, BB)) - area_closed_form(kind, EY, LAM, BB)) < 1e-12
    assert area_closed_form("ABCHEFA", EY, LAM, BB) == pytest.approx(-0.75)
    assert area_closed_form("ABCHGFA", EY, LAM, BB) == pytest.approx(-0.5)
    assert area_closed_form("ADCHEFA", EY, LAM, BB) == pytest.approx(0.5)
    # degenerate Ey range kills all three functionals exactly
    for kind in ("ABCHEFA", "ABCHGFA", "ADCHEFA"):
        assert area_closed_form(kind, (1.0, 1.0), LAM, BB) == 0.0
        assert loop_area_integral(box_loop(kind, (1.0, 1.0), LAM, BB)) == 0.0
    # ABCHEFA also degenerates when lam1 B1 = lam2 B2
    assert area_closed_form("ABCHEFA", EY, (1.0, 2.0), (2.0, 1.0)) == pytest.approx(0.0)


@pytest.mark.parametrize(
    "lam_range, b_range, what",
    [((1e-200, 2e-200), (1e-200, 2e-200), "underflows to 0"), ((1e150, 2e150), (1e160, 2e160), "overflows")],
    ids=["underflow", "overflow"],
)
def test_area_closed_form_refuses_a_corner_where_lambda_b_is_not_finite(lam_range, b_range, what):
    # 1 / sqrt(inf) is 0, so an unchecked overflow would give S = 0.0; S is about -2.9e-156 there
    with pytest.raises(ValidationError, match=f"lambda B {what} at a corner of"):
        area_closed_form("ABCHGFA", (0, 1), lam_range, b_range)


def test_abelian_phase_relations():
    loop = rectangle_loop("Ex_prime", "Ey_prime", (0.0, 1.0), (0.0, 1.0), (0, 0, 2.0, 1.0))
    ph = abelian_phase(loop, u=0.5)
    assert isinstance(ph, AbelianPhases)
    assert ph.signed_area == pytest.approx(1.0)
    assert ph.gamma_area_law == pytest.approx(-0.125)
    assert ph.gamma_line_integral == pytest.approx(ph.curvature * ph.signed_area, abs=1e-15)
    assert ph.ratio == pytest.approx(-2.0)


def test_scalar_window_holonomy_is_line_integral_phase():
    loop = rectangle_loop("Ex_prime", "Ey_prime", (0.0, 1.0), (0.0, 1.0), (0, 0, 2.0, 1.0))
    ph = abelian_phase(loop, u=0.5)
    res = holonomy_path_ordered(loop, 0.5, window=(0, 0), steps=64, target=None)
    assert np.angle(res.matrix[0, 0]) == pytest.approx(ph.gamma_line_integral, abs=1e-12)


def test_commuting_holonomy_matches_scipy_expm():
    # exp(i (S / 4u) T) with T = L + L^T, L_{m+1,m} = sqrt(m+1), built here from the band
    for area, window in ((-0.75, (0, 2)), (2.3, (1, 6)), (0.4, (0, 70))):
        band = np.diag(np.sqrt(np.arange(window[0], window[1]) + 1.0), -1)
        want = scipy.linalg.expm(1j * (area / (4.0 * 0.5)) * (band + band.T))
        assert np.abs(commuting_holonomy(area, 0.5, window) - want).max() <= 1e-13


def test_commuting_holonomy_checks_before_building_a_basis():
    before = _span_basis.cache_info().currsize
    for u, window in ((0.0, (0, 3)), (-1.0, (0, 3)), (0.5, (3, 1)), (0.5, (-1, 2))):
        with pytest.raises(ValidationError):
            commuting_holonomy(1.0, u, window)
    assert _span_basis.cache_info().currsize == before


def test_box_holonomy_matches_commuting_closed_form():
    u = 1.0 / math.sqrt(8.0)
    loop = box_loop("ABCHGFA", EY, LAM, BB)
    s = area_closed_form("ABCHGFA", EY, LAM, BB)
    res = holonomy_path_ordered(loop, u, window=(0, 2), steps=4096, target=None)
    want = commuting_holonomy(s, u, (0, 2))
    assert np.abs(res.matrix - want).max() < 1e-6
    assert res.unitarity_defect < 1e-12


def test_reversal_gives_adjoint():
    u = 0.5
    loop = box_loop("ABCHEFA", EY, LAM, BB)
    fwd = holonomy_path_ordered(loop, u, window=(0, 2), steps=256, target=None)
    bwd = holonomy_path_ordered(loop.reversed(), u, window=(0, 2), steps=256, target=None)
    assert np.abs(bwd.matrix - fwd.matrix.conj().T).max() < 1e-12


# random closed polygons in (Ex', Ey', lambda, B); the properties below hold
# for any fixed step count, so refinement is off
_vertex = st.tuples(
    st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.floats(1.0, 4.0), st.floats(1.0, 4.0)
)
_polygon = st.lists(_vertex, min_size=3, max_size=5).map(lambda vs: np.array(vs + vs[:1]))
_PROPERTY = settings(derandomize=True, deadline=None, max_examples=25, database=None)


def _holonomy(path):
    return holonomy_path_ordered(path, 0.5, window=(0, 3), steps=64, target=None).matrix


def _spectrum_gap(A, B):
    # eigenvalues of two unitaries, each sorted by angle; the best cyclic
    # alignment absorbs a pair that straddles the branch cut at -1
    a, b = (w[np.argsort(np.angle(w))] for w in map(np.linalg.eigvals, (A, B)))
    return min(np.abs(a - np.roll(b, k)).max() for k in range(len(b)))


@_PROPERTY
@given(_polygon)
def test_property_reversal_gives_adjoint_and_unitary(vertices):
    path = ParameterPath(vertices)
    fwd, bwd = _holonomy(path), _holonomy(path.reversed())
    eye = np.eye(4)
    assert np.abs(fwd.conj().T @ fwd - eye).max() <= 1e-10
    assert np.abs(bwd.conj().T @ bwd - eye).max() <= 1e-10
    assert np.abs(bwd - fwd.conj().T).max() <= 1e-10


@_PROPERTY
@given(_polygon, st.integers(0, 3))
def test_property_start_vertex_shift_keeps_spectrum(vertices, shift):
    # moving the base point conjugates the holonomy: same eigenvalues
    k = 1 + shift % (len(vertices) - 2)
    shifted = np.vstack([vertices[k:-1], vertices[: k + 1]])
    assert _spectrum_gap(_holonomy(ParameterPath(vertices)), _holonomy(ParameterPath(shifted))) <= 1e-10


def test_auto_refinement_and_cap(monkeypatch):
    # box loops are exact under "auto"; refinement needs a rotating loop
    res = holonomy_path_ordered(C9_LOOP, 0.5, window=(0, 1), steps=16, target=1e-8)
    assert res.steps > 16
    assert res.convergence_estimate <= 1e-8
    monkeypatch.setattr(hol, "_STEP_CAP", 64)
    with pytest.raises(ConvergenceError, match="step cap"):
        holonomy_path_ordered(C9_LOOP, 0.5, window=(0, 1), steps=16, target=1e-12)
    with pytest.raises(ValidationError):
        holonomy_path_ordered(C9_LOOP, 0.5, steps=8)
    with pytest.raises(ValidationError):
        holonomy_path_ordered(C9_LOOP, 0.5, method="midpoint")


@pytest.mark.parametrize("target", [-1e-8, float("nan"), float("inf"), -float("inf"), "tight", True, False])
def test_bad_target_rejected(target):
    with pytest.raises(ValidationError, match="target"):
        holonomy_path_ordered(C9_LOOP, 0.5, target=target)


def test_rounding_floor_fails_fast():
    t0 = time.perf_counter()
    with pytest.raises(ConvergenceError, match="rounding floor") as exc:
        holonomy_path_ordered(C9_LOOP, 0.5, window=(0, 3), target=1e-15)
    assert time.perf_counter() - t0 < 1.0
    floor = float(str(exc.value).split("rounding floor ")[1].split(",")[0])
    assert 1e-15 < floor < 1e-11


# at 16 -> 32 steps this loop's estimate falls only 1.9x (2.2e-5 to 1.1e-5),
# then 36x
_STALL_CORNERS = np.array([[-0.15, 0.02, 2.45, 1.34], [-0.12, 0.23, 4.57, 4.44], [0.24, 0.4, 0.81, 1.21]])
COARSE_STALL_LOOP = ParameterPath(np.vstack([_STALL_CORNERS, _STALL_CORNERS[:1]]))


def test_coarse_stall_is_not_the_rounding_floor():
    # refinement must go on past the first doubling
    loop = COARSE_STALL_LOOP
    res = holonomy_path_ordered(loop, 0.5, steps=16, target=1e-9)
    assert res.steps > 32 and res.convergence_estimate <= 1e-9


def test_box_loops_are_exact_and_step_free():
    loop = box_loop("ABCHEFA", EY, LAM, BB)
    want = commuting_holonomy(area_closed_form("ABCHEFA", EY, LAM, BB), 0.5, (0, 3))
    coarse = holonomy_path_ordered(loop, 0.5, steps=16, target=1e-14)
    fine = holonomy_path_ordered(loop, 0.5, steps=4096, target=None)
    assert coarse.steps == 16 and coarse.convergence_estimate == 0.0
    assert np.array_equal(coarse.matrix, fine.matrix)
    assert np.abs(coarse.matrix - want).max() < 1e-13


def test_exact_segments_match_magnus_on_commuting_segments(rng):
    u = 0.5
    loops = [_commuting_loop(rng) for _ in range(3)]
    # Ex' = 0 loops with every coordinate moving at once
    for _ in range(2):
        loop = _random_loop(rng)
        verts = loop.vertices.copy()
        verts[:, 0] = 0.0
        loops.append(ParameterPath(verts))
    for loop in loops:
        exact = holonomy_path_ordered(loop, u, window=(0, 3), target=None)
        magnus = holonomy_path_ordered(loop, u, window=(0, 3), target=1e-11, method="magnus")
        assert exact.convergence_estimate == 0.0
        assert np.abs(exact.matrix - magnus.matrix).max() <= 1e-10


def test_segment_integrals_at_rounding_accuracy():
    from scipy.integrate import quad

    # lambda and B sweep a 200x and 7x range: the Gauss rule needs panels
    a, b, u = np.array([0.3, 0.2, 0.05, 1.0]), np.array([-0.1, 0.7, 10.0, 7.0]), 0.5
    (phi,), (zeta,) = hol._segment_integrals(a[None], b[None], u)

    def density(s, part):
        p, z = _generator_scalars((a + s * (b - a))[None], (b - a)[None], u)
        return (p[0], z[0].real, z[0].imag)[part]

    want = [quad(density, 0.0, 1.0, args=(k,), epsabs=1e-15, limit=200)[0] for k in range(3)]
    assert max(abs(phi - want[0]), abs(zeta.real - want[1]), abs(zeta.imag - want[2])) < 1e-12


def test_tree_product_matches_sequential_product(rng):
    loop = _random_loop(rng)
    for steps in (37, 256):
        chunks = hol._step_factors(loop, 0.5, (1, 4), [loop._allocation(steps)], "magnus")
        factors = np.concatenate([f for _, f in chunks])
        seq = np.eye(4, dtype=complex)
        for f in factors:
            seq = f @ seq
        assert np.abs(hol._tree_product(factors) - seq).max() <= 1e-13


def test_chunked_stacks_match_one_stack(rng, monkeypatch):
    loop = _random_loop(rng)
    whole = holonomy_path_ordered(loop, 0.5, window=(0, 3), steps=200, target=None)
    monkeypatch.setattr(hol, "_CHUNK_ENTRIES", 16 * 7)  # 7 steps per chunk
    chunked = holonomy_path_ordered(loop, 0.5, window=(0, 3), steps=200, target=None)
    assert np.abs(whole.matrix - chunked.matrix).max() <= 1e-13


def test_constant_path_is_identity():
    const = ParameterPath(np.array([[0.2, 0.1, 1.0, 1.0]] * 3))
    res = holonomy_path_ordered(const, 0.5, window=(0, 2), steps=64)
    assert np.array_equal(res.matrix, np.eye(3, dtype=complex))
    assert res.unitarity_defect == 0.0 and res.convergence_estimate == 0.0
    assert np.array_equal(unordered_holonomy(const, 0.5, (0, 2)), np.eye(3, dtype=complex))


def _defect(loop, window, steps):
    """max |ordered - unordered|, the ordered product unrefined at `steps`, and its unitarity defect."""
    ordered = holonomy_path_ordered(loop, 0.5, window=window, steps=steps, target=None)
    return np.abs(ordered.matrix - unordered_holonomy(loop, 0.5, window)).max(), ordered.unitarity_defect


def test_unordered_holonomy_is_step_free():
    # Ex' = 0 projection of the C9 loop: the generators commute, so the
    # unordered exponential is the exact holonomy
    verts = C9_LOOP.vertices.copy()
    verts[:, 0] = 0.0
    flat = ParameterPath(verts)
    want = commuting_holonomy(loop_area_integral(flat), 0.5, (0, 3))
    assert np.abs(unordered_holonomy(flat, 0.5, (0, 3)) - want).max() < 1e-13
    assert _defect(flat, (0, 3), 16)[0] < 1e-13


def _magnus(loop, window, steps):
    """The unrefined product of the Magnus steps alone on every segment."""
    return holonomy_path_ordered(loop, 0.5, window=window, steps=steps, target=None, method="magnus")


def _magnus_estimates(loop, window, steps_list):
    return [_magnus(loop, window, s).convergence_estimate for s in steps_list]


def test_noncommutativity_diagnostic():
    # legs at different Ex' rotate the ladder generator phase: ordered != unordered
    twisted = rectangle_loop("Ex_prime", "lambda_density", (0.0, 0.8), (1.0, 2.0), (0.0, 1.0, 1.0, 1.0))
    defect, unitarity = _defect(twisted, (0, 2), 512)
    assert defect > 1e-4
    assert unitarity < 1e-10
    # same loop squeezed onto the Ex' = 0 plane commutes step by step
    flat = rectangle_loop("Ex_prime", "lambda_density", (0.0, 0.0), (1.0, 2.0), (0.0, 1.0, 1.0, 1.0))
    assert _defect(flat, (0, 2), 512)[0] < 1e-8


def test_convergence_series_monotone():
    loop = box_loop("ADCHEFA", EY, LAM, BB)
    series = [_magnus(loop, (0, 1), s) for s in (64, 128, 256)]
    ests = [res.convergence_estimate for res in series]
    assert ests[0] > ests[1] > ests[2]
    assert all(res.unitarity_defect < 1e-12 for res in series)


def test_magnus_steps_are_fourth_order():
    # a second-order scheme would shrink the estimate 4x per doubling
    ests = _magnus_estimates(C9_LOOP, (0, 3), (64, 128, 256))
    assert ests[0] / ests[1] > 10.0 and ests[1] / ests[2] > 10.0


def test_signed_area_planarity_guard():
    loop = box_loop("ABCHEFA", EY, LAM, BB)
    with pytest.raises(ValidationError, match="not planar"):
        signed_area(loop)  # lambda and B vary along it


@pytest.mark.parametrize("window", [(0, 3), (1, 4), (0, 15), (0, 63)])
def test_span_exponential_matches_eigendecomposition(window, rng):
    k = 64
    phi = rng.uniform(-3.0, 3.0, k)
    zeta = rng.uniform(0.0, 10.0, k) * np.exp(1j * rng.uniform(-np.pi, np.pi, k))
    zeta[:4] = 0.0
    zeta[4] = 10.0 * np.exp(0.3j)
    got = _span_exp(phi, zeta, window)
    want = scipy.linalg.expm(1j * _generators(phi, zeta, _ladder(window)))
    assert np.abs(got - want).max() <= 1e-13


# -- the commutator-free steps against Magnus-4 and an adaptive ODE ------------


def _magnus4_product(path, u, window, steps):
    """Ordered product of fourth-order Magnus steps with the commutator term.

    With A1, A2 the step generators at the two Gauss nodes, each step is
    exp(i H) with H = (A1 + A2)/2 + i (sqrt(3)/12) [A2, A1].
    """
    L = _ladder(window)
    nodes = 0.5 + np.array([-1.0, 1.0]) * (math.sqrt(3.0) / 6.0)
    U = np.eye(len(L), dtype=complex)
    for a, b, count in zip(path.vertices[:-1], path.vertices[1:], path._allocation(steps)):
        if count == 0:
            continue
        t = ((np.arange(count)[:, None] + nodes) / count).ravel()
        pts = a + t[:, None] * (b - a)
        phi, zeta = _generator_scalars(pts, np.broadcast_to((b - a) / count, pts.shape), u)
        pair = _generators(phi, zeta, L).reshape(count, 2, len(L), len(L))
        a1, a2 = pair[:, 0], pair[:, 1]
        for f in scipy.linalg.expm(1j * (0.5 * (a1 + a2) + 1j * (math.sqrt(3.0) / 12.0) * (a2 @ a1 - a1 @ a2))):
            U = f @ U
    return U


def _dop853_holonomy(path, u, window):
    """dU/ds = i A(x(s)) x'(s) U by DOP853, with A from the chain-rule connection entries."""
    from scipy.integrate import solve_ivp

    m_lo, m_hi = window
    size = m_hi - m_lo + 1

    def generator(point, step):
        out = np.zeros((size, size), dtype=complex)
        for param, d in zip(connection.CONTROL_PARAMS, step):
            for i in range(size):
                for j in range(max(0, i - 1), min(size, i + 2)):
                    out[i, j] += d * connection.connection_general(param, point, u, 0, m_lo + i, m_lo + j)
        return out

    U = np.eye(size, dtype=complex)
    for a, b in zip(path.vertices[:-1], path.vertices[1:]):
        def rhs(s, y, a=a, step=b - a):
            return (1j * generator(a + s * step, step) @ y.reshape(size, size)).ravel()

        sol = solve_ivp(rhs, (0.0, 1.0), U.ravel(), method="DOP853", rtol=1e-12, atol=1e-14)
        assert sol.success, sol.message
        U = sol.y[:, -1].reshape(size, size)
    return U


@pytest.fixture(scope="module")
def rotating_quadrilaterals():
    """Three random quadrilaterals with Ex' varying, so the field rotates on every segment."""
    rng = np.random.default_rng(606)
    loops = []
    for _ in range(3):
        corners = np.column_stack([rng.uniform(-0.75, 0.75, (4, 2)), rng.uniform(1.0, 4.0, (4, 2))])
        loop = ParameterPath(np.vstack([corners, corners[:1]]))
        loops.append((loop, _dop853_holonomy(loop, 0.5, (0, 3))))
    return loops


def test_commutator_free_steps_match_magnus4(rotating_quadrilaterals):
    for loop, ref in rotating_quadrilaterals:
        for steps in (16, 32, 64, 128, 256):
            cf4 = holonomy_path_ordered(loop, 0.5, steps=steps, target=None, method="magnus").matrix
            err_cf4 = np.abs(cf4 - ref).max()
            err_m4 = np.abs(_magnus4_product(loop, 0.5, (0, 3), steps) - ref).max()
            assert err_cf4 <= 2.0 * err_m4
        assert err_cf4 <= 1e-8 and err_m4 <= 1e-8


def test_convergence_estimate_bounds_the_true_error(rotating_quadrilaterals):
    for loop, ref in rotating_quadrilaterals:
        for steps in (16, 32, 64, 128, 256):
            res = holonomy_path_ordered(loop, 0.5, steps=steps, target=None)
            assert res.convergence_estimate >= np.abs(res.matrix - ref).max()
        res = holonomy_path_ordered(loop, 0.5, target=1e-9)
        assert np.abs(res.matrix - ref).max() <= res.convergence_estimate <= 1e-9


# the quarter turn (Ex', Ey') -> (-Ey', Ex') multiplies Ey' - i Ex' by i and
# conjugates every generator by R = diag(i^m); the mirror Ey' -> -Ey' sends
# each generator Theta to -conj(Theta); reversal inverts the product. The
# fields are strong enough that a wrong R misses by far more than rounding;
# the box loop off Ex' = 0 has only exact segments under "auto"
_HOLONOMY_ROUTES = {
    "auto": (lambda loop: holonomy_path_ordered(loop, 0.5, steps=256, target=None).matrix, 1e-12),
    "magnus": (lambda loop: holonomy_path_ordered(loop, 0.5, steps=256, target=None, method="magnus").matrix, 1e-12),
    "unordered": (lambda loop: unordered_holonomy(loop, 0.5), 1e-14),
}


@pytest.mark.parametrize("route", _HOLONOMY_ROUTES)
def test_exact_symmetries_of_the_holonomy(route):
    holonomy, tol = _HOLONOMY_ROUTES[route]
    right, wrong = np.diag(1j ** np.arange(4)), np.diag((-1j) ** np.arange(4))
    rng = np.random.default_rng(7)
    corners = [np.column_stack([rng.uniform(-1.5, 1.5, (4, 2)), rng.uniform(0.5, 2.0, (4, 2))]) for _ in range(3)]
    loops = [ParameterPath(np.vstack([c, c[:1]])) for c in corners]
    for loop in loops + [box_loop("ABCHEFA", (-0.6, 1.2), (0.6, 1.8), (0.7, 1.5), ex=0.5)]:
        ex, ey, lam, b = loop.vertices.T
        gamma = holonomy(loop)
        turned = holonomy(ParameterPath(np.column_stack([-ey, ex, lam, b])))
        mirrored = holonomy(ParameterPath(np.column_stack([ex, -ey, lam, b])))
        assert np.abs(turned - right @ gamma @ right.conj().T).max() <= tol
        assert np.abs(turned - wrong @ gamma @ wrong.conj().T).max() > 1e-2
        assert np.abs(mirrored - gamma.conj()).max() <= tol
        assert np.abs(holonomy(loop.reversed()) - gamma.conj().T).max() <= tol


def _recorded_step_counts(monkeypatch):
    """Per-segment step counts of every ordered product, in the order they are built."""
    counts = []
    products = hol._ordered_products

    def recording(path, u, window, counts_list, method, geometry=None):
        counts.extend(c.tolist() for c in counts_list)
        return products(path, u, window, counts_list, method, geometry)

    monkeypatch.setattr(hol, "_ordered_products", recording)
    return counts


def test_refinement_reuses_the_previous_product(monkeypatch):
    counts = _recorded_step_counts(monkeypatch)
    res = holonomy_path_ordered(C9_LOOP, 0.5, target=1e-9)
    assert hol.DEFAULT_STEPS == 32
    # the first product, its half-step shadow, then one new product per doubling,
    # each with exactly twice the previous count on every segment
    start = C9_LOOP._allocation(32)
    assert counts[0] == start.tolist() and counts[1] == (start // 2).tolist()
    assert counts[2:] == [(start * 2**k).tolist() for k in range(1, len(counts) - 1)]
    assert res.steps == 32 * 2 ** (len(counts) - 2) > 32


def test_exact_loops_skip_the_shadow_run(monkeypatch):
    counts = _recorded_step_counts(monkeypatch)
    loop = box_loop("ADCHEFA", EY, LAM, BB)
    res = holonomy_path_ordered(loop, 0.5, target=1e-14)
    assert counts == [loop._allocation(hol.DEFAULT_STEPS).tolist()] and res.convergence_estimate == 0.0
    # "magnus" integrates the same loop and needs its shadow run
    holonomy_path_ordered(loop, 0.5, steps=64, target=None, method="magnus")
    assert counts[1:] == [loop._allocation(64).tolist(), (loop._allocation(64) // 2).tolist()]


def _rotating_polygon(sides):
    """Closed polygon of `sides` equal segments: the field circles the origin while lambda and B oscillate."""
    t = 2.0 * np.pi * np.arange(sides + 1) / sides
    return ParameterPath(
        np.column_stack([0.6 * np.cos(t), 0.6 * np.sin(t), 2.0 + np.sin(t), 2.0 + np.cos(2.0 * t)])
    )


@functools.cache
def _rotating_polygon_reference(sides):
    loop = _rotating_polygon(sides)
    return loop, _dop853_holonomy(loop, 0.5, (0, 3))


@pytest.mark.parametrize("sides", [24, 64])
def test_many_segment_estimate_bounds_the_true_error(sides):
    # one step per segment in a shadow run would match the returned product
    # exactly and report an estimate of 0; the counts halve instead
    loop, ref = _rotating_polygon_reference(sides)
    for steps in (16, 32, 64):
        res = holonomy_path_ordered(loop, 0.5, steps=steps, target=None)
        assert res.convergence_estimate >= np.abs(res.matrix - ref).max() > 0.0
    res = holonomy_path_ordered(loop, 0.5, target=1e-7)
    assert np.abs(res.matrix - ref).max() <= res.convergence_estimate <= 1e-7


# -- the error estimate of the returned product ---------------------------------


def _difference(loop, counts, method="auto"):
    """max |U(counts) - U(counts // 2)| from two products at explicit per-segment counts."""
    fine, coarse = hol._ordered_products(loop, 0.5, (0, 3), [counts, counts // 2], method)
    return np.abs(fine - coarse).max()


@functools.cache
def _dop853_c9():
    return _dop853_holonomy(C9_LOOP, 0.5, (0, 3))


@pytest.mark.parametrize("target", [1e-7, 1e-8, 1e-9, 1e-10])
def test_estimate_bounds_the_returned_products_error(rotating_quadrilaterals, target):
    loops = [(C9_LOOP, _dop853_c9())] + list(rotating_quadrilaterals)
    loops += [_rotating_polygon_reference(sides) for sides in (24, 64)]
    for loop, ref in loops:
        res = holonomy_path_ordered(loop, 0.5, target=target)
        assert np.abs(res.matrix - ref).max() <= res.convergence_estimate <= target


def test_estimate_halves_the_steps_of_the_raw_difference_rule():
    # the raw rule stops once max |U(s) - U(s/2)| <= target; the returned
    # product is then one doubling finer than it needs to be
    counts, steps = C9_LOOP._allocation(hol.DEFAULT_STEPS), hol.DEFAULT_STEPS
    while _difference(C9_LOOP, counts) > 1e-8:
        counts, steps = 2 * counts, 2 * steps
    res = holonomy_path_ordered(C9_LOOP, 0.5, target=1e-8)
    assert res.steps == steps // 2
    assert np.abs(res.matrix - _dop853_c9()).max() <= res.convergence_estimate <= 1e-8


def test_extrapolated_error_rule():
    floor = hol._FLOOR_ROUNDINGS * 1024
    assert hol._extrapolated_error(16e-6, 1e-6, 1024) == 2e-6 / 15.0
    assert hol._extrapolated_error(40e-6, 1e-6, 1024) == 2e-6 / 15.0  # rate capped at 16
    assert hol._extrapolated_error(8e-6, 1e-6, 1024) == 2e-6 / 7.0
    assert hol._extrapolated_error(7.9e-6, 1e-6, 1024) == 1e-6  # below the rate gate
    assert hol._extrapolated_error(16.0 * floor, 0.99 * floor, 1024) == 0.99 * floor  # below the floor guard
    assert hol._extrapolated_error(1e-10, 0.0, 1024) == 0.0


def test_slow_round_reports_the_raw_difference():
    # at 16 -> 32 steps the difference of the coarse-stall loop falls 1.9x,
    # below the rate gate of 8: stopping there reports the raw difference
    loop = COARSE_STALL_LOOP
    counts = loop._allocation(16)
    first, second = _difference(loop, counts), _difference(loop, 2 * counts)
    assert 1.0 < first / second < 8.0
    res = holonomy_path_ordered(loop, 0.5, steps=16, target=0.5 * (first + second))
    assert res.steps == 32 and res.convergence_estimate == second


@pytest.mark.parametrize("loop", [C9_LOOP, COARSE_STALL_LOOP, _rotating_polygon(24)])
def test_unrefined_estimate_is_the_raw_difference(loop):
    for steps in (16, 64, 256):
        res = holonomy_path_ordered(loop, 0.5, steps=steps, target=None)
        assert res.steps == steps
        assert res.convergence_estimate == _difference(loop, loop._allocation(steps))
    for steps, estimate in zip((64, 128, 256), _magnus_estimates(loop, (0, 3), (64, 128, 256))):
        assert estimate == _difference(loop, loop._allocation(steps), method="magnus")


# -- refinement in batched rounds ------------------------------------------------


def _single_products(loop, window, counts_list, method="auto"):
    return [hol._ordered_products(loop, 0.5, window, [c], method)[0] for c in counts_list]


def _batch_loops(rotating_quadrilaterals):
    loops = [C9_LOOP] + [loop for loop, _ in rotating_quadrilaterals]
    return loops + [_rotating_polygon(sides) for sides in (24, 64)] + [_mixed_loop(np.random.default_rng(1912))]


@pytest.mark.parametrize("method", ["auto", "magnus"])
def test_a_batch_equals_its_single_products(rotating_quadrilaterals, method):
    for loop in _batch_loops(rotating_quadrilaterals):
        counts = loop._allocation(32)
        for counts_list in ([counts, counts // 2], [2 * counts, 4 * counts, 8 * counts]):
            batch = hol._ordered_products(loop, 0.5, (0, 3), counts_list, method)
            singles = _single_products(loop, (0, 3), counts_list, method)
            assert all(np.array_equal(b, s) for b, s in zip(batch, singles))


def test_a_product_longer_than_a_chunk_keeps_its_bits():
    loop, window = C9_LOOP, (0, 3)
    counts = loop._allocation(8192)
    assert counts.sum() > hol._CHUNK_ENTRIES // 16  # two chunks, and the shadow a third
    fine, coarse = _single_products(loop, window, [counts, counts // 2])
    res = holonomy_path_ordered(loop, 0.5, window=window, steps=8192, target=None)
    assert np.array_equal(res.matrix, fine)
    assert res.convergence_estimate == np.abs(fine - coarse).max()


def test_a_batch_on_a_wide_window_keeps_the_chunk_boundaries(monkeypatch):
    # at (0, 63) a chunk holds 16 factors: the products no longer fit in one
    # batch, and each is cut into chunks of its own
    window = (0, 63)
    assert hol._CHUNK_ENTRIES // 64**2 == 16
    exponentials = []
    monkeypatch.setattr(hol, "_span_exp", lambda phi, *a: exponentials.append(len(phi)) or _span_exp(phi, *a))
    for loop in (C9_LOOP, _mixed_loop(np.random.default_rng(1913))):
        counts = loop._allocation(16)
        counts_list = [counts, counts // 2, 2 * counts]
        for method in ("auto", "magnus"):
            batch = hol._ordered_products(loop, 0.5, window, counts_list, method)
            singles = _single_products(loop, window, counts_list, method)
            assert all(np.array_equal(b, s) for b, s in zip(batch, singles))
    # no exponential stack is larger than one chunk's (left, right) pairs
    assert max(exponentials) == 2 * 16


def _sequential_rule(loop, window, steps, target, method="auto"):
    """The refinement rule on one-product calls: the shadow, then one doubling per product."""
    counts = loop._allocation(steps)
    current, shadow = _single_products(loop, window, [counts, counts // 2], method)
    diff = np.abs(current - shadow).max()
    estimate, rounds = diff, 0
    while estimate > target:
        if 2 * steps > hol._STEP_CAP:
            raise ConvergenceError(f"step cap {hol._STEP_CAP}")
        steps, counts, rounds = 2 * steps, 2 * counts, rounds + 1
        coarse, (current,) = current, _single_products(loop, window, [counts], method)
        previous, diff = diff, np.abs(current - coarse).max()
        estimate = hol._extrapolated_error(previous, diff, steps)
        if estimate > target and 0.5 * previous < diff < hol._FLOOR_ROUNDINGS * steps:
            raise ConvergenceError(f"rounding floor at {steps} steps")
    return current, steps, estimate, rounds


@pytest.mark.parametrize("target", [1e-7, 1e-8, 1e-10])
def test_batched_rounds_replay_the_sequential_rule(rotating_quadrilaterals, target, monkeypatch):
    loops = _batch_loops(rotating_quadrilaterals)
    want = [_sequential_rule(loop, (0, 3), hol.DEFAULT_STEPS, target) for loop in loops]
    batches = []
    products = hol._ordered_products
    monkeypatch.setattr(hol, "_ordered_products", lambda *a: batches.append(len(a[3])) or products(*a))
    for loop, (matrix, steps, estimate, rounds) in zip(loops, want):
        batches.clear()
        res = holonomy_path_ordered(loop, 0.5, window=(0, 3), target=target)
        assert np.array_equal(res.matrix, matrix)
        assert (res.steps, res.convergence_estimate) == (steps, estimate)
        assert res.steps == hol.DEFAULT_STEPS * 2**rounds
        assert res.unitarity_defect == hol._unitarity_defect(matrix)
        assert batches[0] == 2 and max(batches) <= hol._BATCH_DOUBLINGS == 3
        # on the rotating quadrilaterals the prediction builds no product that is not needed
        if any(loop is quad for quad, _ in rotating_quadrilaterals):
            assert sum(batches) == rounds + 2


def test_prediction_of_the_doublings():
    # 2 d / (15 * 16^r) <= target, clamped to 1..3 and to the room below the cap
    one = 7.5e-8  # 2 d / (15 target) = 1 at target 1e-8
    assert hol._doublings(15.9 * one, 1e-8, 10) == 1
    assert hol._doublings(16.1 * one, 1e-8, 10) == 2
    assert hol._doublings(257.0 * one, 1e-8, 10) == 3
    assert hol._doublings(1.0, 1e-8, 10) == 3
    assert hol._doublings(1.0, 1e-8, 2) == 2
    assert hol._doublings(1e-12, 1e-8, 10) == 1
    assert hol._doublings(1e-3, 0.0, 10) == 3 and hol._doublings(0.0, 1e-8, 10) == 3
    assert hol._doublings(float("inf"), 1e-8, 10) == 3 and hol._doublings(float("nan"), 1e-8, 10) == 3


def test_refinement_stops_below_the_step_cap(monkeypatch):
    # 16 steps under a cap of 64 leave room for two doublings only
    counts = _recorded_step_counts(monkeypatch)
    monkeypatch.setattr(hol, "_STEP_CAP", 64)
    with pytest.raises(ConvergenceError, match="at step cap 64"):
        holonomy_path_ordered(C9_LOOP, 0.5, window=(0, 1), steps=16, target=1e-12)
    assert max(sum(c) for c in counts) == 4 * C9_LOOP._allocation(16).sum()


def _paired_exact_product(loop, window):
    """A loop of exact segments by the pair route of a mixed batch: each factor times an identity right half."""
    size = window[1] - window[0] + 1
    chunk = hol._CHUNK_ENTRIES // size**2
    a, b = loop.vertices[:-1], loop.vertices[1:]
    moving = loop.segment_lengths > 0.0
    phi, zeta = hol._segment_integrals(a[moving], b[moving], 0.5)
    phi, zeta = (np.column_stack([v, np.zeros_like(v)]).ravel() for v in (phi, zeta))
    pair = _span_exp(phi, zeta, window).reshape(-1, 2, size, size)
    factors, U = pair[:, 0] @ pair[:, 1], np.eye(size, dtype=complex)
    for i in range(0, len(factors), chunk):
        U = hol._tree_product(factors[i : i + chunk]) @ U
    return U


def test_exact_loops_take_one_quadrature_one_exponential_one_product(monkeypatch):
    loops = [box_loop(kind, EY, LAM, BB) for kind in hol.BOX_KINDS]
    # sweep rows: the box at other corners, at target=None and any steps
    corners = [(ey2, lam2) for ey2 in (0.0, 0.7) for lam2 in (2.0, 5.0)]
    loops += [box_loop(kind, (0.0, ey2), (1.0, lam2), BB) for kind in hol.BOX_KINDS for ey2, lam2 in corners]
    zero_length = np.insert(loops[0].vertices, 3, loops[0].vertices[3], axis=0)
    loops.append(ParameterPath(zero_length))
    calls = {name: 0 for name in ("_segment_integrals", "_span_exp", "_tree_product", "_generator_scalars")}

    def counted(name, real):
        def call(*args):
            calls[name] += 1
            return real(*args)

        return call

    for name in calls:
        monkeypatch.setattr(hol, name, counted(name, getattr(hol, name)))
    for loop in loops:
        for window in ((0, 3), (1, 4)):
            want = _paired_exact_product(loop, window)
            calls.update(dict.fromkeys(calls, 0))
            for steps, target in ((32, 1e-14), (16, None), (256, None)):
                res = holonomy_path_ordered(loop, 0.5, window=window, steps=steps, target=target)
                assert np.array_equal(res.matrix, want) and res.convergence_estimate == 0.0
            # no step scalars: the only generator evaluation is the quadrature's
            assert calls == dict.fromkeys(calls, 3)
    # at (0, 63) an Ex' = 0 17-gon is a chunk of 16 exact factors and one of
    # a single factor, which takes the pair route
    verts = _rotating_polygon(17).vertices.copy()
    verts[:, 0] = 0.0
    flat = ParameterPath(verts)
    res = holonomy_path_ordered(flat, 0.5, window=(0, 63), target=None)
    assert np.array_equal(res.matrix, _paired_exact_product(flat, (0, 63)))
    # "magnus" still takes the steps of every segment
    calls.update(dict.fromkeys(calls, 0))
    res = holonomy_path_ordered(loops[0], 0.5, steps=64, target=None, method="magnus")
    assert res.convergence_estimate > 0.0 and res.steps == 64
    assert calls["_segment_integrals"] == 0 and calls["_generator_scalars"] > 0


def test_each_call_derives_its_loop_geometry_once(monkeypatch):
    names = ("_commuting_segments", "_segment_integrals", "_span_exp", "_tree_product", "_ordered_products")
    calls = dict.fromkeys(names, 0)

    def counted(name, real):
        def call(*args):
            calls[name] += 1
            return real(*args)

        return call

    for name in names:
        monkeypatch.setattr(hol, name, counted(name, getattr(hol, name)))

    def run(loop, **kwargs):
        calls.update(dict.fromkeys(calls, 0))
        return holonomy_path_ordered(loop, 0.5, **kwargs)

    # a box loop: one quadrature, one exponential and one product per call
    for kind in hol.BOX_KINDS:
        for steps, target in ((32, 1e-8), (256, None)):
            run(box_loop(kind, EY, LAM, BB), steps=steps, target=target)
            assert calls == dict.fromkeys(calls, 1)
    # an integrated loop: one exact-segment test per call, however many batches
    # its rounds take, and one quadrature of its exact segments, if it has any
    loops = [(C9_LOOP, 1), (_rotating_polygon(24), 0), (_mixed_loop(np.random.default_rng(1914)), 1)]
    for loop, quadratures in loops:
        res = run(loop, target=1e-10)
        assert res.steps > 2 * hol.DEFAULT_STEPS and calls["_ordered_products"] >= 2
        assert calls["_commuting_segments"] == 1 and calls["_segment_integrals"] == quadratures


# -- steps are checked before any product is built ----------------------------

_BAD_COUNTS = [
    (dict(steps=0), "steps"),
    (dict(steps=-32), "steps"),
    (dict(steps=math.nan), "steps"),
    (dict(steps=math.inf), "steps"),
    (dict(steps=np.int64(8)), "steps"),
    (dict(steps=2 * hol._STEP_CAP), "step cap"),
    (dict(steps="32"), "steps"),
    (dict(steps=16.5), "steps"),
    (dict(steps=32.0), "steps"),
    (dict(steps=True), "steps"),
    (dict(steps=8), "steps"),
    (dict(steps=None), "steps"),
]


@pytest.mark.parametrize("kwargs, name", _BAD_COUNTS)
def test_bad_step_counts_rejected_before_any_work(kwargs, name, monkeypatch):
    counts = _recorded_step_counts(monkeypatch)
    with pytest.raises(ValidationError, match=name):
        holonomy_path_ordered(C9_LOOP, 0.5, target=1e-8, **kwargs)
    assert counts == []


def test_integer_step_counts_are_plain_ints():
    res = holonomy_path_ordered(C9_LOOP, 0.5, steps=np.int64(16), target=None)
    assert res.steps == 16 and type(res.steps) is int


# -- one stack per ordered product against the per-segment route ---------------


def _segment_integrals_one(a, b, u):
    """(Phi, Z) on the one segment a -> b by the composite 16-point Gauss rule, panel by panel."""
    nodes, weights = np.polynomial.legendre.leggauss(16)
    nodes, weights = 0.5 * (nodes + 1.0), 0.5 * weights
    ends = np.array([a[2:], b[2:]])
    panels = max(1, math.ceil((float(np.max(ends.max(axis=0) / ends.min(axis=0))) - 1.0) / 3.0))
    t = ((np.arange(panels)[:, None] + nodes) / panels).ravel()
    pts = a + t[:, None] * (b - a)
    phi, zeta = _generator_scalars(pts, np.broadcast_to(b - a, pts.shape), u)
    w = np.tile(weights / panels, panels)
    return float(w @ phi), complex(w @ zeta)


def _per_segment_product(path, u, window, counts, method):
    """The ordered product segment by segment: one exact factor or one batch of steps each, multiplied in sequence."""
    window = tuple(window)
    size = window[1] - window[0] + 1
    U = np.eye(size, dtype=complex)
    for a, b, count in zip(path.vertices[:-1], path.vertices[1:], counts):
        if count == 0:
            continue
        if method == "auto" and (a[0] * b[1] - a[1] * b[0] == 0.0 or (a[2] == b[2] and a[3] == b[3])):
            factors = _span_exp(*_segment_integrals_one(a, b, u), window)
        else:
            t = ((np.arange(count)[:, None] + hol._GAUSS2_T) / count).ravel()
            pts = a + t[:, None] * (b - a)
            phi, zeta = _generator_scalars(pts, np.broadcast_to((b - a) / count, pts.shape), u)
            phi = (phi.reshape(-1, 2) @ hol._CF4_MIX.T).ravel()
            zeta = (zeta.reshape(-1, 2) @ hol._CF4_MIX.T).ravel()
            pair = _span_exp(phi, zeta, window).reshape(count, 2, size, size)
            factors = pair[:, 0] @ pair[:, 1]
        for f in factors:
            U = f @ U
    return U


def _per_segment_products(path, u, window, counts_list, method, geometry=None):
    return [_per_segment_product(path, u, window, c, method) for c in counts_list]


def _mixed_loop(rng):
    """Random closed loop of exact and integrated segments, with one zero-length segment."""
    verts = list(_commuting_loop(rng).vertices)
    verts[2:2] = [np.concatenate([rng.uniform(-0.8, 0.8, 2), rng.uniform(1.0, 4.0, 2)]) for _ in range(2)]
    verts.insert(6, verts[6].copy())
    return ParameterPath(np.array(verts))


@pytest.mark.parametrize("method", ["auto", "magnus"])
def test_one_stack_matches_the_per_segment_product(monkeypatch, method):
    rng = np.random.default_rng(1909)
    loops = [_mixed_loop(rng) for _ in range(3)]
    a, b = loops[0].vertices[:-1], loops[0].vertices[1:]
    exact = hol._commuting_segments(a, b)
    assert exact.any() and not exact.all() and (loops[0].segment_lengths == 0.0).any()
    for chunk_steps in (None, 7):
        if chunk_steps is not None:
            monkeypatch.setattr(hol, "_CHUNK_ENTRIES", 16 * chunk_steps)
        for loop in loops:
            for steps in (16, 100):
                counts = loop._allocation(steps)
                want = _per_segment_product(loop, 0.5, (0, 3), counts, method)
                (got,) = hol._ordered_products(loop, 0.5, (0, 3), [counts], method)
                assert np.abs(got - want).max() <= 1e-13
    # chunks of 7 steps cut across segment boundaries
    counts = loops[0]._allocation(100)
    sizes = [len(f) for _, f in hol._step_factors(loops[0], 0.5, (0, 3), [counts], "magnus")]
    assert sizes[:-1] == [7] * (len(sizes) - 1) and sum(sizes) == counts.sum()
    assert not set(np.cumsum(sizes)) >= set(np.cumsum(counts)[counts > 0])


@pytest.mark.parametrize("sides", [64, 400])
def test_many_segment_product_matches_the_per_segment_product(sides, monkeypatch):
    loop = _rotating_polygon(sides)
    res = holonomy_path_ordered(loop, 0.5, target=1e-8)
    monkeypatch.setattr(hol, "_ordered_products", _per_segment_products)
    ref = holonomy_path_ordered(loop, 0.5, target=1e-8)
    assert res.steps == ref.steps
    assert abs(res.convergence_estimate - ref.convergence_estimate) <= 1e-12
    assert np.abs(res.matrix - ref.matrix).max() <= 1e-13


def test_vectorised_segment_integrals_match_one_segment_at_a_time():
    rng = np.random.default_rng(1910)
    a = np.column_stack([rng.uniform(-0.8, 0.8, (6, 2)), rng.uniform(0.5, 4.0, (6, 2))])
    b = np.column_stack([rng.uniform(-0.8, 0.8, (6, 2)), rng.uniform(0.5, 4.0, (6, 2))])
    b[2, 2] = 25.0 * a[2, 2]  # lambda grows 25x along segment 2
    b[4] = a[4]  # zero length
    seg, _, _ = hol._segment_quadrature(a, b)
    assert np.bincount(seg)[2] == 8 * 16 and np.bincount(seg)[4] == 16
    phi, zeta = hol._segment_integrals(a, b, 0.5)
    assert phi[4] == 0.0 and zeta[4] == 0.0
    for k in range(len(a)):
        p, z = _segment_integrals_one(a[k], b[k], 0.5)
        assert abs(phi[k] - p) <= 1e-14 and abs(zeta[k] - z) <= 1e-14
        (p1,), (z1,) = hol._segment_integrals(a[k : k + 1], b[k : k + 1], 0.5)
        assert abs(phi[k] - p1) <= 1e-14 and abs(zeta[k] - z1) <= 1e-14


def test_unordered_holonomy_matches_the_per_segment_sum():
    rng = np.random.default_rng(1911)
    for loop in (_mixed_loop(rng), _random_loop(rng), C9_LOOP):
        phi, zeta = 0.0, 0j
        for a, b in zip(loop.vertices[:-1], loop.vertices[1:]):
            p, z = _segment_integrals_one(a, b, 0.5)
            phi += p
            zeta += z
        want = scipy.linalg.expm(1j * _generators(phi, zeta, _ladder((0, 3))))
        assert np.abs(unordered_holonomy(loop, 0.5, (0, 3)) - want).max() <= 1e-13


def test_span_basis_is_cached_and_read_only():
    basis = _span_basis((1, 4))
    assert _span_basis((1, 4)) is basis
    for arr in (*basis, _span_table((1, 4))):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0


@pytest.mark.parametrize("window", [(0, 3), (0, 15), (2, 72)])
def test_single_exponential_matches_its_entry_in_a_stack(window, rng):
    # a stack contracts with the projector table; a single exponential
    # multiplies through the eigenvectors and builds no table
    phi = rng.uniform(-3.0, 3.0, 8)
    zeta = rng.uniform(0.0, 10.0, 8) * np.exp(1j * rng.uniform(-np.pi, np.pi, 8))
    _span_table.cache_clear()
    single = np.array([_span_exp(p, z, window)[0] for p, z in zip(phi, zeta)])
    assert _span_table.cache_info().currsize == 0
    assert np.abs(single - _span_exp(phi, zeta, window)).max() <= 1e-13
    assert _span_table.cache_info().currsize == 1


def test_only_linalg_takes_eigendecompositions_or_exponentials():
    # every exponential of the package goes through the one span kernel in
    # _linalg; no other module may call eigh, eig or an expm
    import ast
    from pathlib import Path

    for path in Path(hol.__file__).parent.glob("*.py"):
        if path.name == "_linalg.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                assert name not in {"eigh", "eig", "expm"}, f"{path.name}:{node.lineno} calls {name}"


def test_step_factors_feed_one_product_builder():
    # every ordered product of the package is the one fold of _ordered_products:
    # the only reference to _step_factors in dlh, outside its definition, is there
    import ast
    from pathlib import Path

    users = []
    for path in sorted(Path(hol.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if "_step_factors" in (getattr(node, "id", None), getattr(node, "attr", None)):
                    users.append((path.name, getattr(top, "name", "<module>")))
    assert users == [("holonomy.py", "_ordered_products")]


def test_gauss_table_is_built_on_first_use():
    nodes, weights = np.polynomial.legendre.leggauss(16)
    t, w = hol._gauss16()
    assert np.array_equal(t, 0.5 * (nodes + 1.0)) and np.array_equal(w, 0.5 * weights)
    # importing the engine does not load numpy.polynomial
    probe = "import sys\nimport dlh.holonomy\nprint('numpy.polynomial' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
    assert proc.stdout.split() == ["False"]

