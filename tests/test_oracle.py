import math
from dataclasses import replace
from functools import reduce

import numpy as np
import pytest

from dlh import _linalg, holonomy, oracle
from dlh._linalg import unitarize
from dlh.connection import CONTROL_PARAMS, connection_matrix
from dlh.errors import ValidationError
from dlh.holonomy import ParameterPath, box_loop, holonomy_path_ordered, rectangle_loop
from dlh.oracle import Grid2D, fd_connection_matrix, render_sign_report, sign_convention_report, wilson_loop_oracle
from dlh.params import PhysicalConfig, _point_scales, derive_scales

import _fields
from _fields import (
    X,
    Y,
    apply_angular_momentum,
    apply_base_hamiltonian,
    apply_level_lower,
    apply_level_raise,
    apply_radial_lower,
    apply_radial_raise,
    apply_uniform_field_hamiltonian,
    build_state,
    displace_field,
    ground_state,
    norm,
    overlap,
    window_states,
)
from _loops import _SYMMETRY_LOOPS, _closed, _wilson_of
from _refusals import refusal_test


test_grid_adequacy_rules = refusal_test("test_grid_adequacy_rules")


# l_m and shift of each adequacy case on the 256-point grid of extent 12, and
# the message of its first failing point
_INADEQUATE = {
    "too_small": ((3.0,), "grid extent 12.0 too small for l_m=3 with shift 0"),
    "too_coarse": ((0.1,), "grid spacing 0.09412 does not resolve l_m=0.1 (need h <= l_m/4)"),
    "shift_too_large": ((1.0, 7.0), "grid extent 12.0 too small for l_m=1 with shift 7"),
    "small_after_good_points": (([1.0, 1.0, 3.0, 0.1], [0.0, -1.0, 0.5, 0.0]), "grid extent 12.0 too small for l_m=3 with shift 0.5"),
    "coarse_after_a_good_point": (([1.0, 0.1, 3.0], 0.0), "grid spacing 0.09412 does not resolve l_m=0.1 (need h <= l_m/4)"),
    "negative_shift": (([1.0, 1.5], [0.0, -4.0]), "grid extent 12.0 too small for l_m=1.5 with shift -4"),
}


@pytest.mark.parametrize("name", _INADEQUATE)
def test_the_first_inadequate_point_is_diagnosed(grid12, name):
    args, message = _INADEQUATE[name]
    with pytest.raises(ValidationError) as failure:
        grid12.check_adequate(*(np.asarray(a) for a in args))
    assert str(failure.value) == message
    grid12.check_adequate(np.ones(3), np.array([0.0, 5.0, -5.0]))  # adequate points raise nothing


@pytest.mark.parametrize("later_row", [False, True], ids=["scalar", "later_row"])
@pytest.mark.parametrize("l_m", [math.nan, -1.0, 0.0, math.inf])
def test_a_bad_l_m_fails_as_itself(grid12, l_m, later_row):
    # both rules are False for a NaN l_m, and a bad l_m is named, not taken for a grid problem
    message = f"l_m must be positive and finite, got {l_m}"
    with pytest.raises(ValidationError) as failure:
        grid12.check_adequate(np.array([1.0, 1.5, l_m]) if later_row else l_m)
    assert str(failure.value) == message
    if not later_row:
        with pytest.raises(ValidationError) as failure:
            ground_state(grid12, l_m)
        assert str(failure.value) == message


def test_ground_state_shape_and_width(grid12):
    g = ground_state(grid12, 1.0)
    assert abs(norm(grid12, g.values) - 1.0) < 1e-12
    r2 = X(grid12)**2 + Y(grid12)**2
    mean_r2 = overlap(grid12, g.values, r2 * g.values).real
    assert mean_r2 == pytest.approx(2.0, rel=1e-10)


def test_ladders_annihilate_ground(grid12):
    g = ground_state(grid12, 1.0).values
    assert np.abs(apply_level_lower(grid12, 1.0, 1, g)).max() < 1e-12
    assert np.abs(apply_radial_lower(grid12, 1.0, 1, g)).max() < 1e-12


def test_grid_ladder_commutator(grid12, cfg_natural):
    sc = derive_scales(cfg_natural)
    f = build_state(grid12, sc, 1, 1).values
    raised_then_lowered = apply_level_lower(
        grid12, sc.l_m, sc.sigma, apply_level_raise(grid12, sc.l_m, sc.sigma, f)
    )
    lowered_then_raised = apply_level_raise(
        grid12, sc.l_m, sc.sigma, apply_level_lower(grid12, sc.l_m, sc.sigma, f)
    )
    assert np.abs(raised_then_lowered - lowered_then_raised - f).max() < 1e-11
    rb = apply_radial_lower(
        grid12, sc.l_m, sc.sigma, apply_radial_raise(grid12, sc.l_m, sc.sigma, f)
    )
    br = apply_radial_raise(
        grid12, sc.l_m, sc.sigma, apply_radial_lower(grid12, sc.l_m, sc.sigma, f)
    )
    assert np.abs(rb - br - f).max() < 1e-11


def test_state_family_orthonormal(grid_coarse, cfg_natural):
    sc = derive_scales(cfg_natural)
    states = {}
    for n in range(4):
        for m in range(5):
            states[(n, m)] = build_state(grid_coarse, sc, n, m).values
    for (n1, m1), f in states.items():
        for (n2, m2), g in states.items():
            want = 1.0 if (n1, m1) == (n2, m2) else 0.0
            assert abs(overlap(grid_coarse, f, g) - want) < 1e-6


def test_displacement_centroid_and_coherence(grid12, cfg_natural):
    sc = derive_scales(cfg_natural)
    point = (cfg_natural.Ex_prime, cfg_natural.Ey_prime, cfg_natural.lambda_density, cfg_natural.B)
    psi = window_states(grid12, cfg_natural, point, 0, (0, 0))[0]
    nu = sc.nu
    cx = overlap(grid12, psi.values, X(grid12) * psi.values).real
    cy = overlap(grid12, psi.values, Y(grid12) * psi.values).real
    assert cx == pytest.approx(-math.sqrt(2.0) * sc.l_m * nu.imag, abs=1e-10)
    assert cy == pytest.approx(math.sqrt(2.0) * sc.sigma * sc.l_m * nu.real, abs=1e-10)
    # displaced ground field is a coherent state of the level ladder
    lowered = apply_level_lower(grid12, sc.l_m, sc.sigma, psi.values)
    amp = overlap(grid12, psi.values, lowered)
    assert abs(amp - nu) < 1e-12
    assert np.abs(lowered - nu * psi.values).max() < 1e-10


def test_energies_on_grid(grid12, cfg_natural):
    sc = derive_scales(cfg_natural)
    hw = sc.energy_quantum
    point = (cfg_natural.Ex_prime, cfg_natural.Ey_prime, cfg_natural.lambda_density, cfg_natural.B)
    for n in (0, 1):
        psi = window_states(grid12, cfg_natural, point, n, (1, 1))[0]
        e = overlap(grid12, psi.values, apply_uniform_field_hamiltonian(grid12, sc, psi.values)).real
        assert e / hw == pytest.approx(n + 0.5, rel=1e-6)
    bare = build_state(grid12, sc, 2, 0)
    e2 = overlap(grid12, bare.values, apply_base_hamiltonian(grid12, sc, bare.values)).real
    assert e2 / hw == pytest.approx(2.5, rel=1e-6)


def test_angular_momentum_both_chiralities(grid12):
    for lam, sigma in ((1.0, 1), (-1.0, -1)):
        cfg = PhysicalConfig(
            mass=1.0, alpha=1.0, hbar=1.0, lambda_density=lam, B=1.0, Ex_prime=0.0, Ey_prime=0.0
        )
        sc = derive_scales(cfg)
        assert sc.sigma == sigma
        f = build_state(grid12, sc, 0, 2).values
        lz = overlap(grid12, f, apply_angular_momentum(grid12, sc.hbar, f)).real
        assert lz == pytest.approx(sigma * 2.0, rel=1e-8)


def test_fd_connection_matches_closed_form(grid12, cfg_desk):
    sc = derive_scales(cfg_desk)
    point = (cfg_desk.Ex_prime, cfg_desk.Ey_prime, cfg_desk.lambda_density, cfg_desk.B)
    for param, row, col in (
        ("Ex_prime", 0, 0),
        ("Ey_prime", 1, 1),
        ("lambda_density", 2, 1),
        ("B", 1, 0),
    ):
        lo, hi = min(row, col), max(row, col)
        fd = fd_connection_matrix(grid12, cfg_desk, param, point, 0, (lo, hi), h_step=1e-3)[row - lo, col - lo]
        cf = connection_matrix(param, point, sc.u, 0, (lo, hi)).entries[row - lo, col - lo]
        assert abs(fd - cf) < 1e-6


# three sigma = -1 points and one with lambda, B < 0: the closed form reads lambda and B only through
# w = |lambda B|^(-1/2) and the log-step dlambda/lambda + dB/B; the fd connection misses it by 8.6e-7 to 1.5e-6
# there (5.0e-6 to 7.9e-6 relative), as at the operating point
@pytest.mark.parametrize("point", [(0.3, 0.7, -2.0, 1.0), (-0.5, 0.4, 1.5, -1.2), (0.6, -0.2, -1.0, 2.2),
                                   (0.3, 0.7, -2.0, -1.0)])
def test_fd_connection_matches_the_closed_form_on_both_chiralities(grid14, cfg_desk, point):
    u = derive_scales(cfg_desk).u
    for n in (0, 1):
        for param in CONTROL_PARAMS:
            closed = connection_matrix(param, point, u, n, (0, 3)).entries
            fd = fd_connection_matrix(grid14, cfg_desk, param, point, n, (0, 3))
            assert np.abs(fd - closed).max() <= 2e-5 * np.abs(closed).max(), (n, param)


def test_fd_richardson_order(grid12, cfg_desk):
    # central differences: truncation error drops ~4x when h halves
    point = (cfg_desk.Ex_prime, cfg_desk.Ey_prime, cfg_desk.lambda_density, cfg_desk.B)
    sc = derive_scales(cfg_desk)
    cf = connection_matrix("B", point, sc.u, 0, (0, 1)).entries[1, 0]
    err4 = abs(fd_connection_matrix(grid12, cfg_desk, "B", point, 0, (0, 1), h_step=4e-3)[1, 0] - cf)
    err2 = abs(fd_connection_matrix(grid12, cfg_desk, "B", point, 0, (0, 1), h_step=2e-3)[1, 0] - cf)
    assert 2.5 < err4 / err2 < 6.0


def test_fd_matrix_hermitian(grid12, cfg_desk):
    point = (cfg_desk.Ex_prime, cfg_desk.Ey_prime, cfg_desk.lambda_density, cfg_desk.B)
    A = fd_connection_matrix(grid12, cfg_desk, "lambda_density", point, 0, (0, 3), h_step=1e-3)
    assert np.abs(A - A.conj().T).max() < 1e-5
    assert np.abs(np.diag(A).imag).max() < 1e-6


@pytest.mark.parametrize("points", [128, 256])
def test_diagonal_fd_entries_are_real_at_the_operating_point(points):
    # the sign report's diagonal entries: with the ramps taken as relative
    # phases no product of absolute ramps rounds into their imaginary parts
    cfg = oracle.OPERATING_CONFIG
    point = (cfg.Ex_prime, cfg.Ey_prime, cfg.lambda_density, cfg.B)
    for param in ("Ex_prime", "Ey_prime"):
        entry = fd_connection_matrix(Grid2D(points=points), cfg, param, point, 0, (0, 0))[0, 0]
        assert abs(entry.imag) <= 1e-14 and abs(entry.real) > 0.01


def test_window_states_match_pipeline(grid12, cfg_desk):
    point = (0.2, -0.1, 2.0, 1.0)
    ws = window_states(grid12, cfg_desk, point, 1, (1, 3))
    assert [w.m for w in ws] == [1, 2, 3]
    for w in ws:
        direct = window_states(grid12, cfg_desk, point, 1, (w.m, w.m))[0]
        assert np.abs(w.values - direct.values).max() < 1e-12


# grid, (lambda, Ex', Ey') at u = 0.5, B = 1, levels n and window: both
# chiralities, from nu = 0 to about |nu| = 2.4 on the 14-extent grid, near
# where its n + m = 5 states reach the boundary frame (the adequacy rule
# alone would allow |nu| = 5.6), and the 256-point grid of the Wilson loops
_PIN_CASES = [
    ("grid_coarse", 2.0, 0.0, 0.0, (0, 1, 2), (0, 3)),
    ("grid_coarse", 2.0, 0.3, 0.7, (0, 1, 2), (0, 3)),
    ("grid_coarse", 2.0, 2.0, -3.1, (0, 1, 2), (0, 3)),
    ("grid_coarse", 2.0, -4.0, 5.4, (0, 1, 2), (0, 3)),
    ("grid_coarse", -2.0, 0.3, 0.7, (0, 1, 2), (0, 3)),
    ("grid_coarse", -2.0, 5.5, 3.9, (0, 1, 2), (0, 3)),
    ("grid12", 2.0, 0.9, -1.6, (0, 1), (0, 2)),
    ("grid12", -2.0, 0.9, -1.6, (0, 1), (0, 2)),
]


def _spectral_route_gap(grid, cfg, lam, ex, ey, levels, window) -> float:
    """Max |stack field - spectral route field| over the levels and window of one pin case."""
    point = (ex, ey, lam, 1.0)
    sc = derive_scales(cfg.at_point(*point))
    gap = 0.0
    for n in levels:
        ws = window_states(grid, cfg, point, n, window)
        assert [(w.n, w.m, w.nu) for w in ws] == [(n, m, sc.nu) for m in range(window[0], window[1] + 1)]
        for w in ws:
            ref = displace_field(grid, sc, build_state(grid, sc, n, w.m))
            gap = max(gap, float(np.abs(w.values - ref.values).max()))
    return gap


@pytest.mark.parametrize("grid_name, lam, ex, ey, levels, window", _PIN_CASES)
def test_window_states_match_spectral_route(request, cfg_desk, grid_name, lam, ex, ey, levels, window):
    # the shifted-coordinate construction against raises on the centred
    # Gaussian followed by the FFT translation and phase ramp
    sc = derive_scales(cfg_desk.at_point(ex, ey, lam, 1.0))
    assert sc.sigma == (1 if lam > 0 else -1) and abs(sc.nu) <= 2.45
    assert _spectral_route_gap(request.getfixturevalue(grid_name), cfg_desk, lam, ex, ey, levels, window) <= 1e-9


def _negated_ramp_rates(l_m, s, nu):
    ax, ay, kx, ky = _REAL_DISPLACEMENT(l_m, s, nu)
    return ax, ay, -kx, -ky


def _gaussian_one_percent_wider(grid, l_m, a, out=None):
    return _REAL_GAUSSIAN(grid, 1.01 * l_m, a, out)


_REAL_DISPLACEMENT, _REAL_GAUSSIAN = oracle._displacement, oracle._gaussian
# a slip in the stack's arithmetic, as the oracle function it replaces: the
# spectral route computes its own Gaussian and displacement, so it sees both
_STACK_MUTATIONS = {"_displacement": _negated_ramp_rates, "_gaussian": _gaussian_one_percent_wider}


@pytest.mark.parametrize("name", _STACK_MUTATIONS)
def test_the_spectral_route_fails_a_mutated_stack(request, monkeypatch, cfg_desk, name):
    monkeypatch.setattr(oracle, name, _STACK_MUTATIONS[name])
    gaps = (_spectral_route_gap(request.getfixturevalue(case[0]), cfg_desk, *case[1:]) for case in _PIN_CASES)
    assert any(gap > 1e-9 for gap in gaps)


@pytest.mark.parametrize("points, extent", [(64, 8.0), (100, 30.0), (128, 14.0), (256, 12.0), (257, 20.0)])
def test_ramp_from_two_tables_matches_the_direct_exponential(points, extent):
    # x_j = x_16a + h b for any point count, the product cut back to N
    grid = Grid2D(extent, points)
    rate = np.append(np.random.default_rng(points).uniform(-20.0, 20.0, 10), [-20.0, 0.0, 20.0]).reshape(-1, 1)
    ramp = oracle._ramp(grid, rate)
    assert ramp.shape == (len(rate), points)
    assert np.abs(ramp - np.exp(1j * rate * grid.x)).max() <= 1e-12


@pytest.mark.parametrize("grid_name", ["grid12", "grid_coarse"])
def test_real_factors_take_the_real_derivative(request, grid_name):
    # the real FFT drops the Nyquist term, the only term whose derivative is
    # imaginary, so it matches the real part of the spectral route's complex
    # derivative; at coord 0 and l_m 1 the raise is -df/dx / sqrt(2) alone
    grid = request.getfixturevalue(grid_name)
    l, shift = np.array([[0.8], [1.0], [1.3]]), np.array([[-2.0], [0.0], [1.5]])
    powers = [oracle._gaussian(grid, l, shift)]
    for _ in range(5):
        powers.append(oracle._axis_ladder(grid, l, grid.x + shift, powers[-1], np.empty_like(powers[-1])))
    field = np.outer(powers[2][1], powers[1][0])
    for f in powers + [field, field.T.copy()]:  # a field along y, then along x
        assert f.dtype == np.float64
        real = -math.sqrt(2.0) * oracle._axis_ladder(grid, 1.0, 0.0, f, np.empty_like(f))
        ref = _fields.deriv(grid, f.astype(complex), -1).real
        assert real.dtype == np.float64
        assert np.abs(real - ref).max() <= 1e-13 * np.abs(ref).max()
    # the complex route takes any axis: along x of a field is along y of its transpose
    along_x = _fields.deriv(grid, field.astype(complex), -2)
    assert np.abs(along_x - _fields.deriv(grid, field.T.astype(complex), -1).T).max() <= 1e-14 * np.abs(along_x).max()


test_window_states_validation = refusal_test("test_window_states_validation")
test_fast_paths_reject_states_at_the_frame = refusal_test("test_fast_paths_reject_states_at_the_frame")


def _per_entry(grid, bras, kets):
    return np.array([[overlap(grid, b.values, k.values) for k in kets] for b in bras])


def _largest_rates(grid, config, pts, n, window, scale=1.05) -> float:
    """The largest |ramp rate| of a stack the grid accepts, whose points with fields `scale` times as large it refuses."""
    with pytest.raises(ValidationError):
        oracle._stack(grid, config, [(scale * ex, scale * ey, lam, b) for ex, ey, lam, b in pts], n, window)
    return float(np.abs(oracle._stack(grid, config, pts, n, window).rate).max())


def _pin_fd_matrix(grid, config, point, h=1e-3):
    # the stacked overlaps, which take the ramps as relative phases, against
    # per-entry overlaps of the fields formed with their own ramps; the fd
    # matrix is their quotient, which divides rounding by 2h
    for param in ("Ey_prime", "B"):
        pts = [point] + [oracle._shifted_point(point, param, d) for d in (h, -h)]
        stack = oracle._stack(grid, config, pts, 1, (0, 3))
        bras, plus, minus = (window_states(grid, config, p, 1, (0, 3)) for p in pts)
        pinned = oracle._overlaps(stack[:1], stack[1:])
        for got, kets in zip(pinned, (plus, minus)):
            assert np.abs(got - _per_entry(grid, bras, kets)).max() <= 1e-14
        fd = fd_connection_matrix(grid, config, param, point, 1, (0, 3), h_step=h)
        assert np.array_equal(fd, 1j * (pinned[0] - pinned[1]) / (2 * h))
        want = 1j * (_per_entry(grid, bras, plus) - _per_entry(grid, bras, minus)) / (2 * h)
        assert np.abs(fd - want).max() <= 2e-14 / (2 * h)


def _pin_wilson_links(grid, config, corner):
    # a square of side 0.3 with 16 links: four equally spaced samples per side
    ex, ey = corner[:2]
    loop = rectangle_loop("Ex_prime", "Ey_prime", (ex, ex + 0.3), (ey, ey + 0.3), corner)
    pts = [a + t * (b - a) for a, b in zip(loop.vertices[:-1], loop.vertices[1:]) for t in (0, 0.25, 0.5, 0.75)]
    stack = oracle._stack(grid, config, pts, 0, (0, 1))
    links = oracle._overlaps(stack, stack[[*range(1, len(pts)), 0]])
    frames = [window_states(grid, config, p, 0, (0, 1)) for p in pts]
    product, smallest = np.eye(2, dtype=complex), np.inf
    for k, (prev, cur) in enumerate(zip(frames, frames[1:] + frames[:1])):
        link = _per_entry(grid, prev, cur)
        assert np.abs(links[k] - link).max() <= 1e-14
        smallest = min(smallest, np.linalg.svd(link, compute_uv=False)[-1])
        product = product @ link
    res = wilson_loop_oracle(grid, config, loop, n=0, window=(0, 1), steps=16)
    assert res.points == 16
    assert np.abs(res.matrix - unitarize(product).conj().T).max() <= 1e-14
    assert abs(res.smallest_overlap_singular - smallest) <= 1e-14
    return pts


def test_fd_matrix_matches_per_entry_overlaps(grid_coarse, cfg_desk):
    _pin_fd_matrix(grid_coarse, cfg_desk, (0.3, 0.7, 2.0, 1.0))


def test_wilson_links_match_per_entry_overlaps(grid_coarse, cfg_natural):
    _pin_wilson_links(grid_coarse, cfg_natural, (0.0, 0.2, 1.0, 1.0))


# on the 256-point grid, near the frame at the finest l_m its spacing
# resolves (lambda 14, B 1), both chiralities: ramp rates alpha E / 2 hbar up
# to 27.25, a relative phase of about 2.6 per grid step
@pytest.mark.parametrize("point", [(-20.0, 105.0, 14.0, 1.0), (108.0, 0.0, -14.0, 1.0)])
def test_fd_matrix_matches_per_entry_overlaps_at_the_largest_rates(grid12, cfg_desk, point):
    assert _largest_rates(grid12, cfg_desk, [point], 1, (0, 3)) >= 26.0
    _pin_fd_matrix(grid12, cfg_desk, point)


def test_wilson_links_match_per_entry_overlaps_at_the_largest_rates(grid12, cfg_natural):
    # a square at lambda 7 near the frame: ramp rates up to 28.65
    pts = _pin_wilson_links(grid12, cfg_natural, (0.0, 57.0, 7.0, 1.0))
    assert _largest_rates(grid12, cfg_natural, pts, 0, (0, 1)) >= 28.0


def test_the_stack_keeps_real_powers_and_rates():
    # the factors F = R times the ramp are formed by the test-side
    # window_states alone; the stack holds R and the rates, and overlaps take
    # the ramps' differences
    import ast

    tree = ast.parse(open(oracle.__file__).read())
    stack = next(node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "_Stack")
    fields = [stmt.target.id for stmt in stack.body if isinstance(stmt, ast.AnnAssign)]
    assert fields == ["grid", "R", "rate", "C"]
    callers = {
        stmt.name
        for module in (tree, ast.parse(open(_fields.__file__).read()))
        for stmt in module.body
        for node in ast.walk(stmt)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "_ramp"
    }
    assert callers == {"_overlaps", "window_states"}
    st = oracle._stack(Grid2D(), oracle.OPERATING_CONFIG, [(0.3, 0.7, 2.0, 1.0)] * 2, 1, (0, 2))
    assert st.R.dtype == st.rate.dtype == np.float64
    assert st.R.shape == (2, 2, 4, 256) and st.rate.shape == (2, 2, 1)
    assert all(st.R[k, a, p].flags.c_contiguous for k in range(2) for a in range(2) for p in range(4))  # power-major
    assert np.shares_memory(st[1:].R, st.R)  # a slice pairs points without a copy


def test_a_stack_equals_its_one_point_stacks(grid12, cfg_desk):
    # both chiralities in one stack, so its C come from two sigma
    pts = [(0.3, 0.7, 2.0, 1.0), (0.9, -1.6, -2.0, 1.0), (-0.4, 0.2, 1.5, 1.2)]
    stack = oracle._stack(grid12, cfg_desk, pts, 1, (0, 2))
    singles = [oracle._stack(grid12, cfg_desk, [p], 1, (0, 2)) for p in pts]
    assert np.array_equal(stack.rate, np.concatenate([s.rate for s in singles]))
    assert np.abs(stack.R - np.concatenate([s.R for s in singles])).max() <= 1e-15
    assert np.abs(stack.C - np.concatenate([s.C for s in singles])).max() <= 1e-15
    links = oracle._overlaps(stack, stack[[1, 2, 0]])
    for k, link in enumerate(links):
        assert np.abs(link - oracle._overlaps(singles[k], singles[(k + 1) % 3])[0]).max() <= 1e-15


@pytest.mark.parametrize("override", [None, 1, -1])
def test_stack_scales_equal_the_scales_of_each_point(cfg_desk, rng, override):
    # the array path a stack derives its scales by, against derive_scales of
    # each point's own config, the route a stack took point by point;
    # lambda < 0 gives sigma = -1 unless sigma_override fixes it
    config = replace(cfg_desk, sigma_override=override)
    lam = rng.choice([-1.0, 1.0], 16) * rng.uniform(1.8, 2.6, 16)
    pts = np.column_stack([rng.uniform(-0.8, 0.8, (16, 2)), lam, rng.uniform(0.9, 1.1, 16)])
    _, sigma, l_m, _, nu = _point_scales(config, pts)
    want = [derive_scales(config.at_point(*p)) for p in pts]
    assert np.array_equal(l_m, [w.l_m for w in want])
    assert np.array_equal(nu, [w.nu for w in want])
    assert np.array_equal(sigma, [w.sigma for w in want])
    assert set(sigma) == ({1, -1} if override is None else {override})


_GOOD = (0.3, 0.7, 2.0, 1.0)
_BAD_POINTS = {
    "lambda_B_zero": ((0.3, 0.7, 0.0, 1.0), "lambda_density * B must be nonzero"),
    "infinite_coordinate": ((0.3, math.inf, 2.0, 1.0), "Ey_prime must be a finite number, got inf"),
    "omega_overflows": ((0.3, 0.7, 1e300, 1e10), "omega must be positive and finite, got inf"),
    "omega_underflows": ((0.3, 0.7, 5e-324, 1.0), "omega must be positive and finite, got 0.0"),
}


@pytest.mark.parametrize("name", _BAD_POINTS)
def test_a_bad_point_of_a_stack_is_named(grid12, cfg_desk, name):
    bad, message = _BAD_POINTS[name]
    with pytest.raises(ValidationError) as failure:
        oracle._stack(grid12, cfg_desk, [_GOOD, bad, _GOOD], 0, (0, 1))
    assert str(failure.value).startswith(message)
    assert str(failure.value).endswith(f" at (Ex', Ey', lambda, B) = {bad}")


def _guard_loop(grid, config, pts, n, window) -> str:
    """The first guard failure of a stack found point by point, then by m: the order of the per-point loop."""
    for p in pts:
        try:
            oracle._stack(grid, config, [p], n, window)
        except ValidationError as exc:
            return str(exc)
    return ""


def test_a_guard_failure_at_one_point_of_a_stack_names_its_state(grid12, cfg_desk):
    # at lambda = 1.6 the (n=1, m=2) field reaches the frame while m = 0, 1
    # and every field at lambda = 2 stay inside it; at lambda = 1.4 even m = 0
    # does, so a search by m before point would report that one instead
    good, bad, worse = (0.3, 0.7, 2.0, 1.0), (0.3, 0.7, 1.6, 1.0), (0.3, 0.7, 1.4, 1.0)
    oracle._stack(grid12, cfg_desk, [good, good], 1, (0, 2))
    oracle._stack(grid12, cfg_desk, [bad], 1, (0, 1))
    with pytest.raises(ValidationError, match=r"state \(n=1, m=2\) reaches the boundary frame"):
        oracle._stack(grid12, cfg_desk, [good, bad, good], 1, (0, 2))
    pts = [good, bad, worse, good]
    with pytest.raises(ValidationError) as failure:
        oracle._stack(grid12, cfg_desk, pts, 1, (0, 2))
    assert str(failure.value) == _guard_loop(grid12, cfg_desk, pts, 1, (0, 2))
    assert "m=2" in str(failure.value)


def _bound_and_edges(st):
    """The Cauchy-Schwarz frame bound of every (point, m) of a normalized stack, and its exact frame.

    Edge rows of a field are ends[0] V^T and edge columns ends[1] U^T, and
    max_y |V_yq| <= ||V_q||, so sum_q |ends_q| ||V_q|| bounds an edge; the
    column norms are taken here with np.linalg.norm, not from a Gram.
    """
    ends = [st.R[:, a][:, None, :, [0, -1]].swapaxes(-1, -2) @ c for a, c in ((0, st.C), (1, st.C.swapaxes(-1, -2)))]
    cols = np.linalg.norm(st.R, axis=3)  # (K, 2, size): ||U_q|| and ||V_q||, the unit-modulus ramps left out
    bound = np.maximum(*((np.abs(e) * cols[:, 1 - a, None, None]).sum(axis=-1).max(axis=-1)
                         for a, e in enumerate(ends)))
    return bound, oracle._frame_edges(st.R, ends)


def _counting_edges(monkeypatch) -> list:
    """Count the calls of the exact frame product, which still runs."""
    calls, exact = [], oracle._frame_edges
    monkeypatch.setattr(oracle, "_frame_edges", lambda *args: calls.append(1) or exact(*args))
    return calls


# grid of each point count and the |lambda| range (B near 1) whose l_m it
# holds adequately: on 64 points every field is past the 1e-10 frame
_BOUND_GRIDS = {
    64: (Grid2D(8.0, 64), (1.15, 1.9)),
    128: (Grid2D(14.0, 128), (0.9, 2.6)),
    256: (Grid2D(12.0, 256), (1.3, 2.6)),
}


@pytest.mark.parametrize("points", sorted(_BOUND_GRIDS))
def test_the_frame_bound_is_never_below_the_exact_edges(monkeypatch, cfg_desk, points):
    grid, lam_range = _BOUND_GRIDS[points]
    rng = np.random.default_rng(points)
    stacks = []
    with monkeypatch.context() as mp:  # no field guard: stacks past the frame are measured too
        mp.setattr(oracle, "_BOUNDARY_TOL", math.inf)
        mp.setattr(oracle, "_DRIFT_TOL", math.inf)
        for sigma in (1, -1):
            pts = []
            while len(pts) < 6:  # points the adequacy rule accepts
                p = (*rng.uniform(-1.5, 1.5, 2), sigma * rng.uniform(*lam_range), rng.uniform(0.9, 1.1))
                try:
                    oracle._stack(grid, cfg_desk, [p], 0, (0, 0))
                    pts.append(p)
                except ValidationError:
                    pass
            for n in (0, 1, 2):
                for window in ((0, 0), (0, 1), (1, 2), (0, 3)):
                    stacks.append((pts, n, window, *_bound_and_edges(oracle._stack(grid, cfg_desk, pts, n, window))))
    for pts, n, window, bound, exact in stacks:
        assert np.all(bound >= exact)
        # _stack forms the exact edges just when its bound exceeds the guard,
        # and its bound is this one: a guard just below it forms them, just above it does not
        for scale, formed in ((1.0 - 1e-9, [1]), (1.0 + 1e-9, [])):
            with monkeypatch.context() as mp:
                mp.setattr(oracle, "_BOUNDARY_TOL", scale * bound.max())
                mp.setattr(oracle, "_DRIFT_TOL", math.inf)
                calls = _counting_edges(mp)
                oracle._stack(grid, cfg_desk, pts, n, window)
            assert calls == formed
    # the draws reach past the 1e-10 guard, and on the finer grids inside it
    tol = oracle._BOUNDARY_TOL
    assert max(exact.max() for *_, exact in stacks) > tol
    assert min(bound.min() for *_, bound, _ in stacks) < tol or points == 64


_GOOD, _BAD, _WORSE = (0.3, 0.7, 2.0, 1.0), (0.3, 0.7, 1.6, 1.0), (0.3, 0.7, 1.4, 1.0)
# stacks whose frame bound exceeds 1e-10, with the outcome of the exact guard
# alone, which formed every edge (None: it accepts the stack)
_M2, _M0 = "state (n=1, m=2) reaches the boundary frame at 3.768e-10", "state (n=1, m=0) reaches the boundary frame at 3.382e-10"
_STRADDLE_CASES = {
    "m2_at_one_point": ([_GOOD, _BAD, _GOOD], 1, (0, 2), _M2),
    "point_before_m": ([_GOOD, _BAD, _WORSE, _GOOD], 1, (0, 2), _M2),
    "m0_at_the_first_point": ([_WORSE, _GOOD], 1, (0, 2), _M0),
    "inside_by_the_exact_edges": ([_BAD], 1, (0, 1), None),
}


@pytest.mark.parametrize("name", _STRADDLE_CASES)
def test_a_stack_the_bound_cannot_clear_meets_the_exact_guard(monkeypatch, grid12, cfg_desk, name):
    pts, n, window, message = _STRADDLE_CASES[name]
    calls = _counting_edges(monkeypatch)
    if message is None:
        oracle._stack(grid12, cfg_desk, pts, n, window)
    else:
        with pytest.raises(ValidationError) as failure:
            oracle._stack(grid12, cfg_desk, pts, n, window)
        assert str(failure.value) == f"{message} (> 1e-10); enlarge the grid"
    assert calls == [1]


class _EdgesFormed(Exception):
    pass


def test_a_stack_inside_the_frame_skips_the_exact_edges(monkeypatch, grid12, cfg_natural, cfg_desk):
    def refuse(*args):
        raise _EdgesFormed

    monkeypatch.setattr(oracle, "_frame_edges", refuse)
    # the six-leg box of the oracle_grid benchmark: 60 links on the 256-point grid
    loop = box_loop("ABCHEFA", (0.0, 0.5), (1.2, 1.7), (1.3, 1.8))
    assert wilson_loop_oracle(grid12, cfg_natural, loop, n=0, window=(0, 1), steps=64).points == 60
    with pytest.raises(_EdgesFormed):
        oracle._stack(grid12, cfg_desk, [_GOOD, _BAD, _GOOD], 1, (0, 2))


def test_wilson_loop_identity_for_zero_functional(grid12, cfg_natural):
    # Ey' constant: the loop functional vanishes and the holonomy is trivial
    loop = box_loop("ABCHEFA", (1.0, 1.0), (1.0, 2.0), (1.0, 2.0))
    res = wilson_loop_oracle(grid12, cfg_natural, loop, n=0, window=(0, 1), steps=64)
    assert np.abs(res.matrix - np.eye(2)).max() < 1e-8
    assert res.smallest_overlap_singular > 0.9


def test_wilson_loop_matches_path_ordered(grid12, cfg_natural):
    sc = derive_scales(cfg_natural)
    loop = rectangle_loop("Ex_prime", "Ey_prime", (0.0, 0.3), (0.0, 0.4), (0, 0, 1.0, 1.0))
    wilson = wilson_loop_oracle(grid12, cfg_natural, loop, n=0, window=(0, 1), steps=96)
    ordered = holonomy_path_ordered(loop, sc.u, window=(0, 1), steps=512, target=None)
    assert np.abs(wilson.matrix - ordered.matrix).max() < 1e-6


def test_wilson_loop_is_second_order_in_the_links(grid14, cfg_natural):
    # a loop through all four parameters, against the Magnus engine at 1e-12
    vertices = [(0, 0, 1, 1), (0.3, 0.1, 1, 1), (0.3, 0.45, 1.5, 1), (0.1, 0.45, 1.5, 1.5), (0, 0, 1, 1)]
    loop = ParameterPath(vertices=np.array(vertices, dtype=float), kind="custom")
    u = derive_scales(cfg_natural).u
    exact = holonomy_path_ordered(loop, u, window=(0, 1), target=1e-12, method="magnus").matrix
    errors = [
        np.abs(wilson_loop_oracle(grid14, cfg_natural, loop, n=0, window=(0, 1), steps=s).matrix - exact).max()
        for s in (32, 64, 128)
    ]
    # first order would fall 2x per doubling; this falls about 4x
    assert errors[0] >= 3 * errors[1] >= 9 * errors[2]


test_wilson_validation = refusal_test("test_wilson_validation")


@pytest.mark.parametrize("loop", range(len(_SYMMETRY_LOOPS)))
def test_symmetry_loops_match_the_engine(grid12, cfg_natural, loop):
    # the loops of the symmetry checks carry the physical holonomy, within C6's 1e-4
    vertices = _SYMMETRY_LOOPS[loop]
    u = derive_scales(cfg_natural).u
    exact = holonomy_path_ordered(_closed(vertices), u, window=(0, 1), target=1e-10, method="magnus").matrix
    gamma = _wilson_of(grid12, cfg_natural, vertices)
    assert np.abs(gamma - exact).max() <= 1e-4
    assert np.abs(gamma - np.diag(np.diag(gamma))).max() > 1e-2


_RECTANGLE = [(0, 0, 1, 1), (0.3, 0, 1, 1), (0.3, 0.4, 1, 1), (0, 0.4, 1, 1), (0, 0, 1, 1)]
_ANGLES = np.linspace(0.0, 2.0 * np.pi, 25)
_WILSON_LOOPS = {
    # six equal legs of 0.5, as in the benchmark's box: 60 links, not 6 x 11
    "six_leg_box": (box_loop("ABCHEFA", (0.0, 0.5), (1.2, 1.7), (1.3, 1.8)).vertices, 64),
    "zero_length_segment": (np.array(_RECTANGLE[:2] + _RECTANGLE[1:]), 32),
    "24-gon": (np.column_stack([0.1 + 0.2 * np.cos(_ANGLES), 0.2 + 0.2 * np.sin(_ANGLES), np.ones((25, 2))]), 8),
}


@pytest.mark.parametrize("name", _WILSON_LOOPS)
def test_wilson_links_are_the_engine_allocation(grid12, cfg_natural, name):
    vertices, steps = _WILSON_LOOPS[name]
    loop = ParameterPath(vertices)
    counts = loop._allocation(steps)
    res = wilson_loop_oracle(grid12, cfg_natural, loop, n=0, window=(0, 1), steps=steps)
    assert res.points == counts.sum()
    assert np.all(counts[loop.segment_lengths > 0] >= 2)
    if name == "zero_length_segment":
        # the repeated vertex adds no link: the same points as the plain rectangle
        plain_loop = ParameterPath(np.array(_RECTANGLE))
        plain = wilson_loop_oracle(grid12, cfg_natural, plain_loop, n=0, window=(0, 1), steps=steps)
        assert res.points == plain.points and np.array_equal(res.matrix, plain.matrix)


test_wilson_steps_must_be_an_integer_count = refusal_test("test_wilson_steps_must_be_an_integer_count")
test_fd_h_step_must_be_a_finite_positive_number = refusal_test("test_fd_h_step_must_be_a_finite_positive_number")
test_wavefield_guards = refusal_test("test_wavefield_guards")
test_field_guards_reject_nan = refusal_test("test_field_guards_reject_nan")
test_grid_rejects_bad_sizes = refusal_test("test_grid_rejects_bad_sizes")
test_pipeline_rejects_offgrid_displacement = refusal_test("test_pipeline_rejects_offgrid_displacement")
test_fd_parameter_validation = refusal_test("test_fd_parameter_validation")
test_fd_points_must_have_four_coordinates = refusal_test("test_fd_points_must_have_four_coordinates")
test_malformed_points_and_ranges_are_validation_errors = refusal_test(
    "test_malformed_points_and_ranges_are_validation_errors"
)


def test_sign_convention_report_contents(grid12):
    report = sign_convention_report(grid=grid12)
    assert report["diagonal"]["resolved_relative_sign"] == "opposite"
    assert report["diagonal"]["deviation_resolved"] < 1e-6
    assert report["diagonal"]["deviation_same_sign_variant"] > 1e-3
    assert report["off_diagonal"]["deviation_resolved"] < 1e-4
    assert report["off_diagonal"]["deviation_flipped_sign"] > 1e-2
    assert report["curvature"]["deviation"] < 1e-2
    assert report["curvature"]["measured_over_area_law"] == pytest.approx(-2.0, abs=1e-2)
    text = render_sign_report(report)
    assert "resolved relative sign: opposite" in text
    assert "area-law" in text


@pytest.mark.parametrize("points", [128, 256])
def test_the_report_rectangle_is_exact_at_every_link_count(points):
    # at fixed lambda and B the window (0, 0) states are displaced ground
    # states with nu linear in (Ex', Ey'), and the overlap phases around a
    # straight-edged polygon sum to its area exactly: the link count moves
    # the report's curvature by rounding only
    grid, side = Grid2D(points=points), 0.25
    report = sign_convention_report(grid=grid)
    op = report["operating_point"]
    ex, ey, lam, b, u = (op[k] for k in ("Ex_prime", "Ey_prime", "lambda_density", "B", "u"))
    closed = 1.0 / (8.0 * u * u * lam * b)
    assert report["wilson_points"] == 8
    assert abs(report["curvature"]["measured"] - closed) <= 1e-15
    loop = rectangle_loop("Ex_prime", "Ey_prime", (ex - side / 2, ex + side / 2), (ey - side / 2, ey + side / 2),
                          (ex, ey, lam, b))
    for steps in (8, 16, 32, 64):
        wilson = wilson_loop_oracle(grid, oracle.OPERATING_CONFIG, loop, n=0, window=(0, 0), steps=steps)
        assert wilson.points == steps
        assert abs(np.angle(wilson.matrix[0, 0]) / side**2 - closed) <= 1e-15


def test_the_report_takes_one_fd_stack_and_one_wilson_stack(monkeypatch, grid12):
    calls, real = [], oracle._stack
    monkeypatch.setattr(oracle, "_stack", lambda *args: calls.append(args) or real(*args))
    report = sign_convention_report(grid=grid12)
    # the point and its 8 shifts on window (0, 1); the rectangle's 8 links and the closing point
    assert [(len(pts), n, window) for _, _, pts, n, window in calls] == [(9, 0, (0, 1)), (9, 0, (0, 0))]
    op = report["operating_point"]
    point = tuple(op[k] for k in CONTROL_PARAMS)
    fd = oracle._fd_matrices(grid12, oracle.OPERATING_CONFIG, CONTROL_PARAMS, point, 0, (0, 1), 1e-3)
    entries = {("diagonal", "fd_Ex"): fd[0, 0, 0], ("diagonal", "fd_Ey"): fd[1, 0, 0],
               ("off_diagonal", "fd_lambda_10"): fd[2, 1, 0], ("off_diagonal", "fd_B_10"): fd[3, 1, 0]}
    for (part, key), z in entries.items():
        assert report[part][key] == [float(z.real), float(z.imag)]


# an oracle_grid box (60 links on the 256-point grid) and a quadrilateral
# along which all four parameters move, so that its links do not commute
_QUAD = np.array([(0.2, 0.1, 1.8, 1.0), (-0.3, 0.4, 2.2, 1.1), (-0.1, -0.3, 2.0, 0.9), (0.3, -0.2, 1.6, 1.05), (0.2, 0.1, 1.8, 1.0)])


def test_the_wilson_loop_and_the_engine_take_one_ordered_product(monkeypatch, grid12, cfg_natural, cfg_desk):
    assert oracle._tree_product is holonomy._tree_product is _linalg._tree_product
    cases = [(cfg_natural, box_loop("ABCHEFA", (0.0, 0.5), (1.2, 1.7), (1.3, 1.8)), 64, 60), (cfg_desk, ParameterPath(_QUAD), 32, 32)]
    real = oracle._overlaps
    for config, loop, steps, count in cases:
        links = []
        with monkeypatch.context() as mp:  # the link overlaps: the one call without a Gram
            mp.setattr(oracle, "_overlaps", lambda *args: (links.append(real(*args)) or links[-1]) if len(args) == 2 else real(*args))
            res = wilson_loop_oracle(grid12, config, loop, n=0, window=(0, 1), steps=steps)
        (links,) = links
        assert len(links) == res.points == count
        want = unitarize(reduce(np.matmul, links)).conj().T  # the product in path order, one link at a time
        assert np.abs(res.matrix - want).max() <= 1e-15
        assert np.abs(res.matrix - np.eye(2)).max() > 1e-3  # a loop with a holonomy to get right


def test_oracle_is_independent_of_the_algebra():
    # the grid oracle takes parameter names from params and argument checks
    # from errors, and reads closed forms only to report against them; from
    # the holonomy module it takes loop geometry and validation, never the
    # engine. Its test-side spectral route takes nothing from either.
    import ast

    import dlh.oracle

    tree = ast.parse(open(dlh.oracle.__file__).read())
    forbidden = {"dlh.fock", "dlh.displaced"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert not {a.name for a in node.names} & (forbidden | {"dlh.connection", "dlh.holonomy"})
        elif isinstance(node, ast.ImportFrom):
            base = "dlh" if node.level else ""
            module = ".".join(p for p in (base, node.module) if p)
            names = {a.name for a in node.names}
            assert module not in forbidden
            assert not {f"{module}.{n}" for n in names} & (forbidden | {"dlh.connection", "dlh.holonomy"})
            if module == "dlh.connection":
                assert names == {"connection_matrix", "abelian_curvature"}
            if module == "dlh.holonomy":
                assert names <= {"ParameterPath", "rectangle_loop", "_runs", "_nodes"}
    users = {
        getattr(stmt, "name", type(stmt).__name__)
        for stmt in tree.body
        for node in ast.walk(stmt)
        if isinstance(node, ast.Name) and node.id in ("connection_matrix", "abelian_curvature")
    }
    assert users == {"sign_convention_report"}
    # the spectral route of the tests reads only the oracle, its argument checks and its scales;
    # from the oracle, the grid, the stack and its ramp (to form the stack's fields) and the two
    # field guards, so it shares no arithmetic with the stack
    imported, from_oracle = set(), set()
    for node in ast.walk(ast.parse(open(_fields.__file__).read())):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module)
            if node.module == "dlh.oracle":
                from_oracle |= {a.name for a in node.names}
        elif isinstance(node, ast.Import):
            imported |= {a.name for a in node.names}
    assert {m for m in imported if m.split(".")[0] == "dlh"} == {"dlh.errors", "dlh.oracle", "dlh.params"}
    assert from_oracle == {"Grid2D", "_stack", "_ramp", "_check_drift", "_check_frame"}
