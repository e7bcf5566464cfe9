import math
from dataclasses import replace
from functools import reduce

import numpy as np
import pytest

from dlh import _linalg, holonomy, oracle
from dlh._linalg import unitarize
from dlh.connection import CONTROL_PARAMS, connection_matrix
from dlh.errors import ValidationError
from dlh.holonomy import ParameterPath, area_closed_form, box_loop, holonomy_path_ordered, rectangle_loop
from dlh.oracle import (
    Grid2D,
    WaveField,
    apply_base_hamiltonian,
    apply_angular_momentum,
    apply_level_lower,
    apply_level_raise,
    apply_radial_lower,
    apply_radial_raise,
    apply_uniform_field_hamiltonian,
    build_state,
    displace_field,
    fd_connection_matrix,
    ground_state,
    render_sign_report,
    sign_convention_report,
    wilson_loop_oracle,
    window_states,
)
from dlh.params import PhysicalConfig, _point_scales, derive_scales


def test_grid_adequacy_rules():
    grid = Grid2D()
    grid.check_adequate(1.0)
    with pytest.raises(ValidationError):
        grid.check_adequate(3.0)  # extent 12 < 6 * 3
    with pytest.raises(ValidationError):
        grid.check_adequate(0.1)  # h ~ 0.094 > 0.1 / 4
    with pytest.raises(ValidationError):
        grid.check_adequate(1.0, shift=7.0)
    with pytest.raises(ValidationError):
        Grid2D(extent=-1.0, points=64)
    with pytest.raises(ValidationError):
        Grid2D(extent=12.0, points=3)


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
    assert abs(grid12.norm(g.values) - 1.0) < 1e-12
    r2 = grid12.X**2 + grid12.Y**2
    mean_r2 = grid12.overlap(g.values, r2 * g.values).real
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
            assert abs(grid_coarse.overlap(f, g) - want) < 1e-6


def test_displacement_centroid_and_coherence(grid12, cfg_natural):
    sc = derive_scales(cfg_natural)
    point = (cfg_natural.Ex_prime, cfg_natural.Ey_prime, cfg_natural.lambda_density, cfg_natural.B)
    psi = window_states(grid12, cfg_natural, point, 0, (0, 0))[0]
    nu = sc.nu
    cx = grid12.overlap(psi.values, grid12.X * psi.values).real
    cy = grid12.overlap(psi.values, grid12.Y * psi.values).real
    assert cx == pytest.approx(-math.sqrt(2.0) * sc.l_m * nu.imag, abs=1e-10)
    assert cy == pytest.approx(math.sqrt(2.0) * sc.sigma * sc.l_m * nu.real, abs=1e-10)
    # displaced ground field is a coherent state of the level ladder
    lowered = apply_level_lower(grid12, sc.l_m, sc.sigma, psi.values)
    amp = grid12.overlap(psi.values, lowered)
    assert abs(amp - nu) < 1e-12
    assert np.abs(lowered - nu * psi.values).max() < 1e-10


def test_energies_on_grid(grid12, cfg_natural):
    sc = derive_scales(cfg_natural)
    hw = sc.energy_quantum
    point = (cfg_natural.Ex_prime, cfg_natural.Ey_prime, cfg_natural.lambda_density, cfg_natural.B)
    for n in (0, 1):
        psi = window_states(grid12, cfg_natural, point, n, (1, 1))[0]
        e = grid12.overlap(psi.values, apply_uniform_field_hamiltonian(grid12, sc, psi.values)).real
        assert e / hw == pytest.approx(n + 0.5, rel=1e-6)
    bare = build_state(grid12, sc, 2, 0)
    e2 = grid12.overlap(bare.values, apply_base_hamiltonian(grid12, sc, bare.values)).real
    assert e2 / hw == pytest.approx(2.5, rel=1e-6)


def test_angular_momentum_both_chiralities(grid12):
    for lam, sigma in ((1.0, 1), (-1.0, -1)):
        cfg = PhysicalConfig(
            mass=1.0, alpha=1.0, hbar=1.0, lambda_density=lam, B=1.0, Ex_prime=0.0, Ey_prime=0.0
        )
        sc = derive_scales(cfg)
        assert sc.sigma == sigma
        f = build_state(grid12, sc, 0, 2).values
        lz = grid12.overlap(f, apply_angular_momentum(grid12, sc.hbar, f)).real
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


@pytest.mark.parametrize("grid_name, lam, ex, ey, levels, window", _PIN_CASES)
def test_window_states_match_spectral_route(request, cfg_desk, grid_name, lam, ex, ey, levels, window):
    # the shifted-coordinate construction against raises on the centred
    # Gaussian followed by the FFT translation and phase ramp
    grid = request.getfixturevalue(grid_name)
    point = (ex, ey, lam, 1.0)
    sc = derive_scales(cfg_desk.at_point(*point))
    assert sc.sigma == (1 if lam > 0 else -1) and abs(sc.nu) <= 2.45
    for n in levels:
        ws = window_states(grid, cfg_desk, point, n, window)
        assert [(w.n, w.m, w.nu) for w in ws] == [(n, m, sc.nu) for m in range(window[0], window[1] + 1)]
        for w in ws:
            ref = displace_field(grid, sc, build_state(grid, sc, n, w.m))
            assert np.abs(w.values - ref.values).max() <= 1e-9


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
    # imaginary, so it matches the real part of the complex route
    grid = request.getfixturevalue(grid_name)
    l, shift = np.array([[0.8], [1.0], [1.3]]), np.array([[-2.0], [0.0], [1.5]])
    powers = [oracle._gaussian(grid, l, shift)]
    for _ in range(5):
        powers.append(oracle._axis_ladder(grid, l, -1, grid.x + shift, powers[-1], -1))
    field = np.outer(powers[2][1], powers[1][0])
    for f, axis in [(p, -1) for p in powers] + [(field, -2), (field, -1)]:
        assert f.dtype == np.float64
        real, ref = oracle._deriv(grid, f, axis), oracle._deriv(grid, f.astype(complex), axis).real
        assert real.dtype == np.float64
        assert np.abs(real - ref).max() <= 1e-13 * np.abs(ref).max()


def test_window_states_validation(grid_coarse, cfg_desk):
    with pytest.raises(ValidationError):
        window_states(grid_coarse, cfg_desk, (0.3, 0.7, 2.0, 1.0), -1, (0, 1))
    with pytest.raises(ValidationError):
        window_states(grid_coarse, cfg_desk, (0.3, 0.7, 2.0, 1.0), 0, (-1, -1))


# a window with a state past the 1e-10 boundary guard: (grid, point, n, window)
_FRAME_CASES = [
    ("grid12", (0.9, -0.4, -1.5, 1.0), 2, (1, 3)),
    ("grid14", (0.3, 0.7, 2.0, 1.0), 3, (0, 4)),
]


@pytest.mark.parametrize("grid_name, point, n, window", _FRAME_CASES)
def test_fast_paths_reject_states_at_the_frame(request, cfg_desk, grid_name, point, n, window):
    # the guard is computed from the factors on the Wilson and fd paths,
    # which never form the fields
    grid = request.getfixturevalue(grid_name)
    # a loop keeps lambda > 0; the mirrored point has the same l_m and |nu|
    ex, ey, lam, b = point
    loop = rectangle_loop("Ex_prime", "Ey_prime", (ex, ex + 0.1), (ey, ey + 0.1), (ex, ey, abs(lam), b))
    for call in (
        lambda: window_states(grid, cfg_desk, point, n, window),
        lambda: fd_connection_matrix(grid, cfg_desk, "B", point, n, window),
        lambda: wilson_loop_oracle(grid, cfg_desk, loop, n=n, window=window, steps=8),
    ):
        with pytest.raises(ValidationError, match="boundary frame"):
            call()


def _per_entry(grid, bras, kets):
    return np.array([[grid.overlap(b.values, k.values) for k in kets] for b in bras])


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
    # the factors F = R times the ramp are formed by window_states alone; the
    # stack holds R and the rates, and overlaps take the ramps' differences
    import ast

    tree = ast.parse(open(oracle.__file__).read())
    stack = next(node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "_Stack")
    fields = [stmt.target.id for stmt in stack.body if isinstance(stmt, ast.AnnAssign)]
    assert fields == ["grid", "l_m", "sigma", "nu", "R", "rate", "C"]
    callers = {
        stmt.name
        for stmt in tree.body
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
    for name in ("l_m", "sigma", "nu", "rate"):
        assert np.array_equal(getattr(stack, name), np.concatenate([getattr(s, name) for s in singles]))
    assert np.abs(stack.R - np.concatenate([s.R for s in singles])).max() <= 1e-15
    assert np.abs(stack.C - np.concatenate([s.C for s in singles])).max() <= 1e-15
    links = oracle._overlaps(stack, stack[[1, 2, 0]])
    for k, link in enumerate(links):
        assert np.abs(link - oracle._overlaps(singles[k], singles[(k + 1) % 3])[0]).max() <= 1e-15


@pytest.mark.parametrize("override", [None, 1, -1])
def test_stack_scales_equal_the_scales_of_each_point(grid12, cfg_desk, rng, override):
    # the array path against derive_scales of each point's own config, the
    # route a stack took point by point; lambda < 0 gives sigma = -1 unless
    # sigma_override fixes it
    config = replace(cfg_desk, sigma_override=override)
    lam = rng.choice([-1.0, 1.0], 16) * rng.uniform(1.8, 2.6, 16)
    pts = np.column_stack([rng.uniform(-0.8, 0.8, (16, 2)), lam, rng.uniform(0.9, 1.1, 16)])
    stack = oracle._stack(grid12, config, pts, 0, (0, 1))
    want = [derive_scales(config.at_point(*p)) for p in pts]
    assert np.array_equal(stack.l_m, [w.l_m for w in want])
    assert np.array_equal(stack.nu, [w.nu for w in want])
    assert np.array_equal(stack.sigma, [w.sigma for w in want])
    assert set(stack.sigma) == ({1, -1} if override is None else {override})


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


def test_wilson_validation(grid12, cfg_natural):
    loop = rectangle_loop("Ex_prime", "Ey_prime", (0, 0.2), (0, 0.2), (0, 0, 1, 1))
    import dlh.holonomy as hol

    # an open path is refused where it is built, before any oracle sees it
    with pytest.raises(ValidationError, match="must be closed"):
        hol.ParameterPath(loop.vertices[:-1])
    with pytest.raises(ValidationError):
        wilson_loop_oracle(grid12, cfg_natural, loop, steps=4)
    # a reversed window fails validation, also on a constant path that
    # needs no grid states
    const = hol.ParameterPath(np.array([[0.0, 0.5, 1.0, 1.0]] * 3))
    with pytest.raises(ValidationError, match="window"):
        wilson_loop_oracle(grid12, cfg_natural, const, window=(3, 1))


# quadrilaterals through all four parameters, 16 links a side, whose holonomy
# is not diagonal; the quarter turn and the mirror map the 256-point square
# grid onto itself and reversal reverses the links, so each relation holds to
# rounding, with no discretization error
_SYMMETRY_LOOPS = [
    [(0.1, 0.2, 1.0, 1.0), (0.5, 0.1, 1.2, 1.0), (0.6, 0.5, 1.2, 1.2), (0.2, 0.6, 1.0, 1.2)],
    [(-0.3, 0.4, 1.2, 0.9), (0.2, -0.2, 1.0, 1.1), (0.7, 0.3, 1.3, 1.0), (0.1, 0.9, 1.1, 1.2)],
    [(0.8, -0.6, 1.0, 1.0), (1.2, 0.1, 1.5, 1.0), (0.4, 0.7, 1.5, 1.3), (-0.2, -0.1, 1.0, 1.3)],
]


def _closed(vertices) -> ParameterPath:
    return ParameterPath(np.array(vertices + vertices[:1], dtype=float))


def _wilson_of(grid, config, vertices):
    res = wilson_loop_oracle(grid, config, _closed(vertices), n=0, window=(0, 1), steps=64)
    assert res.points == 64
    return res.matrix


@pytest.mark.parametrize("loop", range(len(_SYMMETRY_LOOPS)))
def test_symmetry_loops_match_the_engine(grid12, cfg_natural, loop):
    # the loops of the symmetry checks carry the physical holonomy, within C6's 1e-4
    vertices = _SYMMETRY_LOOPS[loop]
    u = derive_scales(cfg_natural).u
    exact = holonomy_path_ordered(_closed(vertices), u, window=(0, 1), target=1e-10, method="magnus").matrix
    gamma = _wilson_of(grid12, cfg_natural, vertices)
    assert np.abs(gamma - exact).max() <= 1e-4
    assert np.abs(gamma - np.diag(np.diag(gamma))).max() > 1e-2


@pytest.mark.parametrize("loop", range(len(_SYMMETRY_LOOPS)))
def test_wilson_loop_quarter_turn(grid12, cfg_natural, loop):
    # (Ex', Ey') -> (-Ey', Ex') multiplies Ey' - i Ex' by i: Gamma -> R Gamma R^dag, R = diag(i^m)
    vertices = _SYMMETRY_LOOPS[loop]
    gamma = _wilson_of(grid12, cfg_natural, vertices)
    turned = _wilson_of(grid12, cfg_natural, [(-ey, ex, lam, b) for ex, ey, lam, b in vertices])
    right, wrong = np.diag([1.0, 1j]), np.diag([1.0, -1j])
    assert np.abs(turned - right @ gamma @ right.conj().T).max() <= 1e-12
    assert np.abs(turned - wrong @ gamma @ wrong.conj().T).max() > 1e-3


@pytest.mark.parametrize("loop", range(len(_SYMMETRY_LOOPS)))
def test_wilson_loop_mirror(grid12, cfg_natural, loop):
    # Ey' -> -Ey' sends each generator Theta to -conj(Theta): Gamma -> conj(Gamma)
    vertices = _SYMMETRY_LOOPS[loop]
    gamma = _wilson_of(grid12, cfg_natural, vertices)
    mirrored = _wilson_of(grid12, cfg_natural, [(ex, -ey, lam, b) for ex, ey, lam, b in vertices])
    assert np.abs(mirrored - gamma.conj()).max() <= 1e-12
    assert np.abs(gamma - gamma.conj()).max() > 1e-3


@pytest.mark.parametrize("loop", range(len(_SYMMETRY_LOOPS)))
def test_wilson_loop_reversal(grid12, cfg_natural, loop):
    # the same loop from the same vertex, the other way round: Gamma -> Gamma^dag
    vertices = _SYMMETRY_LOOPS[loop]
    gamma = _wilson_of(grid12, cfg_natural, vertices)
    reversed_ = _wilson_of(grid12, cfg_natural, vertices[:1] + vertices[:0:-1])
    assert np.abs(reversed_ - gamma.conj().T).max() <= 1e-12
    assert np.abs(gamma - gamma.conj().T).max() > 1e-3


# the quarter turn Q: (Ex', Ey') -> (-Ey', Ex') multiplies Ey' - i Ex' by i, so
# A_k(Qp) = sign R A_j(p) R^dag with R = diag(i^m), for (k, (j, sign)) below;
# the mirror M: Ey' -> -Ey' gives A_k(Mp) = sign conj(A_k(p))
_QUARTER_TURN = {"Ex_prime": ("Ey_prime", -1), "Ey_prime": ("Ex_prime", 1),
                 "lambda_density": ("lambda_density", 1), "B": ("B", 1)}
_MIRROR = {"Ex_prime": -1, "Ey_prime": 1, "lambda_density": -1, "B": -1}


@pytest.mark.parametrize("route, tol", [("closed_form", 1e-15), ("fd", 1e-11)])
@pytest.mark.parametrize("point", [(0.3, 0.7, 2.0, 1.0), (-0.4, 0.25, 1.5, 1.2)])
def test_connection_quarter_turn_and_mirror(grid12, cfg_desk, route, tol, point):
    u = derive_scales(cfg_desk).u

    def connection(p):
        if route == "closed_form":
            return {k: connection_matrix(k, p, u, 0, (0, 3)).entries for k in CONTROL_PARAMS}
        return {k: fd_connection_matrix(grid12, cfg_desk, k, p, 0, (0, 3)) for k in CONTROL_PARAMS}

    ex, ey, lam, b = point
    at_p, at_q, at_m = connection(point), connection((-ey, ex, lam, b)), connection((ex, -ey, lam, b))
    right, wrong = np.diag(1j ** np.arange(4)), np.diag((-1j) ** np.arange(4))
    for k, (j, sign) in _QUARTER_TURN.items():
        assert np.abs(at_q[k] - sign * right @ at_p[j] @ right.conj().T).max() <= tol
        assert np.abs(at_m[k] - _MIRROR[k] * at_p[k].conj()).max() <= tol
    for k in ("lambda_density", "B"):
        assert np.abs(at_q[k] - wrong @ at_p[k] @ wrong.conj().T).max() > 1e-2


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


@pytest.mark.parametrize("steps", ["64", 16.5, True, 4])
def test_wilson_steps_must_be_an_integer_count(grid12, cfg_natural, steps):
    loop = rectangle_loop("Ex_prime", "Ey_prime", (0, 0.2), (0, 0.2), (0, 0, 1, 1))
    with pytest.raises(ValidationError, match="steps"):
        wilson_loop_oracle(grid12, cfg_natural, loop, steps=steps)


@pytest.mark.parametrize("h_step", ["1e-3", math.nan, math.inf, -math.inf, 0.0, -1e-3])
def test_fd_h_step_must_be_a_finite_positive_number(grid12, cfg_desk, h_step):
    with pytest.raises(ValidationError, match="h_step"):
        fd_connection_matrix(grid12, cfg_desk, "B", (0.1, 0.1, 1.0, 1.0), 0, (0, 1), h_step=h_step)


def test_wavefield_guards(grid12):
    bad = np.ones((grid12.points, grid12.points), dtype=complex)
    with pytest.raises(ValidationError):
        WaveField(grid=grid12, values=bad, n=0, m=0, nu=0j, l_m=1.0)
    # normalized but leaking through the boundary frame
    leak = np.exp(-((grid12.X - 10.0) ** 2 + grid12.Y**2) / 4.0).astype(complex)
    leak /= grid12.norm(leak)
    with pytest.raises(ValidationError):
        WaveField(grid=grid12, values=leak, n=0, m=0, nu=0j, l_m=1.0)
    with pytest.raises(ValidationError):
        WaveField(grid=grid12, values=bad[:10, :10], n=0, m=0, nu=0j, l_m=1.0)
    with pytest.raises(ValidationError, match="normalized"):
        WaveField(grid=grid12, values=np.full_like(bad, np.nan), n=0, m=0, nu=0j, l_m=1.0)


def test_field_guards_reject_nan():
    with pytest.raises(ValidationError, match="drifted"):
        oracle._check_drift(math.nan, "state (n=0, m=0)")
    with pytest.raises(ValidationError, match="boundary frame"):
        oracle._check_frame(math.nan, "state (n=0, m=0)")


@pytest.mark.parametrize(
    "extent, points",
    [(math.nan, 256), (math.inf, 256), (0.0, 256), (True, 256), ("12", 256), (12.0, 256.5), (12.0, 63), (12.0, True), (12.0, "256")],
)
def test_grid_rejects_bad_sizes(extent, points):
    with pytest.raises(ValidationError, match="grid"):
        Grid2D(extent=extent, points=points)


def test_pipeline_rejects_offgrid_displacement(grid12, cfg_natural):
    with pytest.raises(ValidationError):
        window_states(grid12, cfg_natural, (0.0, 20.0, 1.0, 1.0), 0, (0, 0))


def test_fd_parameter_validation(grid12, cfg_desk):
    point = (0.1, 0.1, 1.0, 1.0)
    with pytest.raises(ValidationError):
        fd_connection_matrix(grid12, cfg_desk, "Ez", point, 0, (0, 0))
    with pytest.raises(ValidationError):
        fd_connection_matrix(grid12, cfg_desk, "B", point, 0, (0, 0), h_step=0.0)
    with pytest.raises(ValidationError):
        fd_connection_matrix(grid12, cfg_desk, "B", point, 0, (2, 1))


@pytest.mark.parametrize("param", CONTROL_PARAMS)
@pytest.mark.parametrize("point", [(0.3, 0.7, 2.0), (0.3, 0.7, 2.0, 1.0, 0.5)])
def test_fd_points_must_have_four_coordinates(grid12, cfg_desk, param, point):
    # checked before a coordinate is shifted, whichever parameter it is
    with pytest.raises(ValidationError, match=f"got {len(point)} coordinates"):
        fd_connection_matrix(grid12, cfg_desk, param, point, 0, (0, 1))


# malformed points and ranges: each once escaped as a raw TypeError or ValueError, or returned a float
_MALFORMED = {
    "fd_point_not_a_sequence": lambda g, cfg: fd_connection_matrix(g, cfg, "B", 5, 0, (0, 1)),
    "rectangle_range_not_a_pair": lambda g, cfg: rectangle_loop("Ex_prime", "Ey_prime", 1.0, (0, 1), (0, 0, 1, 1)),
    "area_range_not_a_pair": lambda g, cfg: area_closed_form("ABCHEFA", 3, (1, 2), (1, 2)),
    "fd_string_coordinate": lambda g, cfg: fd_connection_matrix(g, cfg, "B", (0, "a", 1, 1), 0, (0, 1)),
    "window_states_string_coordinate": lambda g, cfg: window_states(g, cfg, (0, "a", 1, 1), 0, (0, 1)),
    "point_scales_string_coordinate": lambda g, cfg: _point_scales(cfg, [(0, "a", 1, 1)]),
    "rectangle_string_in_range": lambda g, cfg: rectangle_loop("Ex_prime", "Ey_prime", (0, "a"), (0, 1), (0, 0, 1, 1)),
    "rectangle_string_in_base_point": lambda g, cfg: rectangle_loop("Ex_prime", "Ey_prime", (0, 1), (0, 1), (0, "a", 1, 1)),
    "box_string_in_range": lambda g, cfg: box_loop("ABCHEFA", (0, "a"), (1, 2), (1, 2)),
    "box_string_base_ex": lambda g, cfg: box_loop("ABCHEFA", (0, 1), (1, 2), (1, 2), ex="a"),
    "box_three_entry_range": lambda g, cfg: box_loop("ABCHEFA", (0, 1, 2), (1, 2), (1, 2)),
    "ragged_vertices": lambda g, cfg: ParameterPath([(0, 0, 1, 1), (0, 1, 1)]),
    "area_nan_range": lambda g, cfg: area_closed_form("ABCHEFA", (0, math.nan), (1, 2), (1, 2)),
    "area_inf_range": lambda g, cfg: area_closed_form("ABCHEFA", (0, 1), (1, math.inf), (1, 2)),
}


@pytest.mark.parametrize("name", _MALFORMED)
def test_malformed_points_and_ranges_are_validation_errors(grid12, cfg_desk, name):
    with pytest.raises(ValidationError):
        _MALFORMED[name](grid12, cfg_desk)


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
    # engine
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
                assert names == {"connection_matrix"}
            if module == "dlh.holonomy":
                assert names <= {"ParameterPath", "rectangle_loop", "_runs", "_nodes"}
    users = {
        getattr(stmt, "name", type(stmt).__name__)
        for stmt in tree.body
        for node in ast.walk(stmt)
        if isinstance(node, ast.Name) and node.id == "connection_matrix"
    }
    assert users == {"sign_convention_report"}
