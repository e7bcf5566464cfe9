import math

import numpy as np
import pytest

from dlh._linalg import _ladder
from dlh.connection import (
    CONTROL_PARAMS,
    _check_window,
    _generator_scalars,
    _generators,
    abelian_curvature,
    chain_rule_consistency,
    connection_general,
    connection_matrix,
)

from _refusals import refusal_test


def _random_points(rng, count):
    pts = []
    for _ in range(count):
        ex, ey = 2.0 * rng.standard_normal(2)
        lam = 0.5 + 3.0 * rng.random()
        b = 0.5 + 3.0 * rng.random()
        pts.append((float(ex), float(ey), float(lam), float(b)))
    return pts


def test_chain_rule_matches_closed_form(rng):
    for pt in _random_points(rng, 8):
        u = 0.3 + rng.random()
        devs = chain_rule_consistency(pt, u, n=1, window=(0, 5))
        assert devs["max"] < 1e-12
        assert set(devs) == set(CONTROL_PARAMS) | {"max"}


def test_diagonal_closed_forms():
    pt = (0.3, 0.7, 2.0, 1.5)
    u = 0.45
    k = 1.0 / (16.0 * u * u * 2.0 * 1.5)
    a_ex = connection_matrix("Ex_prime", pt, u, 0, (0, 3)).entries
    a_ey = connection_matrix("Ey_prime", pt, u, 0, (0, 3)).entries
    for m in range(4):
        assert a_ex[m, m] == pytest.approx(-0.7 * k)
        assert a_ey[m, m] == pytest.approx(0.3 * k)
    # in-plane components have no off-diagonal band
    assert a_ex[1, 0] == 0.0
    assert a_ey[0, 1] == 0.0


def test_offdiagonal_closed_forms():
    ex, ey, lam, b = 0.2, -0.4, 1.3, 0.8
    pt = (ex, ey, lam, b)
    u = 0.5
    a_lam = connection_matrix("lambda_density", pt, u, 2, (0, 3)).entries
    a_b = connection_matrix("B", pt, u, 2, (0, 3)).entries
    for m in range(3):
        want = complex(ey, -ex) * math.sqrt(m + 1) / (8 * u * lam**1.5 * math.sqrt(b))
        assert a_lam[m + 1, m] == pytest.approx(want)
        want_b = complex(ey, -ex) * math.sqrt(m + 1) / (8 * u * math.sqrt(lam) * b**1.5)
        assert a_b[m + 1, m] == pytest.approx(want_b)
    # A(B) = A(lambda) * lam / B entry by entry
    a_lam = connection_matrix("lambda_density", pt, u, 0, (0, 3)).entries
    a_b = connection_matrix("B", pt, u, 0, (0, 3)).entries
    for m in range(3):
        assert a_b[m + 1, m] / a_lam[m + 1, m] == pytest.approx(lam / b)


def test_matrix_is_hermitian_tridiagonal(rng):
    pt = (0.6, -0.2, 1.0, 2.0)
    for param in CONTROL_PARAMS:
        mat = connection_matrix(param, pt, 0.5, n=0, window=(0, 6)).entries
        assert np.abs(mat - mat.conj().T).max() < 1e-15
        for i in range(7):
            for j in range(7):
                if abs(i - j) > 1:
                    assert mat[i, j] == 0.0


def test_matrix_window_offset():
    pt = (0.1, 0.9, 1.5, 1.5)
    full = connection_matrix("lambda_density", pt, 0.4, 0, (0, 6)).entries
    sub = connection_matrix("lambda_density", pt, 0.4, 0, (2, 5))
    assert np.allclose(sub.entries, full[2:6, 2:6])


def test_level_independence():
    pt = (0.5, 0.5, 1.0, 1.0)
    for param in CONTROL_PARAMS:
        a0 = connection_matrix(param, pt, 0.7, 0, (0, 3)).entries
        a3 = connection_matrix(param, pt, 0.7, 3, (0, 3)).entries
        assert np.array_equal(a0, a3)


def test_curvature_value_and_area_law_link():
    pt = (0.0, 0.0, 2.0, 1.0)
    u = 0.5
    assert abelian_curvature(pt, u) == pytest.approx(1.0 / (8 * 0.25 * 2.0))
    area_law = -1.0 / (16 * u * u * 2.0 * 1.0)
    assert abelian_curvature(pt, u) == pytest.approx(-2.0 * area_law)


def test_curvature_matches_fd_of_closed_form():
    # cross-derivative of the in-plane pair, centered differences
    u, lam, b = 0.6, 1.7, 0.9
    h = 1e-6
    m = 2

    def a_ex(ex, ey):
        return connection_matrix("Ex_prime", (ex, ey, lam, b), u, 0, (m, m)).entries[0, 0].real

    def a_ey(ex, ey):
        return connection_matrix("Ey_prime", (ex, ey, lam, b), u, 0, (m, m)).entries[0, 0].real

    fd = (a_ey(h, 0.0) - a_ey(-h, 0.0)) / (2 * h) - (a_ex(0.0, h) - a_ex(0.0, -h)) / (2 * h)
    assert fd == pytest.approx(abelian_curvature((0, 0, lam, b), u), rel=1e-9)


test_validation_errors = refusal_test("test_validation_errors")


@pytest.mark.parametrize("signs", [(-1, 1), (1, -1), (-1, -1)])
def test_a_point_of_either_sign_reads_w_and_the_log_step(signs):
    # once refused as lambda <= 0: at Ex' = Ey' = 0 the one entry is 0
    assert connection_matrix("B", (0, 0, -1.0, 1.0), 0.5, 0, (0, 0)).entries.tolist() == [[0j]]
    # w and the curvature do not see the signs of lambda and B; A_lambda and A_B take them, as d ln|lambda B| does
    pt, u = (0.3, -0.7, 1.6, 0.9), 0.45
    flipped = (*pt[:2], signs[0] * pt[2], signs[1] * pt[3])
    for param, sign in zip(CONTROL_PARAMS, (1, 1, *signs)):
        want = sign * connection_matrix(param, pt, u, 0, (0, 4)).entries
        assert np.array_equal(connection_matrix(param, flipped, u, 0, (0, 4)).entries, want)
    assert abelian_curvature(flipped, u) == abelian_curvature(pt, u)
    assert chain_rule_consistency(flipped, u, 0, (0, 4))["max"] < 1e-15
test_window_bounds_must_be_integers = refusal_test("test_window_bounds_must_be_integers")


def test_window_check_returns_plain_ints():
    bounds = _check_window((np.int64(1), np.int32(3)))
    assert bounds == (1, 3) and all(type(v) is int for v in bounds)


test_non_finite_points_and_u_are_rejected = refusal_test("test_non_finite_points_and_u_are_rejected")

test_a_point_where_lambda_b_is_not_finite_is_refused = refusal_test("test_a_point_where_lambda_b_is_not_finite_is_refused")


def test_in_plane_elements_zero_at_origin():
    pt = (0.0, 0.0, 1.0, 1.0)
    for param in ("Ex_prime", "Ey_prime"):
        mat = connection_matrix(param, pt, 0.5, 0, (0, 4)).entries
        assert np.abs(mat).max() == 0.0
    # off-diagonal band also vanishes when both field components are zero
    for param in ("lambda_density", "B"):
        mat = connection_matrix(param, pt, 0.5, 0, (0, 4)).entries
        assert np.abs(mat).max() == 0.0


def test_one_generator_matches_chain_rule(rng):
    # the single closed form, contracted with an arbitrary step, against the
    # chain-rule route summed over parameters entry by entry
    for pt in _random_points(rng, 6):
        u = 0.3 + rng.random()
        window = (int(rng.integers(0, 3)), int(rng.integers(3, 6)))
        L = _ladder(window)
        for _ in range(3):
            d = rng.standard_normal(4)
            got = _generators(*_generator_scalars(pt, d, u), L)
            want = np.zeros_like(got)
            for param, dp in zip(CONTROL_PARAMS, d):
                for i, k in enumerate(range(window[0], window[1] + 1)):
                    for j, m in enumerate(range(window[0], window[1] + 1)):
                        want[i, j] += dp * connection_general(param, pt, u, 0, k, m)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_generator_stack_matches_single_points(rng):
    pts = np.array(_random_points(rng, 5))
    steps = rng.standard_normal((5, 4))
    phi, zeta = _generator_scalars(pts, steps, 0.7)
    for p, d, f, z in zip(pts, steps, phi, zeta):
        assert _generator_scalars(p, d, 0.7) == (f, z)
