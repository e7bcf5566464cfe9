import math

import numpy as np
import pytest

from dlh.errors import ValidationError
from dlh.fock import (
    build_basis,
    commutator,
    hamiltonian_matrix,
    ladder_a,
    ladder_b,
    lz_matrix,
    state_from_ground,
)
from dlh.params import derive_scales


def test_basis_indexing_roundtrip():
    basis = build_basis(3, 5)
    assert basis.size == 24
    for n in range(4):
        for m in range(6):
            idx = basis.index(n, m)
            assert basis.labels(idx) == (n, m)
    with pytest.raises(ValidationError):
        basis.index(4, 0)
    with pytest.raises(ValidationError):
        basis.index(0, 6)
    with pytest.raises(ValidationError):
        build_basis(-1, 2)


@pytest.mark.parametrize("bounds", [(4.5, 1), (4, 1.0), (True, 1), (4, False), ("4", 1)])
def test_basis_bounds_must_be_integers(bounds):
    with pytest.raises(ValidationError, match="must be an integer"):
        build_basis(*bounds)


def test_basis_bounds_become_plain_ints():
    basis = build_basis(np.int64(4), np.int32(1))
    assert type(basis.n_max) is int and type(basis.m_max) is int and basis.size == 10


@pytest.mark.parametrize("sigma", [True, 1.0, np.float64(-1.0)])
def test_basis_sigma_must_be_an_integer_sign(sigma):
    with pytest.raises(ValidationError, match="sigma must be"):
        build_basis(1, 1, sigma=sigma)
    assert build_basis(1, 1, sigma=np.int64(-1)).sigma == -1


@pytest.mark.parametrize("idx", [1.5, True, np.float64(2.0)])
def test_labels_takes_an_integer_index(idx):
    basis = build_basis(2, 2)
    with pytest.raises(ValidationError, match="outside basis"):
        basis.labels(idx)
    assert basis.labels(np.int64(4)) == (1, 1)


def test_level_ladder_elements():
    basis = build_basis(5, 2)
    ap = ladder_a(basis, "plus").entries
    am = ladder_a(basis, "minus").entries
    for n in range(5):
        for m in range(3):
            assert ap[basis.index(n + 1, m), basis.index(n, m)] == pytest.approx(
                math.sqrt(n + 1)
            )
    assert np.allclose(am, ap.conj().T)
    # a ladders never touch m
    for n in range(6):
        assert ap[basis.index(min(n + 1, 5), 1), basis.index(n, 0)] == 0.0


def test_radial_ladder_elements():
    # "plus" lowers m with sqrt(m); "minus" raises m with sqrt(m+1)
    basis = build_basis(2, 5)
    bp = ladder_b(basis, "plus").entries
    bm = ladder_b(basis, "minus").entries
    for m in range(1, 6):
        assert bp[basis.index(0, m - 1), basis.index(0, m)] == pytest.approx(math.sqrt(m))
    for m in range(5):
        assert bm[basis.index(0, m + 1), basis.index(0, m)] == pytest.approx(math.sqrt(m + 1))
    assert np.allclose(bm, bp.conj().T)


def test_ground_annihilation():
    basis = build_basis(4, 4)
    vac = state_from_ground(basis, 0, 0)
    assert np.all(ladder_a(basis, "minus").entries @ vac == 0)
    assert np.all(ladder_b(basis, "plus").entries @ vac == 0)


def test_commutators_on_interior():
    basis = build_basis(8, 8)
    am, ap = ladder_a(basis, "minus"), ladder_a(basis, "plus")
    bp, bm = ladder_b(basis, "plus"), ladder_b(basis, "minus")
    eye = np.eye(basis.size)
    interior = basis.interior_indices(1, 1)
    blk = np.ix_(interior, interior)

    caa = commutator(am, ap).entries
    cbb = commutator(bp, bm).entries
    assert np.abs(caa[blk] - eye[blk]).max() < 1e-13
    assert np.abs(cbb[blk] - eye[blk]).max() < 1e-13
    for x in (am, ap):
        for y in (bp, bm):
            assert np.abs(commutator(x, y).entries[blk]).max() < 1e-13


def test_hamiltonian_and_lz(cfg_desk):
    sc = derive_scales(cfg_desk)
    basis = build_basis(4, 6, sigma=sc.sigma)
    H = hamiltonian_matrix(basis, sc).entries
    Lz = lz_matrix(basis, sc).entries
    for n in range(5):
        for m in range(7):
            i = basis.index(n, m)
            assert H[i, i] == sc.energy_quantum * (n + 0.5)
            assert Lz[i, i] == sc.hbar * sc.sigma * (m - n)
    assert np.count_nonzero(H - np.diag(np.diag(H))) == 0
    assert np.abs(H @ Lz - Lz @ H).max() == 0.0


def test_lz_flips_with_sigma(cfg_desk):
    sc = derive_scales(cfg_desk)
    flipped = derive_scales(
        cfg_desk.at_point(
            cfg_desk.Ex_prime, cfg_desk.Ey_prime, -cfg_desk.lambda_density, cfg_desk.B
        )
    )
    assert flipped.sigma == -sc.sigma
    basis_p = build_basis(2, 2, sigma=sc.sigma)
    basis_m = build_basis(2, 2, sigma=flipped.sigma)
    lz_p = lz_matrix(basis_p, sc).entries
    lz_m = lz_matrix(basis_m, flipped).entries
    assert np.allclose(lz_p, -lz_m)


def test_state_from_ground_unit_vector():
    basis = build_basis(3, 3)
    vec = state_from_ground(basis, 2, 1)
    assert vec[basis.index(2, 1)] == 1.0
    assert np.linalg.norm(vec) == 1.0
    with pytest.raises(ValidationError):
        state_from_ground(basis, 4, 0)
