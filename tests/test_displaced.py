import math
import warnings

import numpy as np
import pytest
import scipy.linalg

from dlh.displaced import (
    DisplacedState,
    _dense_route,
    _displacement_block,
    _tail_weight,
    displaced_hamiltonian,
    displaced_state,
    displacement_matrix,
    dual_route_deviation,
    position_shift,
)
import dlh.displaced
from dlh._linalg import _ladder
from dlh.errors import ConsistencyError, ValidationError
from dlh.fock import build_basis, ladder_a, state_from_ground
from dlh.params import derive_scales


def test_displacement_is_unitary(rng):
    basis = build_basis(24, 1)
    for _ in range(4):
        nu = complex(*(0.4 * rng.standard_normal(2)))
        D = displacement_matrix(nu, basis).entries
        assert np.abs(D.conj().T @ D - np.eye(basis.size)).max() < 1e-10


def test_dual_route_agreement(rng):
    basis = build_basis(40, 0)
    for _ in range(6):
        r = 0.5 * rng.random()
        theta = 2 * math.pi * rng.random()
        nu = r * complex(math.cos(theta), math.sin(theta))
        assert dual_route_deviation(nu, basis) < 1e-8


def test_coherent_amplitudes():
    # D(nu)|0,0> must carry the Poissonian column e^{-|nu|^2/2} nu^n / sqrt(n!)
    basis = build_basis(30, 0)
    nu = 0.37 - 0.21j
    state = displaced_state(0, 0, nu, basis)
    for n in range(8):
        expect = math.exp(-abs(nu) ** 2 / 2) * nu**n / math.sqrt(math.factorial(n))
        assert state.coefficients[basis.index(n, 0)] == pytest.approx(expect, abs=1e-12)
    assert state.trunc_deficit < 1e-12


def test_trunc_deficit_is_the_poisson_tail():
    # D(nu)|0> is a coherent state: the weight past n_max is the Poisson
    # tail of mean |nu|^2, here 1.9% of the state
    nu, n_max = math.sqrt(3.92), 8
    with pytest.warns(UserWarning, match="level 0 keeps 0.0191 of its weight past n_max = 8"):
        state = displaced_state(0, 0, nu, build_basis(n_max, 0))
    tail = 1.0 - sum(math.exp(-3.92) * 3.92**k / math.factorial(k) for k in range(n_max + 1))
    assert state.trunc_deficit == pytest.approx(tail, abs=1e-10)
    assert tail == pytest.approx(0.019076, abs=1e-6)
    doubled = _dense_route(nu, 2 * (2 * n_max + 16) - 1)[n_max + 1 :, 0]
    assert abs(np.vdot(doubled, doubled).real - state.trunc_deficit) < 1e-12
    # the coefficients stay the column of D_n on the basis itself
    assert np.array_equal(state.coefficients, _dense_route(nu, n_max)[:, 0])


def test_displacement_block_diagonal_in_m():
    # the displacement lives in the level sector; radial index is a spectator
    basis = build_basis(10, 3)
    D = displacement_matrix(0.3 + 0.1j, basis).entries
    for n_r in range(11):
        for m_r in range(4):
            for n_c in range(11):
                for m_c in range(4):
                    if m_r != m_c:
                        assert D[basis.index(n_r, m_r), basis.index(n_c, m_c)] == 0.0


def test_displaced_state_eigenvector(cfg_desk):
    sc = derive_scales(cfg_desk)
    basis = build_basis(16, 8)
    H = displaced_hamiltonian(sc.nu, basis, sc).entries
    for n, m in ((0, 0), (1, 2), (2, 1)):
        st = displaced_state(n, m, sc.nu, basis)
        c = st.coefficients
        resid = np.linalg.norm(H @ c - sc.energy_quantum * (n + 0.5) * c)
        assert resid < 1e-6


def test_displaced_energy_via_expectation(cfg_desk):
    sc = derive_scales(cfg_desk)
    basis = build_basis(20, 2)
    H = displaced_hamiltonian(sc.nu, basis, sc).entries
    for n in range(3):
        c = displaced_state(n, 1, sc.nu, basis).coefficients
        energy = float(np.real(np.vdot(c, H @ c)))
        assert energy == pytest.approx(sc.energy_quantum * (n + 0.5), rel=1e-10)


def test_truncation_refusal_and_warning():
    # the rule reads the weight that level 0 keeps past n_max: 0.20 at
    # |nu|^2 = 6.25 and 2.0e-5 at 1.44 on n_max = 8
    basis = build_basis(8, 0)
    with pytest.raises(ValidationError, match="level 0 keeps over 0.1"):
        displacement_matrix(2.5, basis)
    with pytest.warns(UserWarning, match="level 0 keeps 2.03e-05 of its weight past n_max = 8"):
        displacement_matrix(1.2, basis, check=False)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        displacement_matrix(0.5, build_basis(40, 0))
    # past |nu|^2 = n_max + 1 the tail is not formed: a huge nu is refused at once
    with pytest.raises(ValidationError, match="level 0 keeps over 0.1"):
        displacement_matrix(1e8, basis)


def _level0_weight(occ, n_max):
    return _tail_weight(math.sqrt(occ), n_max, [0])[0]


@pytest.mark.parametrize("n_max, occ_max", [(1, 0.5318), (4, 2.4326), (12, 8.6459), (40, 33.0379), (100, 88.3536)])
def test_refusal_bound_is_a_level_0_weight_of_one_tenth(n_max, occ_max):
    # occ_max is where level 0 keeps 0.1 of its weight past n_max: the last
    # |nu|^2 the guard accepts, with a warning, on D itself
    assert _level0_weight(occ_max - 1e-4, n_max) <= 0.1 < _level0_weight(occ_max + 1e-4, n_max)
    basis = build_basis(n_max, 0)
    with pytest.warns(UserWarning, match="level 0 keeps 0.1"):
        displacement_matrix(math.sqrt(occ_max - 1e-4), basis, check=False)
    with pytest.raises(ValidationError):
        displacement_matrix(math.sqrt(occ_max + 1e-4), basis, check=False)
    # |nu|^2 = n_max/2 keeps level 0 under it
    assert _level0_weight(n_max / 2, n_max) < 0.091


@pytest.mark.parametrize("entry", ["displacement_matrix", "dual_route_deviation", "displaced_state",
                                   "displaced_hamiltonian"])
@pytest.mark.parametrize("nu", [math.nan, math.inf, complex(0.1, -math.inf), complex(math.nan, 0.2)])
def test_non_finite_nu_is_refused(cfg_desk, entry, nu):
    basis = build_basis(8, 1)
    call = {
        "displacement_matrix": lambda: displacement_matrix(nu, basis, check=False),
        "dual_route_deviation": lambda: dual_route_deviation(nu, basis),
        "displaced_state": lambda: displaced_state(0, 0, nu, basis),
        "displaced_hamiltonian": lambda: displaced_hamiltonian(nu, basis, derive_scales(cfg_desk), check=False),
    }[entry]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="nu must be finite"):
            call()


def test_position_shift_values():
    from dlh.params import PhysicalConfig

    cfg = PhysicalConfig(
        mass=1.0, alpha=1.0, hbar=1.0, lambda_density=1.0, B=1.0, Ex_prime=0.25, Ey_prime=-0.5
    )
    dx, dy = position_shift(cfg)
    # l_m = 1 so the prefactor 2 alpha l^2 / hbar is exactly 2
    assert dx == pytest.approx(0.5)
    assert dy == pytest.approx(-1.0)


def test_displaced_state_dataclass_fields():
    basis = build_basis(12, 1)
    st = displaced_state(1, 1, 0.2j, basis)
    assert isinstance(st, DisplacedState)
    assert (st.n, st.m, st.nu) == (1, 1, 0.2j)
    assert st.coefficients.shape == (basis.size,)


def test_zero_displacement_is_identity():
    basis = build_basis(6, 2)
    D = displacement_matrix(0.0, basis).entries
    assert np.array_equal(D, np.eye(basis.size, dtype=complex))
    vec = state_from_ground(basis, 2, 1)
    st = displaced_state(2, 1, 0.0, basis)
    assert np.array_equal(st.coefficients, vec)


@pytest.mark.parametrize("n_max", [2, 6, 14, 40])
def test_dense_route_matches_scipy_expm(n_max):
    # D_n by the span kernel, pinned to scipy's expm of the same generator,
    # on the n-mode and on a larger mode of 2 n_max + 16 levels
    for size in (n_max, 2 * n_max + 15):
        ap = _ladder((0, size))
        am = ap.T
        for occ in np.linspace(0.0, n_max / 8.0, 4):
            for phase in (0.3, 2.0, 4.4):
                nu = math.sqrt(occ) * complex(math.cos(phase), math.sin(phase))
                D = _dense_route(nu, size)
                assert np.abs(D - scipy.linalg.expm(nu * ap - np.conj(nu) * am)).max() <= 1e-13
                assert np.abs(D.conj().T @ D - np.eye(size + 1)).max() <= 1e-14


def _full_space_route(nu, basis):
    # the displacement as it was built before the Kronecker factorization:
    # expm on the whole (n_max+1)(m_max+1) space
    ap = ladder_a(basis, "plus").entries
    am = ladder_a(basis, "minus").entries
    return ap, am, scipy.linalg.expm(nu * ap - np.conj(nu) * am)


@pytest.mark.parametrize("n_max, m_max, nus", [(40, 6, (0.5 - 0.2j, -0.35j)), (14, 2, (0.3 + 0.1j, -0.25))])
def test_kronecker_displacement_matches_full_space(cfg_desk, n_max, m_max, nus):
    basis = build_basis(n_max, m_max)
    sc = derive_scales(cfg_desk)
    hw = sc.energy_quantum
    eye = np.eye(basis.size)
    interior = basis.interior_indices(n_margin=max(1, n_max // 2), m_margin=0)
    block = np.ix_(interior, interior)
    for nu in nus:
        ap, am, full = _full_space_route(nu, basis)
        D = displacement_matrix(nu, basis).entries
        assert np.abs(D - full).max() <= 1e-14
        # H_nu itself, and the D H D^dag route that checks it, on the interior
        H = displaced_hamiltonian(nu, basis, sc).entries
        direct = hw * ((ap - np.conj(nu) * eye) @ (am - nu * eye) + 0.5 * eye)
        assert np.abs(H - direct).max() <= 1e-14 * np.abs(H).max()
        h0 = hw * (ap @ am + 0.5 * eye)
        conj_kron, conj_full = D @ h0 @ D.conj().T, full @ h0 @ full.conj().T
        assert np.abs(conj_kron[block] - conj_full[block]).max() <= 1e-14 * np.abs(H).max()
        for n, m in ((0, 0), (3, m_max)):
            st = displaced_state(n, m, nu, basis)
            assert np.abs(st.coefficients - full[:, basis.index(n, m)]).max() <= 1e-14


@pytest.mark.parametrize("n_max", [6, 14, 25, 40])
def test_hnu_check_accepts_what_the_truncation_guard_accepts(cfg_desk, n_max):
    # every basis the guard accepts, with or without a warning (up to
    # |nu|^2 = n_max/2, where level 0 keeps at most 0.090 past n_max), must
    # pass the D H D^dag check; at (14, 2), nu = 0.5 - 0.2j, conjugating on
    # the unpadded n-mode was 2.5e-6 off
    sc = derive_scales(cfg_desk)
    nus = [0.5 - 0.2j] + [
        r * math.sqrt(n_max / 2.0) * np.exp(1j * t) for r in (0.25, 0.5, 0.999) for t in (0.3, 2.0, 4.4)
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        for nu in nus:
            for m_max in (0, 2):
                displaced_hamiltonian(nu, build_basis(n_max, m_max), sc, check=True)


def _nu(occ, phase):
    return math.sqrt(occ) * complex(math.cos(phase), math.sin(phase))


@pytest.mark.parametrize("occ, phase", [(0.01, 0.3), (2.0, 2.0), (7.0, 4.4), (20.0, 5.9)])
def test_displacement_block_matches_scipy_expm(occ, phase):
    # the closed form on the infinite ladder, against expm on a 301-level
    # mode whose truncation is far past every block read here; |nu|^2 = 20
    # is n_max/2 at n_max = 40, where the guard accepts up to 33.0
    ap = _ladder((0, 300))
    am = ap.T
    nu = _nu(occ, phase)
    ref = scipy.linalg.expm(nu * ap - np.conj(nu) * am)
    blocks = [(range(4), range(4)), (range(16), range(16)), (range(5, 13), range(5, 13))]
    blocks += [(range(41), range(41)), (range(41, 96), [0, 20, 40])]
    for rows, cols in blocks:
        got = _displacement_block(nu, rows, cols)
        assert np.abs(got - ref[np.ix_(list(rows), list(cols))]).max() <= 1e-13


def test_displacement_block_at_zero_is_the_identity():
    assert np.array_equal(_displacement_block(0.0, range(3, 30), range(41)), np.eye(27, 41, k=3, dtype=complex))


@pytest.mark.parametrize("n_max", [2, 6, 14, 25, 40])
def test_trunc_deficit_matches_the_padded_route_it_replaces(n_max):
    # the deficit used to be read off column n of D_n on a padded mode of
    # 2 n_max + 16 levels; wherever that was resolved the weight past n_max
    # must agree, read one level at a time (trunc_deficit, wherever the guard
    # accepts the state) or for all levels at once (what the C3 check reads)
    basis = build_basis(n_max, 0)
    for occ in np.linspace(0.0, 0.999 * n_max / 8.0, 4)[1:]:
        for phase in (0.3, 4.4):
            nu = _nu(occ, phase)
            padded = _dense_route(nu, 2 * n_max + 15)[n_max + 1 :]
            every = _tail_weight(nu, n_max, range(n_max + 1))
            for n in range(n_max + 1):
                head = float(np.vdot(padded[:, n], padded[:, n]).real)
                if head >= 1e-12:
                    assert abs(every[n] - head) <= 1e-9 * head
                    assert abs(_tail_weight(nu, n_max, [n])[0] - head) <= 1e-9 * head
                if head <= 0.099:
                    with warnings.catch_warnings():
                        warnings.simplefilter("ignore", UserWarning)
                        deficit = displaced_state(n, 0, nu, basis).trunc_deficit
                    assert deficit == _tail_weight(nu, n_max, [n])[0]


def test_trunc_deficit_is_exact_far_below_rounding():
    # far below the rounding floor of any dense route: the Poisson tail of
    # mean |nu|^2 past level 40, 5.2e-97
    occ = 0.0725
    state = displaced_state(0, 0, math.sqrt(occ), build_basis(40, 0))
    tail = sum(math.exp(-occ) * occ**k / math.factorial(k) for k in range(41, 120))
    assert abs(state.trunc_deficit - tail) <= 1e-12 * tail


def test_trunc_deficit_at_the_top_level():
    # n = n_max with |nu|^2 just under n_max/2: most of the state lies past
    # the truncation, and its edge nears the old padded mode's top level 47;
    # the guard refuses that state, so the weight is read from the helper
    nu, n_max = _nu(7.99, 0.7), 16
    with pytest.raises(ValidationError, match="level 16 keeps over 0.1"):
        displaced_state(n_max, 0, nu, build_basis(n_max, 0))
    ap = _ladder((0, 399))
    am = ap.T
    tail = scipy.linalg.expm(nu * ap - np.conj(nu) * am)[n_max + 1 :, n_max]
    assert _tail_weight(nu, n_max, [n_max])[0] == pytest.approx(np.vdot(tail, tail).real, abs=1e-10)


def _reflected(route):
    return lambda beta, *args: route(-beta, *args)


@pytest.mark.parametrize("n_max", [6, 14, 25, 40])
def test_displacement_checks_catch_a_wrong_closed_form(cfg_desk, monkeypatch, n_max):
    # nu = 0.1 - 0.05j passes both checks even at n_max = 6, where C3
    # compares levels 0..2
    nu, basis, sc = 0.1 - 0.05j, build_basis(n_max, 1), derive_scales(cfg_desk)
    displacement_matrix(nu, basis, check=True)
    displaced_hamiltonian(nu, basis, sc, check=True)
    monkeypatch.setattr(dlh.displaced, "_displacement_block", _reflected(_displacement_block))
    with pytest.raises(ConsistencyError):
        displacement_matrix(nu, basis, check=True)
    with pytest.raises(ConsistencyError):
        displaced_hamiltonian(nu, basis, sc, check=True)


@pytest.mark.parametrize("n_max", [6, 14, 25, 40])
def test_displacement_check_catches_a_wrong_dense_route(monkeypatch, n_max):
    basis = build_basis(n_max, 1)
    displacement_matrix(0.1 - 0.05j, basis, check=True)
    monkeypatch.setattr(dlh.displaced, "_dense_route", _reflected(_dense_route))
    with pytest.raises(ConsistencyError):
        displacement_matrix(0.1 - 0.05j, basis, check=True)


# the golden `displace` config: n_max = 4, |nu|^2 = 0.0725, where column 0
# keeps 1.57e-8 of its weight past n_max
GOLDEN_NU = complex(-0.2474873734152916, -0.10606601717798211)


@pytest.mark.parametrize("n_max", range(2, 13))
def test_dual_route_check_raises_only_after_a_warning(n_max):
    # up to |nu|^2 = n_max/8; at (10, 0.5 - 0.2j) the fixed interior cut of
    # n_max - n_max // 2 levels raised at 3.4e-7 without any warning
    nus = {4: [GOLDEN_NU], 10: [0.5 - 0.2j]}.get(n_max, [])
    nus += [_nu(occ, phase) for occ in np.linspace(0.0, n_max / 8.0, 5)[1:] for phase in (0.3, 2.0, 4.4)]
    basis = build_basis(n_max, 1)
    for nu in nus:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                displacement_matrix(nu, basis, check=True)
            except ConsistencyError:
                assert any("of its weight past n_max" in str(w.message) for w in caught), (n_max, nu)


def test_dual_route_check_compares_level_0_of_the_golden_config():
    # level 0 keeps 1.57e-8 past n_max = 4, so the guard is silent and the
    # check compares level 0 alone
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        dev = dual_route_deviation(GOLDEN_NU, build_basis(4, 1))
        displacement_matrix(GOLDEN_NU, build_basis(4, 1), check=True)
    assert 0.0 < dev <= 1e-8


def test_dual_route_check_fails_when_no_level_is_resolved():
    # n_max = 4, nu = 0.5 - 0.2j: every column keeps more than 1.8e-8 of
    # its weight past n_max (level 0: 1.3e-5), so the guard warns and the
    # check compares level 0 alone, 6.3e-8 off, instead of reading nan
    basis = build_basis(4, 1)
    with pytest.warns(UserWarning, match="level 0 keeps 1.34e-05") as caught:
        dev = dual_route_deviation(0.5 - 0.2j, basis)
    assert len(caught) == 1 and 1e-8 < dev <= 0.21 * 1.35e-5
    with pytest.warns(UserWarning, match="level 0 keeps"), pytest.raises(ConsistencyError, match="6.336e-08"):
        displacement_matrix(0.5 - 0.2j, basis, check=True)


_GRID = [(n_max, occ, phase) for n_max in range(2, 13) for occ in np.linspace(n_max / 32, n_max / 8, 4)
         for phase in (0.3, 2.0, 4.4)]


def test_truncation_rule_on_the_grid_of_132_cases():
    # n_max 2-12, |nu|^2 from n_max/32 to n_max/8, m_max 1: under the two
    # old rules 81 of these raised from check=True, 73 of them in silence.
    # Each case now warns once, or passes check=True without a warning.
    assert len(_GRID) == 132
    warned = 0
    for n_max, occ, phase in _GRID:
        basis = build_basis(n_max, 1)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                displacement_matrix(_nu(occ, phase), basis, check=True)
            except ConsistencyError:
                assert caught, (n_max, occ, phase)
            assert len(caught) <= 1 and all("of its weight past n_max" in str(w.message) for w in caught)
            warned += len(caught)
            dev = dual_route_deviation(_nu(occ, phase), basis)
        # the check compares the leading levels at or under 1.8e-8, else level 0
        past = _tail_weight(_nu(occ, phase), n_max, range(n_max + 1))
        k = max(1, int(np.cumprod(past <= 1.8e-8).sum()))
        closed = _displacement_block(_nu(occ, phase), range(k), range(k))
        assert dev == np.abs(_dense_route(_nu(occ, phase), n_max)[:k, :k] - closed).max()
    assert 0 < warned < len(_GRID)


@pytest.mark.parametrize("n_max, occ", [(1, 8.95e-9), (2, 5.967e-9), (12, 1.377e-9), (40, 4.366e-10),
                                        (100, 1.772e-10)])
def test_dual_route_check_at_the_warning_bound(n_max, occ):
    # the top level keeps 1.79e-8 past n_max, just under the warning bound:
    # every level is compared, and the dense route is off by half that
    # weight, 8.95e-9, within 0.5007 times it and the 1e-8 tolerance
    for phase in (0.3, 2.0, 4.4):
        nu = _nu(occ, phase)
        top = _tail_weight(nu, n_max, [n_max])[0]
        assert 1.78e-8 < top <= 1.8e-8
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dev = dual_route_deviation(nu, build_basis(n_max, 0))
        assert 0.49 * top <= dev <= 0.5007 * top


@pytest.mark.parametrize("n_max, occ", [(1, 0.5315), (4, 2.432), (12, 8.644), (40, 33.03), (100, 88.35)])
def test_dual_route_check_at_the_refusal_bound(n_max, occ):
    # level 0 keeps 0.0998-0.0999 past n_max, under the refusal bound: the guard
    # warns, and the check compares level 0 alone, within 0.21 times that weight
    for phase in (0.3, 4.4):
        with pytest.warns(UserWarning, match="level 0 keeps 0.099"):
            dev = dual_route_deviation(_nu(occ, phase), build_basis(n_max, 0))
        assert dev <= 0.21 * 0.0999


@pytest.mark.parametrize("occ", np.linspace(0.0, 5.0, 11))
def test_oracle_check_n_mode_is_accepted_in_silence(cfg_desk, occ):
    # oracle-check sizes the n-mode of its D checks as 16 + 8 ceil(|nu|^2)
    # levels; up to |nu|^2 = 5 the guard accepts it without a warning and
    # both checks pass
    basis = build_basis(16 + 8 * math.ceil(occ), 1)
    sc = derive_scales(cfg_desk)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for phase in (0.3, 2.0, 4.4):
            assert dual_route_deviation(_nu(occ, phase), basis) <= 2e-9
            displacement_matrix(_nu(occ, phase), basis, check=True)
            displaced_hamiltonian(_nu(occ, phase), basis, sc, check=True)
