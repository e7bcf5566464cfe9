"""Acceptance suite: one test per shipped guarantee, at the stated tolerance.

Each test prints a single ``ACCEPTANCE C<k> PASS`` line with the measured
numbers (visible with ``pytest -v -s`` or on failure), and asserts the
tolerance and, where stated, the runtime budget. The tests deliberately
rebuild reference quantities inline (explicit matrices, closed forms)
instead of calling the library helper under test.
"""

import json
import math
import time

import numpy as np
import pytest
import scipy.linalg

from dlh.cli import main as cli_main
from dlh.connection import (
    CONTROL_PARAMS,
    abelian_curvature,
    chain_rule_consistency,
    connection_matrix,
)
from dlh.displaced import (
    displaced_hamiltonian,
    displaced_state,
    displacement_matrix,
)
from dlh.fock import build_basis, hamiltonian_matrix
from dlh.holonomy import (
    ParameterPath,
    abelian_phase,
    area_closed_form,
    box_loop,
    holonomy_path_ordered,
    level_holonomy,
    loop_area_integral,
    rectangle_loop,
    unordered_holonomy,
)
from dlh.oracle import (
    Grid2D,
    fd_connection_matrix,
    sign_convention_report,
    wilson_loop_oracle,
)
from dlh.params import derive_scales

from _algebra import commutator, dual_route_deviation, interior_indices, ladder_a, ladder_b
from _fields import apply_base_hamiltonian, apply_uniform_field_hamiltonian, build_state, overlap, window_states
from _loops import BB, C9_VERTICES, EY, LAM
from _ode import dop853_holonomy

BOX_KINDS = ("ABCHEFA", "ABCHGFA", "ADCHEFA")


def test_c01_ladder_algebra_interior(cfg_desk):
    t0 = time.perf_counter()
    basis = build_basis(12, 12)
    am, ap = ladder_a(basis, "minus"), ladder_a(basis, "plus")
    bp, bm = ladder_b(basis, "plus"), ladder_b(basis, "minus")
    interior = interior_indices(basis, 1, 1)
    blk = np.ix_(interior, interior)
    eye = np.eye(basis.size)
    devs = [
        np.abs(commutator(am, ap).entries[blk] - eye[blk]).max(),
        np.abs(commutator(bp, bm).entries[blk] - eye[blk]).max(),
    ]
    for x in (am, ap):
        for y in (bp, bm):
            devs.append(np.abs(commutator(x, y).entries[blk]).max())
    elapsed = time.perf_counter() - t0
    worst = max(devs)
    assert worst <= 1e-12
    assert elapsed < 1.0
    print(
        f"ACCEPTANCE C1 PASS: interior commutator deviations <= {worst:.3e} "
        f"(tol 1e-12) on (12,12) basis in {elapsed:.3f} s"
    )


def test_c02_spectrum_exact_and_grid(grid12, cfg_natural):
    t0 = time.perf_counter()
    sc = derive_scales(cfg_natural)
    basis = build_basis(6, 6, sigma=sc.sigma)
    H = hamiltonian_matrix(basis, sc).entries
    expected_diag = np.array(
        [sc.energy_quantum * (basis.labels(i)[0] + 0.5) for i in range(basis.size)]
    )
    assert np.array_equal(np.diag(H).real, expected_diag)
    assert np.count_nonzero(H - np.diag(np.diag(H))) == 0
    eigs = np.linalg.eigvalsh(H)
    assert np.abs(np.sort(expected_diag) - eigs).max() < 1e-14

    point = (cfg_natural.Ex_prime, cfg_natural.Ey_prime, cfg_natural.lambda_density, cfg_natural.B)
    worst_rel = 0.0
    for n in range(4):
        bare = build_state(grid12, sc, n, 1)
        e_bare = overlap(grid12, bare.values, apply_base_hamiltonian(grid12, sc, bare.values)).real
        disp = window_states(grid12, cfg_natural, point, n, (1, 1))[0]
        e_disp = overlap(
            grid12, disp.values, apply_uniform_field_hamiltonian(grid12, sc, disp.values)
        ).real
        want = sc.energy_quantum * (n + 0.5)
        worst_rel = max(worst_rel, abs(e_bare - want) / want, abs(e_disp - want) / want)
    elapsed = time.perf_counter() - t0
    assert worst_rel <= 1e-4
    assert elapsed < 30.0
    print(
        f"ACCEPTANCE C2 PASS: exact diagonal spectrum; grid expectations within "
        f"{worst_rel:.3e} relative (tol 1e-4) for n <= 3 in {elapsed:.2f} s"
    )


def test_c03_displacement_consistency(rng, cfg_desk):
    basis = build_basis(40, 2)
    sc = derive_scales(cfg_desk)
    nus = [0.5, 0.5j, -0.5, -0.5j]
    for _ in range(6):
        r = 0.5 * rng.random()
        th = 2 * math.pi * rng.random()
        nus.append(r * complex(math.cos(th), math.sin(th)))
    worst_dual = max(dual_route_deviation(nu, basis) for nu in nus)
    assert worst_dual <= 1e-8

    worst_unitary = 0.0
    for nu in nus:
        D = displacement_matrix(nu, basis).entries
        worst_unitary = max(
            worst_unitary, np.abs(D.conj().T @ D - np.eye(basis.size)).max()
        )
    assert worst_unitary <= 1e-8

    H = displaced_hamiltonian(sc.nu, basis, sc).entries
    worst_resid = 0.0
    for n, m in ((0, 0), (1, 2), (2, 1), (3, 0)):
        st = displaced_state(n, m, sc.nu, basis)
        resid = np.linalg.norm(
            H @ st.coefficients - sc.energy_quantum * (n + 0.5) * st.coefficients
        )
        worst_resid = max(worst_resid, resid)
    assert worst_resid <= 1e-6
    print(
        f"ACCEPTANCE C3 PASS: dual-route {worst_dual:.3e} (tol 1e-8), "
        f"unitarity {worst_unitary:.3e} (tol 1e-8), eigen-residual "
        f"{worst_resid:.3e} (tol 1e-6) at n_max=40, |nu| <= 0.5"
    )


def test_c04_connection_cross_validation(rng, grid_coarse, cfg_desk):
    sc = derive_scales(cfg_desk)
    point = (cfg_desk.Ex_prime, cfg_desk.Ey_prime, cfg_desk.lambda_density, cfg_desk.B)

    pts = [point]
    for _ in range(4):
        pts.append(
            (
                float(2.0 * rng.standard_normal()),
                float(2.0 * rng.standard_normal()),
                float(0.5 + 3.0 * rng.random()),
                float(0.5 + 3.0 * rng.random()),
            )
        )
    worst_chain = max(chain_rule_consistency(p, sc.u, 0, (0, 4))["max"] for p in pts)
    assert worst_chain <= 1e-10

    worst_fd = 0.0
    for param in CONTROL_PARAMS:
        closed = connection_matrix(param, point, sc.u, 0, (0, 4)).entries
        scale = np.abs(closed).max()
        for n in range(3):
            fd = fd_connection_matrix(grid_coarse, cfg_desk, param, point, n, (0, 4))
            worst_fd = max(worst_fd, float(np.abs(fd - closed).max() / scale))
    assert worst_fd <= 1e-4

    report = sign_convention_report(grid=Grid2D(extent=12.0, points=128))
    assert report["diagonal"]["resolved_relative_sign"] == "opposite"
    ratio = report["curvature"]["measured_over_area_law"]
    assert ratio == pytest.approx(-2.0, abs=1e-2)
    assert "factor 2" in report["curvature"]["flag"]
    assert "orientation" in report["curvature"]["flag"]
    print(
        "ACCEPTANCE C4 PASS: chain-rule vs closed form "
        f"{worst_chain:.3e} (tol 1e-10); FD oracle vs closed form {worst_fd:.3e} "
        "relative (tol 1e-4) on all params, m <= 4, n <= 2; sign report: "
        f"relative sign of the in-plane pair is {report['diagonal']['resolved_relative_sign']!r}, "
        f"measured curvature {report['curvature']['measured']:+.6f} vs printed area-law "
        f"coefficient {report['curvature']['area_law_coefficient']:+.6f} "
        f"(ratio {ratio:+.3f}: flagged as factor-2 magnitude, opposite orientation)"
    )


def test_c05_abelian_phase(capsys):
    loop = rectangle_loop("Ex_prime", "Ey_prime", (0.0, 1.0), (0.0, 1.0), (0.0, 0.0, 2.0, 1.0))
    u = 0.5
    ph = abelian_phase(loop, u)
    dev = abs(ph.gamma_line_integral - abelian_curvature((0, 0, 2.0, 1.0), u) * ph.signed_area)
    assert dev <= 1e-9
    assert ph.gamma_area_law == -0.125

    # the shipped CLI reports the same area-law number
    rc = cli_main(["phase", "--named", "C1"])
    out = capsys.readouterr().out
    assert rc == 0
    import json

    assert json.loads(out)["gamma_area_law"] == -0.125
    print(
        f"ACCEPTANCE C5 PASS: line integral = curvature x area to {dev:.3e} "
        f"(tol 1e-9); area-law output -0.125 at u=0.5, lambda=2, B=1, unit area"
    )


def test_c06_identity_holonomy(grid12, cfg_natural):
    sc = derive_scales(cfg_natural)
    ey_flat = (0.7, 0.7)
    lam_r, b_r = (1.0, 2.0), (1.0, 2.0)
    worst_ordered = worst_wilson = 0.0
    for kind in BOX_KINDS:
        loop = box_loop(kind, ey_flat, lam_r, b_r)
        res = holonomy_path_ordered(loop, sc.u, window=(0, 2), steps=256, target=None)
        worst_ordered = max(worst_ordered, np.abs(res.matrix - np.eye(3)).max())
        wil = wilson_loop_oracle(grid12, cfg_natural, loop, n=0, window=(0, 1), steps=64)
        worst_wilson = max(worst_wilson, np.abs(wil.matrix - np.eye(2)).max())
        assert area_closed_form(kind, ey_flat, lam_r, b_r) == 0.0
        assert abs(loop_area_integral(loop)) <= 1e-12
    assert worst_ordered <= 1e-7
    assert worst_wilson <= 1e-4
    print(
        f"ACCEPTANCE C6 PASS: Ey1=Ey2 loops give ||Gamma - I|| <= {worst_ordered:.3e} "
        f"path-ordered (tol 1e-7) and <= {worst_wilson:.3e} Wilson (tol 1e-4); "
        "S2 = S3 = S4 = 0 exactly"
    )


def test_c07_commuting_closed_form():
    u = 1.0 / math.sqrt(8.0)  # natural units: hbar = alpha = 1, so 1/(4u) = 2u
    window = (0, 3)
    T = np.zeros((4, 4))
    for i in range(3):
        T[i + 1, i] = T[i, i + 1] = math.sqrt(i + 1)
    details = []
    # "auto" takes every box segment as one exact factor; "magnus" integrates
    # every segment step by step
    for method in ("auto", "magnus"):
        for kind in BOX_KINDS:
            t0 = time.perf_counter()
            loop = box_loop(kind, EY, LAM, BB)
            res = holonomy_path_ordered(loop, u, window=window, steps=4096, target=None, method=method)
            s = area_closed_form(kind, EY, LAM, BB)
            want = scipy.linalg.expm(1j * 2.0 * u * s * T)
            dev = float(np.abs(res.matrix - want).max())
            elapsed = time.perf_counter() - t0
            assert dev <= 1e-6
            assert res.steps <= 4096
            assert elapsed < 10.0
            details.append(f"{kind} ({method}) dev {dev:.3e} in {elapsed:.2f} s")
    print(
        "ACCEPTANCE C7 PASS: path-ordered holonomy, exact segments and Magnus steps, "
        "matches exp(i 2u S T) (tol 1e-6, <= 4096 steps, window size 4): " + "; ".join(details)
    )


def test_c08_area_formulas(rng):
    canonical = area_closed_form("ABCHEFA", EY, LAM, BB)
    assert canonical == -0.75
    worst = abs(loop_area_integral(box_loop("ABCHEFA", EY, LAM, BB)) - canonical)
    for kind in BOX_KINDS:
        for _ in range(5):
            ey = sorted(rng.uniform(-1.5, 1.5, size=2))
            lam = sorted(rng.uniform(0.4, 5.0, size=2))
            bb = sorted(rng.uniform(0.4, 5.0, size=2))
            dev = abs(loop_area_integral(box_loop(kind, ey, lam, bb)) - area_closed_form(kind, ey, lam, bb))
            worst = max(worst, dev)
    assert worst <= 1e-9
    print(
        f"ACCEPTANCE C8 PASS: printed S formulas vs quadrature deviate <= {worst:.3e} "
        f"(tol 1e-9), including the hand value S2 = -3/4 for Ey 0->1, lambda 1->4, B 1->4"
    )


def test_c09_noncommutativity(cfg_desk):
    sc = derive_scales(cfg_desk)
    generic = ParameterPath(C9_VERTICES)
    flat = ParameterPath(np.column_stack([np.zeros(len(C9_VERTICES)), C9_VERTICES[:, 1:]]))

    def defect(loop):
        # the ordered product, unrefined at 1024 steps, against the step-free unordered exponential
        ordered = holonomy_path_ordered(loop, sc.u, window=(0, 3), steps=1024, target=None).matrix
        return float(np.abs(ordered - unordered_holonomy(loop, sc.u, window=(0, 3))).max())

    defect_generic, defect_flat = defect(generic), defect(flat)
    assert defect_generic > 1e-4
    assert defect_flat < 1e-8
    print(
        f"ACCEPTANCE C9 PASS: path-ordering diagnostic {defect_generic:.3e} > 1e-4 "
        f"with Ex' engaged vs {defect_flat:.3e} < 1e-8 on the Ex' = 0 projection"
    )


def test_c10_holonomy_hygiene(cfg_natural):
    sc = derive_scales(cfg_natural)
    loops = [box_loop(kind, EY, LAM, BB) for kind in BOX_KINDS]
    # a loop engaging all four parameters, so the product is genuinely ordered
    loops.append(ParameterPath(C9_VERTICES))
    worst_unitarity = worst_reversal = 0.0
    for loop in loops:
        fwd = holonomy_path_ordered(loop, sc.u, window=(0, 3), steps=512, target=None)
        worst_unitarity = max(worst_unitarity, fwd.unitarity_defect)
        bwd = holonomy_path_ordered(ParameterPath(loop.vertices[::-1], kind=loop.kind), sc.u, window=(0, 3), steps=512, target=None)
        worst_reversal = max(
            worst_reversal, float(np.abs(bwd.matrix - fwd.matrix.conj().T).max())
        )
        ests = [
            holonomy_path_ordered(loop, sc.u, window=(0, 3), steps=s, target=None, method="magnus")
            .convergence_estimate
            for s in (128, 256, 512, 1024)
        ]
        assert ests[0] > ests[1] > ests[2] > ests[3]
    assert worst_unitarity <= 1e-8
    assert worst_reversal <= 1e-7
    print(
        f"ACCEPTANCE C10 PASS: unitarity defect <= {worst_unitarity:.3e} (tol 1e-8), "
        f"path reversal gives the adjoint to {worst_reversal:.3e} (tol 1e-7), "
        "convergence monotone over three step-halving refinements on all loops"
    )


def test_c11_level_holonomy(capsys):
    t0 = time.perf_counter()
    # C9's generic loop: the (0, 3) block of the whole level against DOP853 on
    # the chain-rule connection, on the padded window (0, 8)
    c9 = ParameterPath(C9_VERTICES)
    dev_dop853 = float(np.abs(level_holonomy(c9, 0.5).matrix - dop853_holonomy(c9, 0.5, (0, 8))[:4, :4]).max())
    # ABCHEFA at Ex' = 0.5, u = 0.5: every segment is exact, yet chi != 0; by
    # hand, Phi = -15/128, chi = -9/128 and Z = S / (4u) = -3/8
    box = level_holonomy(box_loop("ABCHEFA", EY, LAM, BB, ex=0.5), 0.5)
    dev_box = max(abs(box.Phi + 0.1171875), abs(box.chi + 0.0703125), abs(box.Z + 0.375))
    # `dlh holonomy --named ABCHEFA` (Ex' = 0): `matrix` is the product projected
    # on the window (0, 3), exp(i (S / 4u) T) on four levels, and `level.block`
    # the (0, 3) block of exp(i (S / 4u) (L + L^T)) on a ladder of 31 levels
    assert cli_main(["holonomy", "--named", "ABCHEFA", "--format", "json"]) == 0
    out = json.loads(capsys.readouterr().out)
    matrix, block = (np.array(x) @ np.array([1.0, 1j]) for x in (out["matrix"], out["level"]["block"]))
    angle = area_closed_form("ABCHEFA", EY, LAM, BB) / (4.0 * out["u"])
    L = np.diag(np.sqrt(np.arange(1.0, 31.0)), -1)
    dev_projected = float(np.abs(matrix - scipy.linalg.expm(1j * angle * (L + L.T)[:4, :4])).max())
    dev_level = float(np.abs(block - scipy.linalg.expm(1j * angle * (L + L.T))[:4, :4]).max())
    gap = float(np.abs(matrix - block).max())
    elapsed = time.perf_counter() - t0
    assert dev_dop853 <= 1e-11
    assert dev_box <= 1e-13
    assert dev_projected <= 1e-12 and dev_level <= 1e-12
    assert gap > 0.1
    print(
        f"ACCEPTANCE C11 PASS: level block vs padded DOP853 on C9's loop {dev_dop853:.3e} (tol 1e-11); "
        f"ABCHEFA at Ex' = 0.5 (Phi, chi, Z) within {dev_box:.3e} of (-15/128, -9/128, -3/8) (tol 1e-13); "
        f"`dlh holonomy --named ABCHEFA` matrix and level block each within {max(dev_projected, dev_level):.3e} "
        f"of their expm (tol 1e-12) and {gap:.3f} apart (> 0.1), in {elapsed:.2f} s"
    )
