import math
from dataclasses import replace

import numpy as np
import pytest

from dlh.errors import ValidationError
from dlh.params import CONTROL_PARAMS, PhysicalConfig, _point_scales, derive_scales, validate_regime

from _refusals import refusal_test

# natural units with omega = 1, sigma = +1, u = 1/sqrt(8)
NATURAL = PhysicalConfig(mass=1.0, alpha=1.0, hbar=1.0, lambda_density=1.0, B=1.0)


def test_natural_desk_scales():
    sc = derive_scales(NATURAL)
    assert sc.omega == 1.0
    assert sc.sigma == 1
    assert sc.l_m == 1.0
    assert sc.u == pytest.approx(1.0 / math.sqrt(8.0), rel=1e-15)
    assert sc.nu == 0j
    assert sc.energy_quantum == 1.0


def test_desk_config_u_half(cfg_desk):
    sc = derive_scales(cfg_desk)
    assert sc.u == 0.5
    assert sc.l_m == 1.0
    assert sc.omega == 1.0


def test_length_scale_identity(rng):
    # l_m^2 = hbar / (M omega) = hbar / (alpha |lambda B|) in every configuration
    for _ in range(25):
        mass, alpha, hbar = rng.uniform(0.2, 5.0, size=3)
        lam = rng.uniform(0.2, 5.0) * rng.choice([-1.0, 1.0])
        b = rng.uniform(0.2, 5.0) * rng.choice([-1.0, 1.0])
        cfg = PhysicalConfig(mass=mass, alpha=alpha, hbar=hbar, lambda_density=lam, B=b)
        sc = derive_scales(cfg)
        assert sc.omega == pytest.approx(alpha * abs(lam * b) / mass, rel=1e-14)
        assert sc.l_m**2 * mass * sc.omega == pytest.approx(hbar, rel=1e-14)
        assert sc.l_m**2 * alpha * abs(lam * b) == pytest.approx(hbar, rel=1e-14)
        assert sc.u == pytest.approx(math.sqrt(hbar / (8.0 * alpha)), rel=1e-14)


def test_sigma_follows_sign_of_lambda_B():
    for lam, b, want in [(1.0, 1.0, 1), (-1.0, 1.0, -1), (1.0, -1.0, -1), (-1.0, -1.0, 1)]:
        cfg = PhysicalConfig(mass=1.0, alpha=1.0, hbar=1.0, lambda_density=lam, B=b)
        assert derive_scales(cfg).sigma == want


def test_sigma_override():
    cfg = PhysicalConfig(
        mass=1.0, alpha=1.0, hbar=1.0, lambda_density=1.0, B=1.0, sigma_override=-1
    )
    assert derive_scales(cfg).sigma == -1
    assert derive_scales(replace(cfg, sigma_override=np.int64(1))).sigma == 1


def _scalar_scales(config):
    """The one-point formula in Python floats, operation for operation: the reference of the array path."""
    lam_B = config.lambda_density * config.B
    omega = config.alpha * abs(lam_B) / config.mass
    sigma = int(np.sign(lam_B)) if config.sigma_override is None else config.sigma_override
    l_m = math.sqrt(config.hbar / (config.mass * omega))
    u = math.sqrt(config.hbar / (8.0 * config.alpha))
    c = config.alpha * l_m / (math.sqrt(2.0) * config.hbar)
    return omega, sigma, l_m, u, complex(-c * config.Ey_prime, -c * config.Ex_prime)


def test_scales_equal_the_scalar_formula(rng):
    # bit for bit and as plain Python numbers, so that printed scales keep
    # their bytes; the signed zeros of nu included
    for k in range(60):
        mass, alpha, hbar = rng.uniform(0.2, 5.0, size=3).tolist()
        lam, b = (rng.uniform(0.2, 5.0, 2) * rng.choice([-1.0, 1.0], 2)).tolist()
        ex, ey = rng.uniform(-2.0, 2.0, 2).tolist() if k % 3 else rng.choice([0.0, -0.0], 2).tolist()
        cfg = PhysicalConfig(mass=mass, alpha=alpha, hbar=hbar, lambda_density=lam, B=b, Ex_prime=ex, Ey_prime=ey,
                             sigma_override=(None, 1, -1)[k % 3])
        sc = derive_scales(cfg)
        got = (sc.omega, sc.sigma, sc.l_m, sc.u, sc.nu)
        want = _scalar_scales(cfg)
        assert got == want and [type(v) for v in got] == [float, int, float, float, complex]
        assert [math.copysign(1.0, z) for z in (sc.nu.real, sc.nu.imag)] == [
            math.copysign(1.0, z) for z in (want[4].real, want[4].imag)
        ]


def test_no_module_moves_a_config_point_by_point():
    # at_point goes through dataclasses.replace and every check of a config;
    # a stack of points derives its scales as arrays instead
    import ast
    from pathlib import Path

    import dlh

    for path in Path(dlh.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                assert node.func.attr != "at_point", f"{path.name}:{node.lineno} calls at_point"


def test_nu_cross_pairing(cfg_desk):
    # nu_x couples to Ey' and nu_y couples to Ex'
    sc = derive_scales(cfg_desk)
    c = cfg_desk.alpha * sc.l_m / (math.sqrt(2.0) * cfg_desk.hbar)
    assert sc.nu.real == pytest.approx(-c * cfg_desk.Ey_prime, rel=1e-14)
    assert sc.nu.imag == pytest.approx(-c * cfg_desk.Ex_prime, rel=1e-14)


test_invalid_configs_raise = refusal_test("test_invalid_configs_raise")
test_non_finite_fields_raise = refusal_test("test_non_finite_fields_raise")
test_scales_that_overflow_raise = refusal_test("test_scales_that_overflow_raise")


_DESK = {"mass": 1.0, "alpha": 0.5, "hbar": 1.0}
_GOOD_ROW = (0.3, 0.7, 2.0, 1.0)
_DEGENERATE = "lambda_density * B must be nonzero: the effective Landau problem degenerates at zero cyclotron frequency"
# particle, rows and the exact message of the first failure; the rows
# (0.3, 0.7, 8.0, 1.0) at hbar = 5e-324 leave omega = 4 but hbar / (M omega) rounds to 0
_BAD_ROWS = {
    "nan_coordinate": (_DESK, [(math.nan, 0.7, 2.0, 1.0)], "Ex_prime must be a finite number, got nan"),
    "infinite_B": (_DESK, [(0.3, 0.7, 2.0, -math.inf)], "B must be a finite number, got -inf"),
    "lambda_B_zero": (_DESK, [(0.3, 0.7, 2.0, 0.0)], _DEGENERATE),
    "omega_overflows": (_DESK, [(0.3, 0.7, 1e300, 1e10)], "omega must be positive and finite, got inf"),
    "omega_underflows": (_DESK, [(0.3, 0.7, 5e-324, 1.0)], "omega must be positive and finite, got 0.0"),
    "l_m_underflows": ({**_DESK, "hbar": 5e-324}, [(0.3, 0.7, 8.0, 1.0)], "l_m must be positive and finite, got 0.0"),
    "u_overflows": ({"mass": 1.0, "alpha": 1e-10, "hbar": 1e300}, [(0.3, 0.7, 1e5, 1e5)],
                    "u must be positive and finite, got inf"),
    "nu_not_finite": ({"mass": 1.0, "alpha": 1.0, "hbar": 1e-300}, [(0.3, 1e200, 1.0, 1.0)],
                      "nu must be finite, got (-inf-2.1213203435596425e+149j)"),
    "bad_row_after_good_ones": (_DESK, [_GOOD_ROW] * 3 + [(0.3, 0.7, -2.0, 0.0), (math.inf, 0.7, 2.0, 1.0)], _DEGENERATE),
}


@pytest.mark.parametrize("name", _BAD_ROWS)
def test_the_first_bad_row_is_diagnosed(name):
    particle, rows, message = _BAD_ROWS[name]
    config = PhysicalConfig(lambda_density=2.0, B=1.0, **particle)
    bad = next(r for r in rows if r != _GOOD_ROW)
    with pytest.raises(ValidationError) as failure:
        _point_scales(config, rows)
    assert str(failure.value) == f"{message} at (Ex', Ey', lambda, B) = {bad}"


def test_no_rows_pass_every_check():
    # an empty stack has no row to fail, whatever the particle
    for particle in (_DESK, _BAD_ROWS["u_overflows"][0]):
        scales = _point_scales(PhysicalConfig(lambda_density=2.0, B=1.0, **particle), np.empty((0, 4)))
        assert [a.shape for a in scales] == [(0,)] * 5


def _written_out(config, row):
    """The message for one row, every check taken on its own in message order; None if the row passes them all."""
    ex, ey, lam, b = (np.array([v]) for v in row)
    with np.errstate(all="ignore"):
        lam_B = lam * b
        omega = config.alpha * np.abs(lam_B) / config.mass
        l_m = np.sqrt(config.hbar / (config.mass * omega))
        u = np.full(1, math.sqrt(config.hbar / (8.0 * config.alpha)))
        c = config.alpha * l_m / (math.sqrt(2.0) * config.hbar)
        nu = (-c * ey).astype(complex)
        nu.imag = -c * ex
    checks = [(math.isfinite(v), f"{name} must be a finite number, got {v!r}") for name, v in zip(CONTROL_PARAMS, row)]
    checks.append((lam_B[0] != 0, _DEGENERATE))
    for name, v in (("omega", omega), ("l_m", l_m), ("u", u)):
        checks.append((0 < v[0] < math.inf, f"{name} must be positive and finite, got {float(v[0])}"))
    checks.append((np.isfinite(nu[0]), f"nu must be finite, got {complex(nu[0])}"))
    return next((f"{message} at (Ex', Ey', lambda, B) = {row}" for ok, message in checks if not ok), None)


_SPECIAL = [0.0, -0.0, 5e-324, -1e-300, 1e-160, -1e160, 1e300, math.inf, -math.inf, math.nan]
_PARTICLES = [_DESK, {"mass": 1e300, "alpha": 1e-300, "hbar": 1.0}, {"mass": 1e-300, "alpha": 1e300, "hbar": 1e-300},
              {"mass": 1.0, "alpha": 1e-10, "hbar": 1e300}, {"mass": 1.0, "alpha": 0.5, "hbar": 5e-324},
              {"mass": 1.0, "alpha": 1.0, "hbar": 1e-300}]


def test_the_checks_accept_exactly_the_rows_that_pass_each_one():
    # the pass over all rows reads l_m, nu and u alone; on rows of special
    # values, each check written out on its own raises or accepts the same
    rng = np.random.default_rng(7)
    outcomes = set()
    for particle in _PARTICLES:
        config = PhysicalConfig(lambda_density=2.0, B=1.0, **particle)
        before = [_GOOD_ROW] if _written_out(config, _GOOD_ROW) is None else []  # a good row first, where there is one
        for _ in range(400):
            row = tuple(float(rng.choice(_SPECIAL)) if rng.random() < 0.3 else float(rng.uniform(-3.0, 3.0))
                        for _ in range(4))
            want = _written_out(config, row)
            if want is None:
                _point_scales(config, [*before, row])
            else:
                with pytest.raises(ValidationError) as failure:
                    _point_scales(config, [*before, row])
                assert str(failure.value) == want
            outcomes.add(None if want is None else want.split(" must ")[0])
    assert outcomes == {None, *CONTROL_PARAMS, "omega", "l_m", "u", "nu", "lambda_density * B"}


test_sigma_override_must_be_the_int_plus_or_minus_one = refusal_test("test_sigma_override_must_be_the_int_plus_or_minus_one")


def test_at_point_replaces_control_coordinates(cfg_desk):
    moved = cfg_desk.at_point(0.1, -0.2, 3.0, 0.5)
    assert (moved.Ex_prime, moved.Ey_prime) == (0.1, -0.2)
    assert (moved.lambda_density, moved.B) == (3.0, 0.5)
    assert moved.mass == cfg_desk.mass and moved.alpha == cfg_desk.alpha


def test_regime_screening():
    desk = validate_regime(NATURAL)
    assert desk.verdict == "warn"  # natural units always trip the SI thresholds
    lab = PhysicalConfig(
        mass=1.4e-25,
        alpha=5e-39,
        hbar=1.054571817e-34,
        lambda_density=1e7,
        B=10.0,
        Ex_prime=1e3,
        Ey_prime=0.0,
    )
    report = validate_regime(lab)
    assert report.mass_correction_ratio < 1e-6
    assert report.verdict == "pass"


# ---------------------------------------------------------------------------
# one check per kind of argument


test_bad_argument_raises_validation_error = refusal_test("test_bad_argument_raises_validation_error")


def test_each_argument_check_has_one_home():
    # each shared check and the control-parameter names are defined in one module only
    import ast
    from pathlib import Path

    import dlh

    homes = {
        "_check_count": "errors.py",
        "_check_positive": "errors.py",
        "_check_window": "errors.py",
        "CONTROL_PARAMS": "params.py",
        "_check_param": "params.py",
    }
    found = {}
    for path in sorted(Path(dlh.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in set(names) & set(homes):
                found.setdefault(name, []).append(path.name)
    assert found == {name: [home] for name, home in homes.items()}
