"""Every input that dlh refuses, in one library table and one CLI table.

A library row, ``name: (call, fragment)``, holds when ``call()`` raises a
ValidationError whose message contains ``fragment``. A CLI row, ``name: (argv,
files, fragment)``, holds when ``main(argv)``, run in a directory that holds
``files`` (file name -> text), returns 2 with an empty stdout and a stderr that
starts with ``dlh: validation error: `` and contains ``fragment``. A
:class:`Usage` fragment is argparse's: main exits with SystemExit(2) and prints
its usage, then the fragment. A fragment of None marks an input at the edge of
the double range that must compute: exit 0, an empty stderr and no nan or inf
on stdout. Every row runs with warnings as errors, so a numpy RuntimeWarning
on the way to a refusal fails the row.

Every row runs through ``refusal_test``, under the test id its name starts
with: a row named ``test_x[id]`` (or ``test_x[id]: label``) as ``test_x[id]``
of the module that binds ``test_x = refusal_test("test_x")``, the rows named
``test_x: label`` together as ``test_x``, and a row with a plain name once as
``test_refusal[name]`` of ``test_refusals.py``. So each input that a test
refused before the tables keeps that test's id, and refusing a new input takes
one entry here. The tables live in this helper module, not in a test module,
so that the modules that bind a home import no other test module.
"""

import json
import math
import re
import warnings

import numpy as np
import pytest

from dlh import oracle
from dlh.cli import main
from dlh.connection import abelian_curvature, chain_rule_consistency, connection_general, connection_matrix
from dlh.displaced import displaced_hamiltonian, displaced_state, displacement_matrix
from dlh.errors import ValidationError, _check_window
from dlh.fock import build_basis
from dlh.holonomy import (
    ParameterPath,
    abelian_phase,
    area_closed_form,
    box_loop,
    commuting_holonomy,
    holonomy_path_ordered,
    rectangle_loop,
    signed_area,
    unordered_holonomy,
)
from dlh.oracle import Grid2D, fd_connection_matrix, wilson_loop_oracle
from dlh.params import PhysicalConfig, _point_scales, derive_scales

from _algebra import dual_route_deviation, state_from_ground
from _fields import WaveField, X, Y, build_state, norm, window_states


class Usage(str):
    """The fragment of a refusal by argparse."""


def _each(home: str, rows: dict) -> dict:
    """Rows that ran as the ids of the parametrized test `home`."""
    return {f"{home}[{key}]": row for key, row in rows.items()}


def _together(home: str, rows: dict) -> dict:
    """Rows that ran together as the one test `home`."""
    return {f"{home}: {label}": row for label, row in rows.items()}


# -- the library table ---------------------------------------------------------

_POINT = (0.3, 0.7, 2.0, 1.0)
_DESK = PhysicalConfig(mass=1.0, alpha=0.5, hbar=1.0, lambda_density=2.0, B=1.0, Ex_prime=0.3, Ey_prime=0.7)
_NATURAL = PhysicalConfig(mass=1.0, alpha=1.0, hbar=1.0, lambda_density=1.0, B=1.0, Ex_prime=0.0, Ey_prime=0.5)
_GRID = Grid2D()  # extent 12, 256 points: adequate at l_m = 1, so each call reaches its argument check
_LOOP = rectangle_loop("Ex_prime", "Ey_prime", (0.0, 0.3), (0.0, 0.4), (0, 0, 1.0, 1.0))
_NON_FINITE = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf}
_WINDOW = "window must be integers with 0 <= m_lo <= m_hi"
_U = "u must be a finite number > 0, got"
_SHAPE = "vertices must be (V, 4) with V >= 2 rows of (Ex', Ey', lambda, B), got shape"
_PAIRS = "ey_range, lam_range and b_range must be pairs of numbers"


def _config(**fields):
    return lambda: PhysicalConfig(**{**vars(_DESK), **fields})


def _scales(**fields):
    return lambda: derive_scales(_config(**fields)())


def _fd(*args, **kwargs):
    return lambda: fd_connection_matrix(_GRID, _DESK, *args, **kwargs)


def _wave(values):
    return lambda: WaveField(grid=_GRID, values=values, n=0, m=0, nu=0j, l_m=1.0)


# every entry that takes a window, on a small grid
_WINDOW_GRID = Grid2D(extent=12.0, points=64)
_WINDOW_CONFIG = PhysicalConfig(mass=1.0, alpha=0.5, hbar=1.0, lambda_density=1.0, B=1.0)
_WINDOW_CALLS = {
    "connection_matrix": lambda w: connection_matrix("B", (0.3, 0.7, 1.0, 1.0), 0.5, 0, w),
    "commuting_holonomy": lambda w: commuting_holonomy(0.5, 0.5, w),
    "holonomy_path_ordered": lambda w: holonomy_path_ordered(_LOOP, 0.5, window=w),
    "unordered_holonomy": lambda w: unordered_holonomy(_LOOP, 0.5, window=w),
    "wilson_loop_oracle": lambda w: wilson_loop_oracle(_WINDOW_GRID, _WINDOW_CONFIG, _LOOP, window=w),
    "window_states": lambda w: window_states(_WINDOW_GRID, _WINDOW_CONFIG, (0.3, 0.7, 1.0, 1.0), 0, w),
    "check_window": _check_window,
}
# the last four are not pairs of bounds at all
_BAD_WINDOWS = {"window0": (0.5, 2), "window1": (0, 2.5), "window2": (0, 2.0), "window3": (True, 2),
                "window4": (0, True), "window5": ("0", 2), "5": 5, "None": None, "window8": (0, 1, 2), "window9": (1,)}
_NU_CALLS = {
    "displacement_matrix": lambda nu: displacement_matrix(nu, build_basis(8, 1)),
    "dual_route_deviation": lambda nu: dual_route_deviation(nu, build_basis(8, 1)),
    "displaced_state": lambda nu: displaced_state(0, 0, nu, build_basis(8, 1)),
    "displaced_hamiltonian": lambda nu: displaced_hamiltonian(nu, build_basis(8, 1), derive_scales(_DESK)),
}


def _frame_calls(grid, point, n, window) -> dict:
    """The paths that take the boundary guard from the factors and never form the fields."""
    ex, ey = point[:2]
    loop = rectangle_loop("Ex_prime", "Ey_prime", (ex, ex + 0.1), (ey, ey + 0.1), point)
    return {
        "window_states": lambda: window_states(grid, _DESK, point, n, window),
        "fd": lambda: fd_connection_matrix(grid, _DESK, "B", point, n, window),
        "wilson": lambda: wilson_loop_oracle(grid, _DESK, loop, n=n, window=window, steps=8),
    }


# a window with a state past the 1e-10 boundary guard: (grid, point, n, window)
_FRAME_CASES = {
    "grid12-point0-2-window0": (_GRID, (0.9, -0.4, -1.5, 1.0), 2, (1, 3)),
    "grid14-point1-3-window1": (Grid2D(extent=14.0, points=256), (0.3, 0.7, 2.0, 1.0), 3, (0, 4)),
}
_FLAT = np.ones((_GRID.points, _GRID.points), dtype=complex)
_LEAK = np.exp(-((X(_GRID) - 10.0) ** 2 + Y(_GRID) ** 2) / 4.0).astype(complex)  # normalized, through the frame
_LEAK /= norm(_GRID, _LEAK)

LIBRARY = {
    # params
    **_together("test_invalid_configs_raise", {
        "zero mass": (_config(mass=0.0), "mass must be a finite number > 0, got 0.0"),
        "negative alpha": (_config(alpha=-1.0), "alpha must be a finite number > 0, got -1.0"),
        "zero lambda": (_config(lambda_density=0.0), "lambda_density * B must be nonzero"),
        "zero B": (_config(B=0.0), "lambda_density * B must be nonzero"),
    }),
    **{f"test_non_finite_fields_raise[{field}-{key}]": (_config(**{field: value}), f"{field} must be a finite number")
       for field in ("mass", "alpha", "hbar", "lambda_density", "B", "Ex_prime", "Ey_prime")
       for key, value in _NON_FINITE.items()},
    **_each("test_scales_that_overflow_raise", {
        # omega overflows, l_m underflows
        "fields0": (_scales(mass=1e-300, alpha=1e300, lambda_density=1e10), "omega must be positive and finite"),
        "fields1": (_scales(alpha=1e-320), "l_m must be positive and finite, got inf"),  # l_m and u overflow
        "fields2": (_scales(alpha=1e300, mass=1e300, Ex_prime=1e300), "nu must be finite, got"),
        # lambda B != 0, but omega = alpha lambda B / M underflows to 0
        "fields3": (_scales(lambda_density=5e-324), "omega must be positive and finite, got 0.0"),
    }),
    "sigma_override_two": (_config(sigma_override=2), "sigma_override must be +1, -1 or None, got 2"),
    **_each("test_sigma_override_must_be_the_int_plus_or_minus_one", {
        key: (_config(sigma_override=value), f"sigma_override must be +1, -1 or None, got {value!r}")
        for key, value in {"True": True, "False": False, "1.0": 1.0, "-1.0": -1.0, "1": "1"}.items()}),
    # one check per kind of argument
    **_each("test_bad_argument_raises_validation_error", {
        "connection_u_string": (lambda: connection_matrix("B", _POINT, "0.5", 0, (0, 1)), f"{_U} '0.5'"),
        "holonomy_u_string": (lambda: holonomy_path_ordered(_LOOP, "x"), f"{_U} 'x'"),
        "abelian_phase_u_string": (lambda: abelian_phase(_LOOP, "x"), f"{_U} 'x'"),
        "connection_u_bool": (lambda: connection_matrix("B", _POINT, True, 0, (0, 1)), f"{_U} True"),
        "connection_n_float": (lambda: connection_matrix("B", _POINT, 0.5, 0.5, (0, 1)), "n must be an integer"),
        "fd_n_float": (_fd("B", _POINT, 1.5, (0, 1)), "n must be an integer, got 1.5"),
        "fd_n_bool": (_fd("B", _POINT, True, (0, 1)), "n must be an integer, got True"),
        "build_state_n_float": (lambda: build_state(_GRID, derive_scales(_DESK), 1.5, 0), "n must be an integer"),
        "window_states_n_string": (lambda: window_states(_GRID, _DESK, _POINT, "1", (0, 1)),
                                   "n must be an integer, got '1'"),
        "displaced_state_n_float": (lambda: displaced_state(1.5, 0, 0.1j, build_basis(4, 1)),
                                    "(n=1.5, m=0) outside truncation"),
        "displaced_state_n_bool": (lambda: displaced_state(True, 0, 0.1j, build_basis(4, 1)),
                                   "(n=True, m=0) outside truncation"),
    }),
    # fock
    "index_n_past_n_max": (lambda: build_basis(3, 5).index(4, 0), "(n=4, m=0) outside truncation n_max=3, m_max=5"),
    "index_m_past_m_max": (lambda: build_basis(3, 5).index(0, 6), "(n=0, m=6) outside truncation n_max=3, m_max=5"),
    "basis_negative_n_max": (lambda: build_basis(-1, 2), "n_max must be >= 0, got -1"),
    "state_from_ground_past_the_basis": (lambda: state_from_ground(build_basis(3, 3), 4, 0),
                                         "(n=4, m=0) outside truncation n_max=3, m_max=3"),
    **_each("test_basis_sigma_must_be_an_integer_sign", {
        key: (lambda s=sigma: build_basis(1, 1, sigma=s), f"sigma must be +1 or -1, got {sigma!r}")
        for key, sigma in {"True": True, "1.0": 1.0, "-1.0": np.float64(-1.0)}.items()}),
    **_each("test_labels_takes_an_integer_index", {
        key: (lambda i=idx: build_basis(2, 2).labels(i), "outside basis")
        for key, idx in {"1.5": 1.5, "True": True, "2.0": np.float64(2.0)}.items()}),
    **_each("test_basis_bounds_must_be_integers", {
        f"bounds{i}": (lambda b=bounds: build_basis(*b), "must be an integer")
        for i, bounds in enumerate([(4.5, 1), (4, 1.0), (True, 1), (4, False), ("4", 1)])}),
    # connection
    **_together("test_validation_errors", {
        "unknown parameter": (lambda: connection_matrix("Ez_prime", (0, 0, 1, 1), 0.5, 0, (0, 0)),
                              "unknown control parameter 'Ez_prime'"),
        "zero B": (lambda: connection_matrix("B", (0, 0, 1.0, 0.0), 0.5, 0, (0, 0)),
                   "lambda and B must be nonzero, got lambda=1.0, B=0.0"),
        "negative u": (lambda: connection_general("B", (0, 0, 1, 1), -0.5, 0, 0, 0), "u must be a finite number > 0"),
        "negative n": (lambda: connection_general("B", (0, 0, 1, 1), 0.5, -1, 0, 0), "n must be >= 0, got -1"),
        "reversed window": (lambda: connection_matrix("B", (0, 0, 1, 1), 0.5, 0, (3, 1)), f"{_WINDOW}, got (3, 1)"),
        "negative window": (lambda: chain_rule_consistency((0, 0, 1, 1), 0.5, 0, (-1, 2)), f"{_WINDOW}, got (-1, 2)"),
    }),
    **{f"test_window_bounds_must_be_integers[{name}-{key}]": (lambda c=call, w=window: c(w), _WINDOW)
       for name, call in _WINDOW_CALLS.items() for key, window in _BAD_WINDOWS.items()},
    **_each("test_non_finite_points_and_u_are_rejected", {
        "matrix_nan_lambda": (lambda: connection_matrix("B", (0, 0, math.nan, 1), 0.5, 0, (0, 1)),
                              "point contains non-finite entries: (0, 0, nan, 1)"),
        "matrix_inf_ex": (lambda: connection_matrix("lambda_density", (math.inf, 0, 1, 1), 0.5, 0, (0, 1)),
                          "point contains non-finite entries: (inf, 0, 1, 1)"),
        "general_inf_ey": (lambda: connection_general("Ex_prime", (0, -math.inf, 1, 1), 0.5, 0, 0, 0),
                           "point contains non-finite entries: (0, -inf, 1, 1)"),
        "curvature_nan_ex": (lambda: abelian_curvature((math.nan, 0, 1, 1), 0.5),
                             "point contains non-finite entries: (nan, 0, 1, 1)"),
        "curvature_inf_b": (lambda: abelian_curvature((0, 0, 1, math.inf), 0.5),
                            "point contains non-finite entries: (0, 0, 1, inf)"),
        "commuting_inf_u": (lambda: commuting_holonomy(0.5, math.inf, (0, 1)), f"{_U} inf"),
        "commuting_nan_u": (lambda: commuting_holonomy(0.5, math.nan, (0, 1)), f"{_U} nan"),
        "matrix_inf_u": (lambda: connection_matrix("B", (0.3, 0.7, 1.0, 1.0), math.inf, 0, (0, 1)), f"{_U} inf"),
        "path_ordered_inf_u": (lambda: holonomy_path_ordered(_LOOP, math.inf), f"{_U} inf"),
    }),
    # displaced: at |nu|^2 = 6.25 level 0 keeps 0.20 of its weight past n_max = 8; past |nu|^2 = n_max + 1 the
    # tail is not formed, so a huge nu is refused at once
    "displacement_past_the_truncation": (lambda: displacement_matrix(2.5, build_basis(8, 0)), "level 0 keeps over 0.1"),
    "displacement_of_a_huge_nu": (lambda: displacement_matrix(1e8, build_basis(8, 0)), "level 0 keeps over 0.1"),
    "displaced_state_at_the_top_level": (
        lambda: displaced_state(16, 0, math.sqrt(7.99) * complex(math.cos(0.7), math.sin(0.7)), build_basis(16, 0)),
        "level 16 keeps over 0.1"),
    **{f"test_non_finite_nu_is_refused[{key}-{entry}]": (lambda c=call, nu=nu: c(nu), "nu must be finite")
       for key, nu in {"nan": math.nan, "inf": math.inf, "(0.1-infj)": complex(0.1, -math.inf),
                       "(nan+0.2j)": complex(math.nan, 0.2)}.items()
       for entry, call in _NU_CALLS.items()},
    # holonomy
    **_together("test_path_validation", {
        "one vertex": (lambda: ParameterPath(np.zeros((1, 4))), f"{_SHAPE} (1, 4)"),
        "three coordinates": (lambda: ParameterPath(np.zeros((3, 3))), f"{_SHAPE} (3, 3)"),
        # either sign of lambda and B is a path, but a segment from one sign to the other crosses 0
        "negative lambda": (lambda: ParameterPath([[0, 0, 1, 1], [0, 0, -1, 1]]), "keep their signs along every"),
        "negative B": (lambda: ParameterPath([[0, 0, 1, 1], [0, 0, 1, -1]]), "keep their signs along every"),
        "unknown kind": (lambda: ParameterPath([[0, 0, 1, 1], [0, 0, 2, 1], [0, 0, 1, 1]], kind="XYZ"), "kind"),
        # closure is checked once, when the path is built
        "open": (lambda: ParameterPath([[0, 0, 1, 1], [0, 1, 1, 1]]),
                 "path must be closed (first vertex == last vertex)"),
    }),
    # |lambda| changes by 1e5 along the first segment, whichever sign lambda takes
    "path_ratio_at_negative_lambda": (lambda: ParameterPath([[0, 0, -1, 1], [0, 0, -1e5, 1], [0, 0, -1, 1]]),
                                      "ratio of 1e+05"),
    "rectangle_on_one_axis": (lambda: rectangle_loop("Ex_prime", "Ex_prime", (0, 1), (0, 1), (0, 0, 1, 1)),
                              "axes must be two distinct names"),
    "box_unknown_kind": (lambda: box_loop("AAAAAAA", (0.0, 1.0), (1.0, 4.0), (1.0, 4.0)),
                         "kind must be ABCHEFA, ABCHGFA or ADCHEFA, got 'AAAAAAA'"),
    # 1 / sqrt(inf) is 0, so an unchecked overflow would give S = 0.0; S is about -2.9e-156 there
    **_each("test_area_closed_form_refuses_a_corner_where_lambda_b_is_not_finite", {
        "underflow": (lambda: area_closed_form("ABCHGFA", (0, 1), (1e-200, 2e-200), (1e-200, 2e-200)),
                      "lambda B underflows to 0 at a corner of"),
        "overflow": (lambda: area_closed_form("ABCHGFA", (0, 1), (1e150, 2e150), (1e160, 2e160)),
                     "lambda B overflows at a corner of"),
    }),
    # calls that returned a non-finite value in silence; no CLI input reaches them, as box_loop refuses their ranges
    **_each("test_escaping_library_calls_are_validation_errors", {
        "area_closed_form_width_overflows": (lambda: area_closed_form("ABCHEFA", (-1e308, 1e308), (1, 4), (1, 4)),
                                             "S of ABCHEFA overflows"),
        "area_closed_form_product_overflows": (lambda: area_closed_form("ABCHGFA", (0, 1e300), (1e-300, 1), (1e-10, 1)),
                                               "S of ABCHGFA overflows"),
        "area_closed_form_infinite_width_times_zero": (
            lambda: area_closed_form("ABCHEFA", (-1e308, 1e308), (1, 2), (2, 1)), "S of ABCHEFA overflows"),
    }),
    "steps_below_the_minimum": (lambda: holonomy_path_ordered(_LOOP, 0.5, steps=8), "steps must be >= 16, got 8"),
    "unknown_method": (lambda: holonomy_path_ordered(_LOOP, 0.5, method="midpoint"),
                       "method must be one of ('auto', 'magnus'), got 'midpoint'"),
    **_each("test_bad_target_rejected", {
        key: (lambda t=target: holonomy_path_ordered(_LOOP, 0.5, target=t), "target")
        for key, target in {"-1e-08": -1e-8, **_NON_FINITE, "tight": "tight", "True": True, "False": False}.items()}),
    **_together("test_signed_area_planarity_guard", {
        "lambda and B vary along a box": (lambda: signed_area(box_loop("ABCHEFA", (0.0, 1.0), (1.0, 4.0), (1.0, 4.0))),
                                          "not planar"),
    }),
    # oracle
    **_together("test_grid_adequacy_rules", {
        "too small": (lambda: _GRID.check_adequate(3.0), "grid extent 12.0 too small for l_m=3 with shift 0"),
        "too coarse": (lambda: _GRID.check_adequate(0.1), "grid spacing 0.09412 does not resolve l_m=0.1"),
        "shift": (lambda: _GRID.check_adequate(1.0, shift=7.0), "grid extent 12.0 too small for l_m=1 with shift 7"),
        "negative extent": (lambda: Grid2D(extent=-1.0, points=64), "grid extent must be a finite number > 0"),
        "three points": (lambda: Grid2D(extent=12.0, points=3), "grid points must be >= 64, got 3"),
    }),
    **_together("test_window_states_validation", {
        "negative n": (lambda: window_states(Grid2D(14.0, 128), _DESK, _POINT, -1, (0, 1)), "n must be >= 0, got -1"),
        "negative window": (lambda: window_states(Grid2D(14.0, 128), _DESK, _POINT, 0, (-1, -1)),
                            f"{_WINDOW}, got (-1, -1)"),
    }),
    **{f"test_fast_paths_reject_states_at_the_frame[{key}]: {path}": (call, "boundary frame")
       for key, case in _FRAME_CASES.items() for path, call in _frame_calls(*case).items()},
    **_together("test_wilson_validation", {
        # an open path is refused where it is built, before any oracle sees it
        "open": (lambda: ParameterPath(_LOOP.vertices[:-1]), "must be closed"),
        "four steps": (lambda: wilson_loop_oracle(_GRID, _NATURAL, _LOOP, steps=4), "steps must be >= 8, got 4"),
        # also on a constant path, which needs no grid states
        "reversed window": (lambda: wilson_loop_oracle(_GRID, _NATURAL, ParameterPath([[0.0, 0.5, 1.0, 1.0]] * 3),
                                                       window=(3, 1)), f"{_WINDOW}, got (3, 1)"),
    }),
    **_each("test_wilson_steps_must_be_an_integer_count", {
        str(steps): (lambda s=steps: wilson_loop_oracle(_GRID, _NATURAL, _LOOP, steps=s), "steps")
        for steps in ("64", 16.5, True, 4)}),
    **_each("test_fd_h_step_must_be_a_finite_positive_number", {
        key: (_fd("B", (0.1, 0.1, 1.0, 1.0), 0, (0, 1), h_step=h), "h_step")
        for key, h in {"1e-3": "1e-3", **_NON_FINITE, "0.0": 0.0, "-0.001": -1e-3}.items()}),
    **_together("test_wavefield_guards", {
        "not normalized": (_wave(_FLAT), "field is not normalized"),
        "through the frame": (_wave(_LEAK), "field reaches the boundary frame at 1.482e-01 (> 1e-10)"),
        "wrong shape": (_wave(_FLAT[:10, :10]), "field shape does not match its grid"),
        "nan": (_wave(np.full_like(_FLAT, np.nan)), "normalized"),
    }),
    **_together("test_field_guards_reject_nan", {
        "drift": (lambda: oracle._check_drift(math.nan, "state (n=0, m=0)"), "drifted"),
        "frame": (lambda: oracle._check_frame(math.nan, "state (n=0, m=0)"), "boundary frame"),
    }),
    **_each("test_grid_rejects_bad_sizes", {
        key: (lambda e=extent, p=points: Grid2D(extent=e, points=p), "grid")
        for key, (extent, points) in {"nan-256": (math.nan, 256), "inf-256": (math.inf, 256), "0.0-256": (0.0, 256),
                                      "True-256": (True, 256), "12-256": ("12", 256), "12.0-256.5": (12.0, 256.5),
                                      "12.0-63": (12.0, 63), "12.0-True": (12.0, True),
                                      "12.0-256": (12.0, "256")}.items()}),
    **_together("test_pipeline_rejects_offgrid_displacement", {
        "far": (lambda: window_states(_GRID, _NATURAL, (0.0, 20.0, 1.0, 1.0), 0, (0, 0)),
                "grid extent 12.0 too small for l_m=1 with shift 20"),
    }),
    **_together("test_fd_parameter_validation", {
        "unknown parameter": (_fd("Ez", (0.1, 0.1, 1.0, 1.0), 0, (0, 0)), "unknown control parameter 'Ez'"),
        "zero h_step": (_fd("B", (0.1, 0.1, 1.0, 1.0), 0, (0, 0), h_step=0.0), "h_step must be a finite number > 0"),
        "reversed window": (_fd("B", (0.1, 0.1, 1.0, 1.0), 0, (2, 1)), f"{_WINDOW}, got (2, 1)"),
    }),
    # checked before a coordinate is shifted, whichever parameter it is
    **{f"test_fd_points_must_have_four_coordinates[{key}-{param}]": (_fd(param, point, 0, (0, 1)),
                                                                     f"got {len(point)} coordinates")
       for key, point in {"point0": (0.3, 0.7, 2.0), "point1": (0.3, 0.7, 2.0, 1.0, 0.5)}.items()
       for param in ("Ex_prime", "Ey_prime", "lambda_density", "B")},
    # each once escaped as a raw TypeError or ValueError, or returned a float
    **_each("test_malformed_points_and_ranges_are_validation_errors", {
        "fd_point_not_a_sequence": (_fd("B", 5, 0, (0, 1)), "a point must be (Ex', Ey', lambda, B), got 1 coordinates"),
        "rectangle_range_not_a_pair": (lambda: rectangle_loop("Ex_prime", "Ey_prime", 1.0, (0, 1), (0, 0, 1, 1)),
                                       "range_a and range_b must be pairs of numbers: (1.0, (0, 1))"),
        "area_range_not_a_pair": (lambda: area_closed_form("ABCHEFA", 3, (1, 2), (1, 2)), f"{_PAIRS}: (3,"),
        "fd_string_coordinate": (_fd("B", (0, "a", 1, 1), 0, (0, 1)),
                                 "a point must be numbers (Ex', Ey', lambda, B): (0, 'a', 1, 1)"),
        "window_states_string_coordinate": (lambda: window_states(_GRID, _DESK, (0, "a", 1, 1), 0, (0, 1)),
                                            "points must be rows of numbers (Ex', Ey', lambda, B): [(0, 'a', 1, 1)]"),
        "point_scales_string_coordinate": (lambda: _point_scales(_DESK, [(0, "a", 1, 1)]),
                                           "points must be rows of numbers (Ex', Ey', lambda, B): [(0, 'a', 1, 1)]"),
        "rectangle_string_in_range": (lambda: rectangle_loop("Ex_prime", "Ey_prime", (0, "a"), (0, 1), (0, 0, 1, 1)),
                                      "range_a and range_b must be pairs of numbers: ((0, 'a'), (0, 1))"),
        "rectangle_string_in_base_point": (
            lambda: rectangle_loop("Ex_prime", "Ey_prime", (0, 1), (0, 1), (0, "a", 1, 1)),
            "base_point must be 4 numbers: (0, 'a', 1, 1)"),
        "box_string_in_range": (lambda: box_loop("ABCHEFA", (0, "a"), (1, 2), (1, 2)),
                                f"{_PAIRS}: ((0, 'a'), (1, 2), (1, 2))"),
        "box_string_base_ex": (lambda: box_loop("ABCHEFA", (0, 1), (1, 2), (1, 2), ex="a"), "ex must be a number: 'a'"),
        "box_three_entry_range": (lambda: box_loop("ABCHEFA", (0, 1, 2), (1, 2), (1, 2)),
                                  f"{_PAIRS}: ((0, 1, 2), (1, 2), (1, 2))"),
        "ragged_vertices": (lambda: ParameterPath([(0, 0, 1, 1), (0, 1, 1)]),
                            "vertices must be rows of numbers (Ex', Ey', lambda, B): [(0, 0, 1, 1), (0, 1, 1)]"),
        "area_nan_range": (lambda: area_closed_form("ABCHEFA", (0, math.nan), (1, 2), (1, 2)),
                           "ranges must be finite, got (0, nan), (1, 2), (1, 2)"),
        "area_inf_range": (lambda: area_closed_form("ABCHEFA", (0, 1), (1, math.inf), (1, 2)),
                           "ranges must be finite, got (0, 1), (1, inf), (1, 2)"),
    }),
}


# -- the CLI table -------------------------------------------------------------

_GOOD_CONFIG = {"mass_kg": 1.0, "alpha_Fm2": 0.5, "hbar": 1.0, "lambda_Vm2": 2.0, "B_T": 1.0,
                "Ex_Vm": 0.3, "Ey_Vm": 0.7}
_UNIT_CONFIG = {"mass_kg": 1.0, "alpha_Fm2": 1.0, "lambda_Vm2": 1.0, "B_T": 1.0, "Ex_Vm": 0.0, "Ey_Vm": 0.0}
_DERIVE = ["derive", "--config", "cfg.json"]


def _cfg(**fields) -> dict:
    return {"cfg.json": json.dumps({**_GOOD_CONFIG, **fields})}


def _loop(text: str) -> dict:
    return {"loop.txt": text}


_RATIO_LOOP = _loop("0 0 1 1\n0 1 1e-300 1\n0 1 1 1\n0 0 1 1\n")

CLI = {
    **_together("test_config_errors", {
        "unknown key": (_DERIVE, {"cfg.json": json.dumps({**_UNIT_CONFIG, "charge_C": 2.0})}, "charge_C"),
        "missing keys": (_DERIVE, {"cfg.json": json.dumps({"mass_kg": 1.0})}, "alpha_Fm2"),
        "not json": (_DERIVE, {"cfg.json": "{not json"}, "config file cfg.json is not valid JSON"),
        "bool value": (_DERIVE, {"cfg.json": json.dumps({**_UNIT_CONFIG, "mass_kg": True})},
                       "config key 'mass_kg' must be a number, got True"),
        "absent file": (["derive", "--config", "absent.json"], {}, "cannot read config file absent.json"),
    }),
    **_each("test_mistyped_sigma_override_exits_2", {
        key: (_DERIVE, _cfg(sigma_override=value), f"sigma_override must be +1, -1 or None, got {value!r}")
        for key, value in {"True": True, "1.0": 1.0, "-1.0": -1.0, "1": "1"}.items()}),
    # json reads the NaN and Infinity literals as floats
    **{f"test_non_finite_config_values_exit_2[{key}-{name}]": (_DERIVE, _cfg(**{key: value}), "must be a finite number")
       for key in sorted(_GOOD_CONFIG) for name, value in _NON_FINITE.items()},
    **_together("test_bad_inputs_exit_2", {
        "unknown named loop": (["phase", "--named", "Q3"], {}, "unknown named path 'Q3'"),
        "eight steps": (["holonomy", "--named", "ABCHEFA", "--steps", "8"], {}, "steps must be >= 16, got 8"),
        "negative area": (["phase", "--named", "C1", "--area", "-1"], {}, "loop area must be positive, got -1.0"),
        "no path": (["holonomy"], {}, "path is required"),
        "reversed window": (["connection", "--param", "B", "--window", "3..1"], {},
                            Usage(f"argument --window: {_WINDOW}, got (3, 1)")),
    }),
    **{f"test_window_errors_name_their_reason[{window}-{reason}]": (
        ["connection", "--param", "B", f"--window={window}"], {}, Usage(reason))
       for window, reason in [("3..1", "0 <= m_lo <= m_hi"), ("-1..2", "0 <= m_lo <= m_hi"), ("3", "lo..hi"),
                              ("a..b", "integers")]},
    **_each("test_bad_target_exit_2", {
        target: (["holonomy", "--named", "ABCHEFA", f"--target={target}"], {}, "target")
        for target in ("-1e-8", "nan", "inf")}),
    **_each("test_displace_refuses_a_non_finite_nu", {
        f"nu{i}": (["displace", *nu], {}, "nu must be finite")
        for i, nu in enumerate([("--nu-re", "nan"), ("--nu-im=-inf",), ("--nu-re", "inf", "--nu-im", "0.1")])}),
    # a loop may visit the sigma = -1 branch, but these reach it along a segment that crosses lambda = 0 or B = 0
    **_each("test_holonomy_rejects_the_sigma_minus_branch", {
        key: (["holonomy", "--vertices", "loop.txt"], _loop(f"0 0 1 1\n0.6 0.2 1 1\n{vertex}\n0 0 1 1\n"),
              "keep their signs along every segment")
        for key, vertex in {"lambda": "0.6 0.9 -2 1", "B": "0.6 0.9 2 -1"}.items()}),
    # an empty value is not dropped: each spelling once printed a row fewer
    **{f"sweep_empty_value_{i}": (["sweep", "--named", "ABCHEFA", "--sweep", spec], {},
                                  f"bad sweep values in {spec!r}") for i, spec in enumerate(("Ey2=1,,2", "Ey2=1,2,"))},
    "vertices_and_named": (["holonomy", "--vertices", "loop.txt", "--named", "C1"],
                           _loop("0 0 1 1\n0.5 0 1 1\n0.5 0.5 1 1\n0 0.5 1 1\n0 0 1 1\n"), "mutually exclusive"),
    "vertices_of_three_coordinates": (["holonomy", "--vertices", "loop.txt"], _loop("0 0 1\n0 1 1\n"),
                                      "loop.txt:1: expected 4 numbers (Ex' Ey' lambda B), got 3"),
    **_together("test_sweep_validation", {
        "axis of another loop": (["sweep", "--named", "C1", "--sweep", "Ey2=1,2"], {}, "does not apply"),
        "one value": (["sweep", "--named", "C1", "--sweep", "area=1"], {}, "at least 2"),
        "no axis": (["sweep", "--named", "C1"], {}, "sweep needs at least one --sweep axis"),
        "unknown axis": (["sweep", "--named", "C1", "--sweep", "zz=1,2"], {}, "unknown sweep axis"),
    }),
    **_together("test_sweep_has_no_steps_axis", {
        # the step count is --steps; a swept steps axis would move only steps_used
        "steps": (["sweep", "--named", "ABCHEFA", "--sweep", "steps=64,128"], {}, "unknown sweep axis 'steps'"),
    }),
    # inputs that once escaped as a raw ValueError, OverflowError or ZeroDivisionError, or exited 0 with numpy
    # overflow warnings
    **_each("test_escaping_inputs_are_validation_errors", {
        "holonomy_lambda_ratio": (["holonomy", "--vertices", "loop.txt"], _RATIO_LOOP, "ratio of 1e+300"),
        "phase_lambda_ratio": (["phase", "--vertices", "loop.txt"], _RATIO_LOOP, "ratio of 1e+300"),
        "displace_huge_nu": (["displace", "--n-max", "3", "--nu-re", "1e200"], {}, "|nu|^2 = inf"),
        "derive_huge_field": (_DERIVE, _cfg(Ex_Vm=1e308), "Ex_prime = 1e+308"),
        "derive_config_int_past_float": (_DERIVE, _cfg(Ey_Vm=10**400), "config key 'Ey_Vm' is too large for a float"),
        "derive_config_int_past_digit_limit": (
            _DERIVE, {"cfg.json": json.dumps(_GOOD_CONFIG).replace("0.7", "1" + "0" * 5000)}, "is not valid JSON"),
        "holonomy_huge_segment": (["holonomy", "--vertices", "loop.txt"],
                                  _loop("0 0 1 1\n1e308 1 1 1\n0 1 1 1\n0 0 1 1\n"), "segment 0"),
        "phase_zero_area": (["phase", "--vertices", "loop.txt"], _loop("0 0 1 1\n1 0 1 1\n0 0 1 1\n"),
                            "gamma_area_law is 0"),
        # u^2 overflows, so the area-law phase of every row is 0
        "sweep_area_law_underflow": (["sweep", "--named", "C1", "--sweep", "area=1,2", "--config", "cfg.json"],
                                     _cfg(alpha_Fm2=1e-308), "gamma_area_law is 0"),
    }),
    # inputs at the edge of the double range that once printed nan, raised a numpy warning or doubled their steps
    # to the cap
    **_each("test_edge_of_range_inputs_compute_or_name_the_input", {
        **{name: ([*argv, "--config", "cfg.json"], _cfg(B_T=1e-308), "|B| = 1e-308") for name, argv in {
            "connection_B_tiny_B": ["connection", "--param", "B"],
            "connection_Ex_tiny_B": ["connection", "--param", "Ex"],
            "holonomy_C1_tiny_B": ["holonomy", "--named", "C1"],
            "phase_C1_tiny_B": ["phase", "--named", "C1"],
            "sweep_C1_tiny_B": ["sweep", "--named", "C1", "--sweep", "area=1,2"],
        }.items()},
        # lambda B = 1e308 is finite, and so is w = 1e-154
        **{name: ([*argv, "--config", "cfg.json"], _cfg(lambda_Vm2=1e308), None) for name, argv in {
            "connection_huge_lambda": ["connection", "--param", "B"],
            "holonomy_C1_huge_lambda": ["holonomy", "--named", "C1"],
        }.items()},
        "holonomy_box_lambda_B_underflow": (
            ["holonomy", "--named", "ABCHEFA", "--lam1", "1e-200", "--lam2", "2e-200", "--B1", "1e-200", "--B2",
             "2e-200"], {}, "lambda B underflows"),
        # nu = -3.5e-309j, a subnormal
        "displace_subnormal_nu": (["displace", "--config", "cfg.json"], _cfg(Ex_Vm=1e-308, Ey_Vm=0.0), None),
        # the in-plane field turns on the first two segments, so no quadrature reaches them
        "holonomy_ratio_on_a_turning_segment": (
            ["holonomy", "--vertices", "loop.txt"], _loop("0.5 0 1 1\n0 1 1e-300 1\n0.3 1 1 1\n0.5 0 1 1\n"),
            "ratio of 1e+300"),
        # the loop functional S weighs (lambda B)^(-1/2) at its Gauss nodes
        "phase_lambda_B_underflow": (
            ["phase", "--vertices", "loop.txt"],
            _loop("0 0 1e-200 1e-200\n0 1 1e-200 1e-200\n0 1 2e-200 2e-200\n0 0 2e-200 2e-200\n0 0 1e-200 1e-200\n"),
            "lambda B underflows"),
        "phase_lambda_B_overflow": (
            ["phase", "--vertices", "loop.txt"],
            _loop("0 0 1e150 1e160\n0 1 1e150 1e160\n0 1 2e150 1e160\n0 0 2e150 1e160\n0 0 1e150 1e160\n"),
            "lambda B overflows"),
    }),
}


# -- the harness ---------------------------------------------------------------


def _refuses(call, fragment):
    assert fragment
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError) as failure:
            call()
    assert fragment in str(failure.value)


def _exits_2(request, argv, files, fragment):
    tmp_path, capsys = request.getfixturevalue("tmp_path"), request.getfixturevalue("capsys")
    request.getfixturevalue("monkeypatch").chdir(tmp_path)
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning escapes main as an exception
        if isinstance(fragment, Usage):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            rc = exc.value.code
        else:
            rc = main(argv)
    out, err = capsys.readouterr()
    if fragment is None:
        assert (rc, err) == (0, "")
        assert not re.search(r"(?i)\b(nan|inf|infinity)\b", out)
        return
    assert fragment and (rc, out) == (2, "")
    assert err.startswith("usage: dlh" if isinstance(fragment, Usage) else "dlh: validation error: ")
    assert fragment in err


def _run(request, name):
    if name in LIBRARY:
        _refuses(*LIBRARY[name])
    else:
        _exits_2(request, *CLI[name])


def _test_id(name: str) -> str:
    """The test id a row runs under: its name up to ": ", or test_refusal[name] for a name that is not an id."""
    test_id = name.split(": ", 1)[0]
    return test_id if test_id.startswith("test_") else f"test_refusal[{test_id}]"


_TESTS = {}  # test id -> the rows it runs
for _name in [*LIBRARY, *CLI]:
    _TESTS.setdefault(_test_id(_name), []).append(_name)


def refusal_test(home: str):
    """The test `home`: it runs the rows of the id `home`, or else one case per id `home[id]`."""
    ids = {test_id: names for test_id, names in _TESTS.items() if test_id.split("[", 1)[0] == home}
    if home in ids:
        def test(request):
            for name in ids[home]:
                _run(request, name)
        test.refusal_rows = ids[home]
    else:
        @pytest.mark.parametrize("names", ids.values(), ids=[test_id[len(home) + 1:-1] for test_id in ids])
        def test(request, names):
            for name in names:
                _run(request, name)
        test.refusal_rows = [name for names in ids.values() for name in names]
    return test

