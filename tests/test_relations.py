"""One table of the exact relations of the connection and the holonomy, across every route.

Rows are relations; columns are routes. A cell of ``_CELLS`` holds the
relation's tolerance on the route and the margin by which its wrong variant
must miss on the fixed inputs (None: no control); a missing cell is n/a. On a
loop, Gamma goes to G(Gamma): the quarter turn (Ex', Ey') -> (-Ey', Ex'), which
multiplies Ey' - i Ex' by i, gives R Gamma R^dag with R = diag(i^m) (wrong
variant: R = diag((-i)^m)); the mirror Ey' -> -Ey' gives conj(Gamma), and
reversal Gamma^dag (wrong variant: the map ignored). On a point they act on
the step generator: Theta(g p, g d) = -i G(i Theta(p, d)), g the map of points
and steps; reversal keeps the point and negates the step, so there it states
that Theta is Hermitian. A route's value at a point is the stack of the four
components A_k(p) = Theta(p, e_k), and the relation reads sum_j A_j(g p) g_jk.
The level's routes also carry chi composition: for loops l1, l2 from one base
point, Phi and Z add and chi(l2 after l1) = chi1 + chi2 + Im(Z2 conj(Z1))
(wrong variant: the cross term's sign flipped). Three maps of lambda and B keep
every value, G the identity: lambda -> -lambda, the chirality flip, which takes a
loop to the sigma = -1 branch; (lambda, B) -> (2.5 lambda, B / 2.5); and
lambda <-> B. Each keeps w = |lambda B|^(-1/2) and the log-step
dlambda/lambda + dB/B, through which alone the connection reads lambda and B, and
has no wrong variant. So does lambda A_lambda = B A_B at a point. Each route's
value at an input is computed once and shared by the relations; derandomized
hypothesis polygons feed the routes that cost about 1 ms a call or less.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dlh.connection import CONTROL_PARAMS, connection_matrix
from dlh.holonomy import ParameterPath, box_loop, holonomy_path_ordered, level_holonomy, unordered_holonomy
from dlh.oracle import fd_connection_matrix
from dlh.params import derive_scales

import _level
from _loops import _SYMMETRY_LOOPS, _wilson_of

_QUARTER = np.array([[0.0, -1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]])
_MIRROR = np.diag([1.0, -1.0, 1.0, 1.0])
_CHIRALITY = np.diag([1.0, 1.0, -1.0, 1.0])
_RESCALE = np.diag([1.0, 1.0, 2.5, 1.0 / 2.5])
_SWAP = np.eye(4)[[0, 1, 3, 2]]


def _turn(m, i=1j):
    """R m R^dag with R = diag(i^k), on the last two axes."""
    r = i ** np.arange(m.shape[-1])
    return r[:, None] * m * r.conj()


def _adjoint(m):
    return np.swapaxes(m, -1, -2).conj()


def _same(x):
    return x


# relation: (map of a loop's vertices, and of a point as a loop of one vertex; map of a step; G; wrong variant of G)
_RELATIONS = {
    "quarter_turn": (lambda x: x @ _QUARTER.T, _QUARTER, _turn, lambda m: _turn(m, -1j)),
    "mirror": (lambda x: x @ _MIRROR.T, _MIRROR, np.conj, _same),
    "reversal": (lambda x: x[::-1], -np.eye(4), _adjoint, _same),
    **{name: (lambda x, g=g: x @ g.T, g, _same, _same)
       for name, g in {"chirality": _CHIRALITY, "rescale": _RESCALE, "swap": _SWAP}.items()},
}

# the points of the connection routes, on both chiralities; the loops of the engine, unordered and level
# routes: three random quadrilaterals with fields strong enough that a wrong R misses by far more than
# rounding, and two ABCHEFA boxes, off Ex' = 0 (only exact segments under "auto") and at Ex' = 0; the Wilson
# loops of tests/_loops.py
_POINTS = [(0.3, 0.7, 2.0, 1.0), (-0.4, 0.25, 1.5, 1.2), (0.3, 0.7, -2.0, 1.0), (-0.4, 0.25, 1.5, -1.2),
           (0.2, -0.5, -1.5, -1.2)]
_rng = np.random.default_rng(7)
_LOOPS = [np.vstack([c, c[:1]]) for c in
          (np.column_stack([_rng.uniform(-1.5, 1.5, (4, 2)), _rng.uniform(0.5, 2.0, (4, 2))]) for _ in range(3))]
_LOOPS += [box_loop("ABCHEFA", (-0.6, 1.2), (0.6, 1.8), (0.7, 1.5), ex=0.5).vertices,
           box_loop("ABCHEFA", (0.0, 1.0), (1.0, 4.0), (1.0, 4.0)).vertices]
_WILSON_LOOPS = [np.array(v + v[:1]) for v in _SYMMETRY_LOOPS]
_U = 0.5  # the scale of the closed-form, engine and level routes, and of cfg_desk


def _route_values(grid, cfg_desk, cfg_natural) -> dict:
    """Route name -> its value at an input: a (4, n, n) stack at a point, the holonomy matrix around a loop."""
    assert derive_scales(cfg_desk).u == _U
    return {
        "closed_form": lambda p: np.array([connection_matrix(k, p, _U, 0, (0, 3)).entries for k in CONTROL_PARAMS]),
        "fd": lambda p: np.array([fd_connection_matrix(grid, cfg_desk, k, p, 0, (0, 3)) for k in CONTROL_PARAMS]),
        "auto": lambda v: holonomy_path_ordered(ParameterPath(v), _U, steps=256, target=None).matrix,
        "magnus": lambda v: holonomy_path_ordered(ParameterPath(v), _U, steps=256, target=None, method="magnus").matrix,
        "unordered": lambda v: unordered_holonomy(ParameterPath(v), _U),
        "wilson": lambda v: _wilson_of(grid, cfg_natural, list(map(tuple, v[:-1]))),
        "level_reference": lambda v: _level.level_block(ParameterPath(v), _U),
        "level": lambda v: level_holonomy(ParameterPath(v), _U).matrix,
    }


# route: (its fixed inputs, {relation: (tolerance, margin of the wrong variant)}). The relations hold
# at rounding on every route but the fd one, whose generator is Hermitian only to its O(h^2) discretization
# (1.2e-6 measured at h = 1e-3, the bound of tests/test_oracle.py::test_fd_matrix_hermitian): the quarter turn
# and the mirror map the fd and Wilson grids onto themselves, reversal mirrors the engine's steps and the
# Wilson links exactly, and every engine factor is time-symmetric


def _cells(tol, margin, reversal=None, **invariances):
    """The cells of the three symmetry relations, and of each invariance named with its tolerance."""
    cells = {"quarter_turn": (tol, margin), "mirror": (tol, margin), "reversal": reversal or (tol, margin)}
    return cells | {name: (t, None) for name, t in invariances.items()}


_KEEP_W = {"chirality": 1e-14, "rescale": 1e-14, "swap": 1e-14}
_CELLS = {
    "closed_form": (_POINTS, _cells(1e-15, 1e-2, (1e-15, None), chirality=1e-15, rescale=1e-15, swap=1e-15)),
    "fd": (_POINTS, _cells(1e-11, 1e-2, (1e-5, None), chirality=1e-11)),
    "auto": (_LOOPS, _cells(1e-12, 1e-2, chirality=1e-12)),
    "magnus": (_LOOPS, _cells(1e-12, 1e-2)),
    "unordered": (_LOOPS, _cells(1e-14, 1e-2, **_KEEP_W)),
    "wilson": (_WILSON_LOOPS, _cells(1e-12, 1e-3, chirality=1e-12)),
    "level_reference": (_LOOPS, _cells(1e-14, 1e-2)),
    "level": (_LOOPS, _cells(1e-14, 1e-2, **_KEEP_W)),
}
_TABLE = [(relation, route) for route, (_, cells) in _CELLS.items() for relation in cells]
_CHEAP = ("unordered", "level_reference", "level")  # about 1 ms a call or less


@pytest.fixture(scope="module")
def value(grid12, cfg_desk, cfg_natural):
    """value(route, x): the route's value at the point or vertex rows x, computed once per route and input."""
    routes, cache = _route_values(grid12, cfg_desk, cfg_natural), {}

    def at(route, x):
        x = np.asarray(x, dtype=float)
        key = (route, x.tobytes())
        if key not in cache:
            cache[key] = routes[route](x)
        return cache[key]

    return at


def _deviations(value, relation: str, route: str, x):
    """(deviation from the relation, miss of its wrong variant per component that it can change)."""
    move, step, G, wrong = _RELATIONS[relation]
    base = value(route, x)
    if np.ndim(x) == 2:  # a loop's vertices
        image = value(route, move(x))
        return float(np.abs(image - G(base)).max()), np.atleast_1d(np.abs(image - wrong(base)).max())
    # on a point, the in-plane components are diagonal, which any diagonal R keeps: the controls read lambda and B
    image = np.einsum("jab,jk->kab", value(route, move(x[None])[0]), step)
    miss = np.abs(image - -1j * wrong(1j * base)).max(axis=(1, 2))[2:]
    return float(np.abs(image - -1j * G(1j * base)).max()), miss


@pytest.mark.parametrize("relation, route", _TABLE)
def test_exact_relation(value, relation, route):
    inputs, cells = _CELLS[route]
    tol, margin = cells[relation]
    for x in inputs:
        deviation, miss = _deviations(value, relation, route, np.array(x, dtype=float))
        assert deviation <= tol, (x, deviation)
        if margin is not None:
            assert miss.size and miss.min() > margin, (x, miss)


# random closed polygons in (Ex', Ey', lambda, B)
_vertex = st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.floats(1.0, 4.0), st.floats(1.0, 4.0))
_polygon = st.lists(_vertex, min_size=3, max_size=5).map(lambda vs: np.array(vs + vs[:1]))
_PROPERTY = settings(derandomize=True, deadline=None, max_examples=25, database=None)


@pytest.mark.parametrize("relation, route", [cell for cell in _TABLE if cell[1] in _CHEAP])
@_PROPERTY
@given(vertices=_polygon)
def test_exact_relation_on_polygons(value, relation, route, vertices):
    tol = _CELLS[route][1][relation][0]
    assert _deviations(value, relation, route, vertices)[0] <= tol


def _level_scalars(v):
    level = level_holonomy(ParameterPath(v), _U)
    return level.Phi, level.chi, level.Z


_SCALARS = {"level_reference": lambda v: _level.level(ParameterPath(v), _U), "level": _level_scalars}


def _composition(route: str, first, second):
    """(deviation of (Phi, chi, Z) of `second` after `first` from the composition law, miss of its wrong variant)."""
    second = np.vstack([first[:1], second[1:-1], first[:1]])  # from the base point of `first`
    (phi1, chi1, z1), (phi2, chi2, z2) = _SCALARS[route](first), _SCALARS[route](second)
    phi, chi, z = _SCALARS[route](np.vstack([first, second[1:]]))
    cross = (z2 * np.conj(z1)).imag
    deviation = max(abs(phi - phi1 - phi2), abs(chi - chi1 - chi2 - cross), abs(z - z1 - z2))
    return deviation, abs(chi - chi1 - chi2 + cross)


@pytest.mark.parametrize("route", _SCALARS)
def test_chi_composition(route):
    for first, second in zip(_LOOPS, _LOOPS[1:] + _LOOPS[:1]):
        deviation, miss = _composition(route, first, second)
        assert deviation <= 1e-14 and miss > 1e-3, (deviation, miss)


@pytest.mark.parametrize("route", _SCALARS)
@_PROPERTY
@given(first=_polygon, second=_polygon)
def test_chi_composition_on_polygons(route, first, second):
    assert _composition(route, first, second)[0] <= 1e-14


@pytest.mark.parametrize("route, tol", [("closed_form", 1e-15), ("fd", 1e-6)])
def test_lambda_and_b_components_share_one_log_step(value, route, tol):
    # A_k = Theta(p, e_k) and the log-step dlambda/lambda + dB/B give lambda A_lambda = B A_B on both chiralities;
    # the fd route meets it to its O(h^2) discretization (4.6e-7 measured)
    for p in _POINTS:
        A = value(route, p)
        assert np.abs(p[2] * A[2] - p[3] * A[3]).max() <= tol, p
