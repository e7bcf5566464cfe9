"""The ladder algebra's matrices and the two-route gap of D(nu), as the tests read them.

The ladder matrices are Kronecker products of `dlh._linalg._ladder`, the
ladder that the span kernel and the holonomy engine use, so acceptance check
C1 tests that one ladder. :func:`dual_route_deviation` runs the truncation
guard, the dense route and the route gap of `dlh.displaced`, the sequence
that `displacement_matrix` runs on every call, and returns the gap instead of
comparing it with the 1e-8 tolerance.
"""

from __future__ import annotations

import math

import numpy as np

from dlh._linalg import _ladder
from dlh.displaced import _amplitude, _dense_route, _guard, _route_gap
from dlh.errors import ValidationError
from dlh.fock import FockBasis, OperatorMatrix


def interior_indices(basis: FockBasis, n_margin: int = 1, m_margin: int = 1) -> np.ndarray:
    """Flat indices with n <= n_max - n_margin and m <= m_max - m_margin.

    Truncated ladder identities hold exactly only away from the cut; tests
    and internal consistency checks restrict to this block.
    """
    ns, ms = np.divmod(np.arange(basis.size), basis.m_max + 1)
    keep = (ns <= basis.n_max - n_margin) & (ms <= basis.m_max - m_margin)
    return np.nonzero(keep)[0]


def ladder_a(basis: FockBasis, direction: str) -> OperatorMatrix:
    """Level ladder: "plus" is a+ (raises n), "minus" is a- (lowers n).

    a+ acting on the top row n = n_max truncates to zero; every identity that
    involves a+ a- therefore only holds on the interior block.
    """
    if direction not in ("plus", "minus"):
        raise ValidationError(f'direction must be "plus" or "minus", got {direction!r}')
    an = _ladder((0, basis.n_max))  # a+; a- is its transpose
    im = np.eye(basis.m_max + 1, dtype=complex)
    return OperatorMatrix(np.kron(an if direction == "plus" else an.T, im), basis)


def ladder_b(basis: FockBasis, direction: str) -> OperatorMatrix:
    """Intra-level ladder: "plus" is b+ (lowers m), "minus" is b- (raises m).

    b+ annihilates every m = 0 state, which in (n, l) language says that
    m = n + sigma*l cannot go negative. For
    sigma = -1 b+ raises l; for sigma = +1 it lowers l. [b+, b-] = 1 on the
    interior block.
    """
    if direction not in ("plus", "minus"):
        raise ValidationError(f'direction must be "plus" or "minus", got {direction!r}')
    bm = _ladder((0, basis.m_max))  # b- raises m by sqrt(m+1); b+ is its transpose
    i_n = np.eye(basis.n_max + 1, dtype=complex)
    return OperatorMatrix(np.kron(i_n, bm.T if direction == "plus" else bm), basis)


def state_from_ground(basis: FockBasis, n: int, m: int) -> np.ndarray:
    """|n, m> = a+^n b-^m / sqrt(n! m!) |0, 0>, built by explicit ladder action.

    The m-raising operator is b- (amplitude sqrt(m+1)); b+ annihilates the
    ground state, so only (a+, b-) generate the basis from |0, 0>. Within the
    truncation the result is exactly the corresponding unit coordinate vector.
    """
    basis.index(n, m)  # ValidationError outside the truncation
    vec = np.zeros(basis.size, dtype=complex)
    vec[basis.index(0, 0)] = 1.0
    ap = ladder_a(basis, "plus").entries
    bm = ladder_b(basis, "minus").entries
    for _ in range(m):
        vec = bm @ vec
    for _ in range(n):
        vec = ap @ vec
    vec /= math.sqrt(math.factorial(n) * math.factorial(m))
    return vec


def commutator(A: OperatorMatrix, B: OperatorMatrix) -> OperatorMatrix:
    """[A, B] = AB - BA on a shared basis."""
    if A.basis != B.basis:
        raise ValidationError("commutator across different bases")
    return OperatorMatrix(A.entries @ B.entries - B.entries @ A.entries, A.basis)


def dual_route_deviation(nu: complex, basis: FockBasis) -> float:
    """Max deviation between the two routes to D(nu) on the resolved levels of the n-mode.

    The dense exponential against the closed form of the normally ordered
    product, as `dlh.displaced._route_gap` reads them; m plays no part.
    """
    nu = _amplitude(nu)
    past = _guard(nu, basis.n_max, range(basis.n_max + 1))
    return _route_gap(nu, _dense_route(nu, basis.n_max), past)
