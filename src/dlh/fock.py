"""Truncated two-ladder Fock space for the effective Landau problem.

States are labeled |n, m> with n the Landau level and m >= 0 the radial
index; the angular momentum quantum number is l = sigma * (m - n). In this
labeling the two commuting ladder algebras decouple completely:

    a+ |n, m> = sqrt(n+1) |n+1, m>      a- |n, m> = sqrt(n)   |n-1, m>
    b+ |n, m> = sqrt(m)   |n, m-1>      b- |n, m> = sqrt(m+1) |n, m+1>

with [a-, a+] = [b+, b-] = 1 and every a commuting with every b, so all four
operators are Kronecker products and no sigma branching enters matrix
construction. sigma only decides how (n, m) reads back as (n, l).

The energy depends on n alone, E_n = hbar |omega| (n + 1/2); the b ladder
walks the degenerate states inside one level. The ground state is annihilated
by a- and b+.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._linalg import _ladder
from .errors import ValidationError, _check_count, _is_integer
from .params import DerivedScales

__all__ = [
    "FockBasis",
    "OperatorMatrix",
    "build_basis",
    "ladder_a",
    "ladder_b",
    "hamiltonian_matrix",
    "lz_matrix",
    "state_from_ground",
    "commutator",
]


@dataclass(frozen=True)
class FockBasis:
    """Truncated basis with 0 <= n <= n_max, 0 <= m <= m_max.

    Flat index is row-major in (n, m): idx = n * (m_max + 1) + m. The
    bounds are integers >= 0 and sigma is the integer +1 or -1 (a bool or a
    float is a ValidationError).
    """

    n_max: int
    m_max: int
    sigma: int = 1

    def __post_init__(self):
        for name in ("n_max", "m_max"):
            object.__setattr__(self, name, _check_count(name, getattr(self, name), 0))
        if not (_is_integer(self.sigma) and self.sigma in (1, -1)):
            raise ValidationError(f"sigma must be +1 or -1, got {self.sigma!r}")

    @property
    def size(self) -> int:
        return (self.n_max + 1) * (self.m_max + 1)

    def index(self, n: int, m: int) -> int:
        """Flat index of (n, m); an index that is not an integer (or is a bool) is outside the truncation."""
        if not (_is_integer(n) and _is_integer(m) and 0 <= n <= self.n_max and 0 <= m <= self.m_max):
            raise ValidationError(
                f"(n={n}, m={m}) outside truncation n_max={self.n_max}, m_max={self.m_max}"
            )
        return n * (self.m_max + 1) + m

    def labels(self, idx: int) -> tuple[int, int]:
        """Inverse of :meth:`index`; an index that is not an integer (or is a bool) is outside the basis."""
        if not (_is_integer(idx) and 0 <= idx < self.size):
            raise ValidationError(f"index {idx} outside basis of size {self.size}")
        return divmod(idx, self.m_max + 1)

    def interior_indices(self, n_margin: int = 1, m_margin: int = 1) -> np.ndarray:
        """Flat indices with n <= n_max - n_margin and m <= m_max - m_margin.

        Truncated ladder identities hold exactly only away from the cut; tests
        and internal consistency checks restrict to this block.
        """
        ns, ms = np.divmod(np.arange(self.size), self.m_max + 1)
        keep = (ns <= self.n_max - n_margin) & (ms <= self.m_max - m_margin)
        return np.nonzero(keep)[0]


@dataclass(frozen=True)
class OperatorMatrix:
    """Dense complex operator on a :class:`FockBasis`."""

    entries: np.ndarray
    basis: FockBasis

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=complex)
        object.__setattr__(self, "entries", e)
        if e.ndim != 2 or e.shape[0] != e.shape[1] or e.shape[0] != self.basis.size:
            raise ValidationError(
                f"entries shape {e.shape} does not match basis size {self.basis.size}"
            )


def build_basis(n_max: int, m_max: int, sigma: int = 1) -> FockBasis:
    """Construct the truncated basis."""
    return FockBasis(n_max=n_max, m_max=m_max, sigma=sigma)


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


def hamiltonian_matrix(basis: FockBasis, scales: DerivedScales) -> OperatorMatrix:
    """H = hbar |omega| (a+ a- + 1/2): diagonal, m-degenerate."""
    ns = np.repeat(np.arange(basis.n_max + 1), basis.m_max + 1).astype(float)
    diag = scales.energy_quantum * (ns + 0.5)
    return OperatorMatrix(np.diag(diag).astype(complex), basis)


def lz_matrix(basis: FockBasis, scales: DerivedScales) -> OperatorMatrix:
    """L_z = sigma hbar (b- b+ - a+ a-): diagonal hbar * l with l = sigma (m - n)."""
    ns, ms = np.divmod(np.arange(basis.size), basis.m_max + 1)
    diag = scales.hbar * basis.sigma * (ms - ns).astype(float)
    return OperatorMatrix(np.diag(diag).astype(complex), basis)


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
