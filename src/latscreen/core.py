"""Positive definite integral lattices presented by a Gram matrix.

A lattice of rank d is given by the symmetric integer matrix of inner
products of a fixed basis.  Lattice vectors are integer coordinate tuples in
that basis; dual vectors carry rational coordinates in the same basis.  All
arithmetic is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import index, mul
from typing import Iterable, Sequence

from . import intlinalg

Vec = tuple[int, ...]
DualVec = tuple[Fraction, ...]


class LatticeError(ValueError):
    """Raised for inputs that do not describe a valid lattice or operation."""


def _integer_entry(v: object, i: int, j: int) -> int:
    """Gram entry (i, j) as an int; a float, str or Fraction is refused, not truncated."""
    try:
        return index(v)
    except TypeError:
        raise LatticeError(f"Gram entry ({i}, {j}) is {v!r}, not an integer") from None


def integer(v: object, what: str) -> int:
    """v as an int; a float, str or Fraction is refused, not truncated."""
    try:
        return index(v)
    except TypeError:
        raise LatticeError(f"{what} is {v!r}, not an integer") from None


@dataclass(frozen=True)
class Lattice:
    """Integral lattice with a positive definite Gram matrix.

    Construction checks definiteness once, by intlinalg.gram_schmidt, and keeps
    its state for lll_reduce; afterwards every operation trusts the matrix.
    `_from_state` keeps a state the caller already holds, with no check.
    """

    gram: tuple[tuple[int, ...], ...]

    def __init__(self, gram: Sequence[Sequence[int]]):
        try:
            rows = tuple(tuple(_integer_entry(v, i, j) for j, v in enumerate(row))
                         for i, row in enumerate(gram))
        except TypeError:  # gram, or one of its rows, is not a sequence
            rows = ()
        d = len(rows)
        if d == 0 or any(len(row) != d for row in rows):
            raise LatticeError("Gram matrix must be square and nonempty")
        for i in range(d):
            for j in range(i + 1, d):
                if rows[i][j] != rows[j][i]:
                    raise LatticeError(f"Gram matrix is not symmetric at ({i}, {j})")
        minors, lam = intlinalg.gram_schmidt(rows)
        if minors[-1] <= 0:
            raise LatticeError("Gram matrix is not positive definite: "
                               f"leading principal minor {len(minors) - 1} is {minors[-1]}")
        self._keep(rows, minors, lam)

    @classmethod
    def _from_state(cls, gram: Sequence[Sequence[int]], minors: Sequence[int],
                    lam: Sequence[Sequence[int]]) -> Lattice:
        """The Lattice of a Gram the package built itself, R G R^T over a
        basis R of a sublattice, so integer, symmetric and positive definite,
        from the intlinalg.gram_schmidt state the caller already holds: no
        entry check and no second elimination."""
        self = object.__new__(cls)
        self._keep(tuple(map(tuple, gram)), minors, lam)
        return self

    def _keep(self, rows: tuple[tuple[int, ...], ...], minors: Sequence[int],
              lam: Sequence[Sequence[int]]) -> None:
        object.__setattr__(self, "gram", rows)
        object.__setattr__(self, "_minors", tuple(minors))
        object.__setattr__(self, "_lam", tuple(map(tuple, lam)))

    @property
    def rank(self) -> int:
        return len(self.gram)

    @property
    def minors(self) -> tuple[int, ...]:
        """The leading principal minors D_0 = 1, D_1, ..., D_d of the Gram;
        D_{k+1} / D_k is the squared length of the k-th Gram-Schmidt vector."""
        return self._minors

    @property
    def determinant(self) -> int:
        return self._minors[-1]

    def lll_reduce(self) -> tuple[intlinalg.Matrix, list[int], intlinalg.Matrix]:
        """intlinalg.lll_reduce, started from the state kept at construction."""
        return intlinalg.lll_reduce(self._minors, self._lam)

    @property
    def is_even(self) -> bool:
        return all(self.gram[i][i] % 2 == 0 for i in range(self.rank))

    def vector(self, x: Iterable[int], what: str) -> Vec:
        """The one reader of a lattice vector: x, any iterable, read once as
        rank-many ints; a float, str or Fraction entry is refused, not truncated."""
        try:
            x = tuple(x)
            v = tuple(map(index, x))
        except TypeError:
            if not isinstance(x, tuple):
                raise LatticeError(f"{what} is {x!r}, not a sequence of integers") from None
            raise LatticeError(f"{what} {x!r} has an entry that is not an integer") from None
        if len(v) != self.rank:
            raise LatticeError(f"vector has length {len(v)}, lattice rank is {self.rank}")
        return v

    def gram_times(self, x: Iterable[int]) -> Vec:
        """The vector G x of inner products of x with the basis."""
        x = self.vector(x, "vector")
        return tuple(sum(map(mul, row, x)) for row in self.gram)

    def inner(self, x: Iterable[int], y: Iterable[int]) -> int:
        return sum(map(mul, self.gram_times(x), self.vector(y, "vector")))

    def norm(self, x: Iterable[int]) -> int:
        x = self.vector(x, "vector")
        return sum(map(mul, self.gram_times(x), x))

    def row_gram(self, rows: Sequence[Sequence[int]]) -> list[list[int]]:
        """Inner products <rows[i], rows[j]> of lattice vectors: R G R^T."""
        return intlinalg.matmul(intlinalg.matmul(rows, self.gram), list(zip(*rows)))

    def dual_inner(self, v: Iterable[Fraction | int], w: Iterable[Fraction | int]) -> Fraction:
        """Inner product extended to rational coordinate vectors.

        Each argument is written as integer numerators over one common
        denominator, v = nv/dv and w = nw/dw, so the product is the integer
        <nv, nw> over dv*dw: one Fraction, none inside the d^2 sum.
        """
        nv, dv = over_common_denominator(v)
        nw, dw = (nv, dv) if w is v else over_common_denominator(w)
        return Fraction(self.inner(nv, nw), dv * dw)

    def __repr__(self) -> str:
        return f"Lattice({[list(r) for r in self.gram]})"


def over_common_denominator(v: Iterable[Fraction | int]) -> tuple[list[int], int]:
    """The one reader of a dual vector: v, any iterable of ints and
    Fractions, read once into integer numerators n and the least positive
    q with v = n / q, the lcm of the entries' denominators (1 for an int).
    """
    try:
        v = tuple(v)
    except TypeError:
        raise LatticeError(f"vector is {v!r}, not a sequence") from None
    try:
        q = lcm(*(t.denominator for t in v))
        return [t.numerator * (q // t.denominator) for t in v], q
    except AttributeError:
        raise LatticeError(f"dual vector {v!r} has an entry that is not an int or a Fraction") from None


def is_positive_definite(gram: Sequence[Sequence[int]]) -> bool:
    """Whether gram is a nonempty square symmetric integer matrix with all
    leading minors positive, that is whether Lattice(gram) constructs."""
    try:
        Lattice(gram)
    except LatticeError:
        return False
    return True


def in_dual(lat: Lattice, x: Sequence[int], k: int) -> bool:
    """Whether x/k pairs integrally with the whole lattice (x/k in the dual),
    for a lattice vector x and a positive integer k."""
    x, k = lat.vector(x, "vector"), integer(k, "denominator")
    if k <= 0:
        raise LatticeError("denominator must be positive")
    return in_dual_from(lat.gram_times(x), k)


def in_dual_from(gx: Sequence[int], k: int) -> bool:
    """The dual-membership rule behind in_dual: x/k is in the dual when k divides every entry of gx = G x."""
    return all(v % k == 0 for v in gx)


def in_scaled_lattice(x: Sequence[int], n: int) -> bool:
    """Whether every coordinate of x is divisible by n (x in n*L)."""
    if n == 0:
        return all(v == 0 for v in x)
    return all(v % n == 0 for v in x)


def canonical(x: Sequence[int]) -> Vec:
    """The one of x and -x whose first nonzero coordinate is positive."""
    for v in x:
        if v:
            return tuple(x) if v > 0 else tuple([-t for t in x])
    return tuple(x)
