"""Positive definite integral lattices presented by a Gram matrix.

A lattice of rank d is given by the symmetric integer matrix of inner
products of a fixed basis.  Lattice vectors are integer coordinate tuples in
that basis; dual vectors carry rational coordinates in the same basis.  All
arithmetic is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Sequence

from . import intlinalg

Vec = tuple[int, ...]
DualVec = tuple[Fraction, ...]


class LatticeError(ValueError):
    """Raised for inputs that do not describe a valid lattice or operation."""


@dataclass(frozen=True)
class Lattice:
    """Integral lattice with a positive definite Gram matrix.

    Definiteness is checked once at construction (all leading principal
    minors positive); afterwards every operation trusts the matrix.
    """

    gram: tuple[tuple[int, ...], ...]

    def __init__(self, gram: Sequence[Sequence[int]]):
        rows = tuple(tuple(int(v) for v in row) for row in gram)
        d = len(rows)
        if d == 0 or any(len(row) != d for row in rows):
            raise LatticeError("Gram matrix must be square and nonempty")
        for i in range(d):
            for j in range(i + 1, d):
                if rows[i][j] != rows[j][i]:
                    raise LatticeError(f"Gram matrix is not symmetric at ({i}, {j})")
        minors = intlinalg.leading_minors(rows)
        for k, m in enumerate(minors):
            if m <= 0:
                raise LatticeError(
                    f"Gram matrix is not positive definite: leading principal minor {k + 1} is {m}"
                )
        object.__setattr__(self, "gram", rows)
        object.__setattr__(self, "_minors", tuple(minors))

    @property
    def rank(self) -> int:
        return len(self.gram)

    @property
    def determinant(self) -> int:
        return self._minors[-1]

    @property
    def leading_minors(self) -> tuple[int, ...]:
        return self._minors

    @property
    def is_even(self) -> bool:
        return all(self.gram[i][i] % 2 == 0 for i in range(self.rank))

    def gram_times(self, x: Sequence[int]) -> Vec:
        """The vector G x of inner products of x with the basis."""
        self._check_dim(x)
        return tuple(sum(map(mul, row, x)) for row in self.gram)

    def inner(self, x: Sequence[int], y: Sequence[int]) -> int:
        self._check_dim(x)
        self._check_dim(y)
        return sum(map(mul, (sum(map(mul, row, x)) for row in self.gram), y))

    def norm(self, x: Sequence[int]) -> int:
        return self.inner(x, x)

    def row_gram(self, rows: Sequence[Sequence[int]]) -> list[list[int]]:
        """Inner products <rows[i], rows[j]> of lattice vectors: R G R^T."""
        return intlinalg.matmul(intlinalg.matmul(rows, self.gram), list(zip(*rows)))

    def parity(self, x: Sequence[int]) -> int:
        """Norm mod 2; splits the lattice into its even and odd parts."""
        return self.norm(x) % 2

    def dual_inner(self, v: Sequence[Fraction | int], w: Sequence[Fraction | int]) -> Fraction:
        """Inner product extended to rational coordinate vectors.

        Each argument is written as integer numerators over one common
        denominator, v = nv/dv and w = nw/dw, so the product is the integer
        <nv, nw> over dv*dw: one Fraction, none inside the d^2 sum.
        """
        self._check_dim(v)
        self._check_dim(w)
        nv, dv = over_common_denominator(v)
        nw, dw = (nv, dv) if w is v else over_common_denominator(w)
        return Fraction(sum(map(mul, (sum(map(mul, row, nv)) for row in self.gram), nw)), dv * dw)

    def _check_dim(self, x: Sequence) -> None:
        if len(x) != self.rank:
            raise LatticeError(f"vector has length {len(x)}, lattice rank is {self.rank}")

    def __repr__(self) -> str:
        return f"Lattice({[list(r) for r in self.gram]})"


def over_common_denominator(v: Sequence[Fraction | int]) -> tuple[list[int], int]:
    """Integer numerators n and the least positive q with v = n / q.

    q is the lcm of the entries' denominators; ints count as denominator 1.
    """
    q = lcm(*(t.denominator for t in v))
    return [t.numerator * (q // t.denominator) for t in v], q


def is_positive_definite(gram: Sequence[Sequence[int]]) -> bool:
    """Whether gram is a nonempty square symmetric integer matrix with all
    leading minors positive, that is whether Lattice(gram) constructs."""
    try:
        Lattice(gram)
    except LatticeError:
        return False
    return True


def in_dual(lat: Lattice, x: Sequence[int], k: int) -> bool:
    """Whether x/k pairs integrally with the whole lattice (x/k in the dual)."""
    if k <= 0:
        raise LatticeError("denominator must be positive")
    return all(v % k == 0 for v in lat.gram_times(x))


def in_scaled_lattice(x: Sequence[int], n: int) -> bool:
    """Whether every coordinate of x is divisible by n (x in n*L)."""
    if n == 0:
        return all(v == 0 for v in x)
    return all(v % n == 0 for v in x)


def in_extended_dual(lat: Lattice, v: Sequence[Fraction | int]) -> bool:
    """Whether v pairs into Z with even vectors and into (1/2)Z, uniformly,
    with odd vectors.

    Concretely: h_j = 2 <v, b_j> over the basis must be even at every
    even-parity basis vector, integral everywhere, and of one parity across
    all odd-parity basis vectors.  The uniformity matters: a vector pairing
    half-integrally with one odd basis vector and integrally with another
    shifts parity classes inconsistently and is not in the extended dual.
    """
    nums, q = over_common_denominator(v)
    # G is symmetric, so (G n)_j = q <v, b_j>
    twice = [2 * s for s in lat.gram_times(nums)]
    if any(s % q for s in twice):
        return False
    h = [s // q for s in twice]
    odd_parities = set()
    for j in range(lat.rank):
        if lat.gram[j][j] % 2 == 0:
            if h[j] % 2 != 0:
                return False
        else:
            odd_parities.add(h[j] % 2)
    return len(odd_parities) <= 1


def extend_to_basis(lat: Lattice, x: Sequence[int]) -> list[list[int]]:
    """A basis of the lattice whose first vector is x, as matrix columns.

    Requires x primitive (coordinate gcd 1); determinant of the result is
    +-1, and the construction is deterministic.
    """
    lat._check_dim(x)
    g = gcd(*x)
    if g != 1:
        raise LatticeError(f"vector {tuple(x)} is not primitive (gcd {g})")
    return intlinalg.unimodular_with_first_column(x)


def orthogonal_split(
    lat: Lattice, a: Sequence[int]
) -> tuple[Lattice, Lattice, list[list[int]]]:
    """Split off the rank-1 sublattice spanned by a when <a, L> = <a, a> Z.

    Requires that <a, b_j> is divisible by n = <a, a> for every basis vector,
    which makes the Gram-Schmidt corrections integral.  Returns the rank-1
    Gram [[n]], the Gram of the orthogonal complement, and the basis change
    (columns: a followed by the corrected complement basis).
    """
    lat._check_dim(a)
    n = lat.norm(a)
    ga = lat.gram_times(a)
    bad = [j for j in range(lat.rank) if ga[j] % n != 0]
    if bad:
        raise LatticeError(
            f"<a, b_{bad[0]}> = {ga[bad[0]]} is not divisible by <a, a> = {n}; no orthogonal split"
        )
    if lat.rank == 1:
        raise LatticeError("rank-1 lattice has no complement to split off")
    cols = extend_to_basis(lat, a)
    d = lat.rank
    basis = [[cols[i][0] for i in range(d)]]
    for j in range(1, d):
        b = [cols[i][j] for i in range(d)]
        t = lat.inner(a, b) // n
        basis.append([b[i] - t * a[i] for i in range(d)])
    new_gram = sublattice_gram(lat, basis).gram
    if any(new_gram[0][j] != 0 for j in range(1, d)):
        raise LatticeError(f"internal: split of {tuple(a)} left a nonzero pairing {new_gram[0]}")
    rest = [[new_gram[i][j] for j in range(1, d)] for i in range(1, d)]
    witness = [[basis[j][i] for j in range(d)] for i in range(d)]
    return Lattice([[n]]), Lattice(rest), witness


def quotient_invariants(lat: Lattice) -> tuple[int, ...]:
    """Elementary divisors of the dual quotient; their product is det G."""
    divisors = tuple(intlinalg.invariant_factors([list(r) for r in lat.gram]))
    prod = 1
    for v in divisors:
        prod *= v
    if prod != lat.determinant:
        raise LatticeError(
            f"internal: invariants {divisors} multiply to {prod}, not det {lat.determinant}"
        )
    return divisors


def sublattice_gram(lat: Lattice, vs: Sequence[Sequence[int]]) -> Lattice:
    """Gram matrix of the sublattice spanned by the given independent vectors."""
    rows = [list(map(int, v)) for v in vs]
    if not rows:
        raise LatticeError("need at least one vector")
    for v in rows:
        lat._check_dim(v)
    if intlinalg.rank(rows) != len(rows):
        raise LatticeError("vectors are linearly dependent")
    return Lattice(lat.row_gram(rows))


def canonical(x: Sequence[int]) -> Vec:
    """The one of x and -x whose first nonzero coordinate is positive."""
    if next((v for v in x if v != 0), 0) < 0:
        return tuple(-v for v in x)
    return tuple(x)
