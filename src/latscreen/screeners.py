"""Screening momenta of an integral lattice.

A nonzero vector x is a screening vector ("screener") when its norm is even,
x is not twice a lattice vector, and 2x/<x,x> pairs integrally with the whole
lattice.  The set of all screeners is finite: <x,x>/2 must divide det G, so
enumerating up to norm 2*det(G) finds every one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Sequence

from . import intlinalg
from .core import DualVec, Lattice, LatticeError, Vec, in_dual
from .enumeration import enumerate_up_to_norm


def is_screener(lat: Lattice, x: Sequence[int]) -> bool:
    """Screening condition: even norm, primitive mod 2L, 2*G*x divisible by the norm."""
    nrm = lat.norm(x)
    if nrm <= 0 or nrm % 2 != 0:
        return False
    if all(v % 2 == 0 for v in x):
        return False
    return all((2 * v) % nrm == 0 for v in lat.gram_times(x))


@dataclass(frozen=True)
class ScreenerSet:
    """All screeners of a lattice, one representative per +-pair, sorted by
    (norm, coordinates)."""

    lattice: Lattice
    vectors: tuple[Vec, ...]
    norms: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.vectors)

    @property
    def total_count(self) -> int:
        """Number of screeners counting both signs."""
        return 2 * len(self.vectors)

    @property
    def min_norm(self) -> int | None:
        return self.norms[0] if self.norms else None


def _mod_kernel_columns(lat: Lattice, t: int, snf=None) -> list[list[int]]:
    """Basis columns of M_t = {x : G x = 0 mod t}, the norm-2t candidate
    sublattice.  From the Smith form U G V = D: scale column i of V by
    t / gcd(d_i, t)."""
    d = lat.rank
    if t == 1:
        return [[1 if i == j else 0 for j in range(d)] for i in range(d)]
    _, diag, v = snf if snf is not None else intlinalg.smith_normal_form(
        [list(r) for r in lat.gram])
    cols = []
    for i in range(d):
        s = t // gcd(diag[i][i], t)
        cols.append([s * v[r][i] for r in range(d)])
    return cols


def all_screeners(lat: Lattice) -> ScreenerSet:
    """Every screener of the lattice.

    A screener of norm 2t has t dividing det(G) and lies in the mod-t kernel
    sublattice M_t, so the search walks the divisors of the determinant and
    enumerates one small ball per shell instead of the whole ball of radius
    2*det(G)."""
    pairs: list[tuple[int, Vec]] = []
    gram = [list(r) for r in lat.gram]
    snf = intlinalg.smith_normal_form(gram)
    for t in intlinalg.divisors(lat.determinant):
        cols = _mod_kernel_columns(lat, t, snf)
        sub = Lattice(intlinalg.matmul(intlinalg.matmul(cols, gram), list(zip(*cols))))
        found = enumerate_up_to_norm(sub, 2 * t)
        shell = [z for z, nrm in zip(found.vectors, found.norms) if nrm == 2 * t]
        for x in intlinalg.matmul(shell, cols):
            first = next((v for v in x if v != 0), 0)
            if first < 0:
                x = [-v for v in x]
            x = tuple(x)
            if is_screener(lat, x):
                pairs.append((2 * t, x))
    pairs.sort()
    return ScreenerSet(
        lattice=lat,
        vectors=tuple(v for _, v in pairs),
        norms=tuple(n for n, _ in pairs),
    )


def screening_system(screeners: ScreenerSet) -> tuple[Vec, ...]:
    """Greedy maximal linearly independent subset, taken in canonical order."""
    picked: list[Vec] = []
    echelon: list[list[Fraction]] = []
    for v in screeners.vectors:
        if _extends_echelon(echelon, v):
            picked.append(v)
    return tuple(picked)


def _extends_echelon(echelon: list[list[Fraction]], v: Sequence[int]) -> bool:
    """Reduce v against the stored echelon rows; absorb it if independent."""
    row = [Fraction(t) for t in v]
    for er in echelon:
        piv = next(j for j, t in enumerate(er) if t != 0)
        if row[piv] != 0:
            f = row[piv] / er[piv]
            row = [a - f * b for a, b in zip(row, er)]
    if all(t == 0 for t in row):
        return False
    echelon.append(row)
    return True


@dataclass(frozen=True)
class SpanLattice:
    """Z-span of a screener set: Hermite basis rows with their Gram matrix."""

    basis: tuple[Vec, ...]
    gram: Lattice
    index_in_lattice: int | None  # None when the span has lower rank


def screener_span(screeners: ScreenerSet) -> SpanLattice:
    lat = screeners.lattice
    if not screeners.vectors:
        raise LatticeError("screener set is empty, the span is trivial")
    basis = intlinalg.hnf_rows([list(v) for v in screeners.vectors])
    gram = Lattice([[lat.inner(b, c) for c in basis] for b in basis])
    index = None
    if len(basis) == lat.rank:
        index = abs(intlinalg.determinant(basis))
    return SpanLattice(
        basis=tuple(tuple(r) for r in basis), gram=gram, index_in_lattice=index
    )


@dataclass(frozen=True)
class SplitSublattice:
    """The finite-index sublattice generated by the screeners together with
    the part of the lattice orthogonal in the quotient sense: Z-span of the
    screeners plus a complement of its saturation."""

    basis: tuple[Vec, ...]
    gram: Lattice
    index_in_lattice: int
    span_rank: int


def screener_splitting(screeners: ScreenerSet) -> SplitSublattice:
    lat = screeners.lattice
    d = lat.rank
    span = intlinalg.hnf_rows([list(v) for v in screeners.vectors]) if screeners.vectors else []
    r = len(span)
    if r == 0:
        rows = intlinalg.identity(d)
    elif r == d:
        rows = span
    else:
        sat = intlinalg.saturation_rows(span)
        comp = intlinalg.complement_rows(sat)
        rows = span + comp
    gram = Lattice([[lat.inner(b, c) for c in rows] for b in rows])
    index = abs(intlinalg.determinant(rows))
    return SplitSublattice(
        basis=tuple(tuple(r_) for r_ in rows),
        gram=gram,
        index_in_lattice=index,
        span_rank=r,
    )


def in_sublattice(basis: Sequence[Vec], x: Sequence[int]) -> bool:
    """Whether x is an integer combination of the given basis rows."""
    return intlinalg.in_row_span(intlinalg.hnf_rows([list(b) for b in basis]), x)


def dual_pairing_unit(lat: Lattice, a: Sequence[int]) -> DualVec:
    """The deterministic dual vector pairing to exactly 1 with a.

    Built as G^-1 z where z comes from folding gcd steps over the
    coordinates in index order; requires a primitive.
    """
    try:
        z = intlinalg.solve_gcd_one([int(v) for v in a])
    except ValueError as e:
        raise LatticeError(str(e))
    sol = intlinalg.solve_linear_system([list(r) for r in lat.gram], z)
    return tuple(sol)


def virasoro_shift(lat: Lattice, a: Sequence[int], p: int, q: int) -> DualVec:
    """The shift vector gamma attached to a screener a of norm 2*p*q.

    gamma = (p - q) * gbar with <gbar, a> = 1, so <gamma, a> = p - q and both
    exponents -a/p and a/q get conformal weight exactly 1.  For p = q the
    shift is zero.  Raises when a is not a screener, the norm does not match,
    or (for p != q) a is imprimitive, in which case no such gamma exists.
    """
    if p < 1 or q < 1:
        raise LatticeError("p and q must be positive")
    if not is_screener(lat, a):
        raise LatticeError(f"{tuple(a)} is not a screening vector")
    if lat.norm(a) != 2 * p * q:
        raise LatticeError(f"norm {lat.norm(a)} != 2*{p}*{q}")
    d = lat.rank
    if p == q:
        return tuple(Fraction(0) for _ in range(d))
    g = 0
    for v in a:
        g = gcd(g, v)
    if g != 1:
        raise LatticeError(f"screener {tuple(a)} is imprimitive (gcd {g}); no shift vector")
    gbar = dual_pairing_unit(lat, a)
    gamma = tuple((p - q) * t for t in gbar)
    for mom, level in ((tuple(Fraction(-v, p) for v in a), 0), (tuple(Fraction(v, q) for v in a), 0)):
        if conformal_weight(lat, mom, gamma, level) != 1:
            raise LatticeError("internal: shift vector fails the weight-1 check")
    return gamma


def conformal_weight(
    lat: Lattice, momentum: Sequence[Fraction | int], gamma: Sequence[Fraction | int], level: int
) -> Fraction:
    """Weight of a level-r vector with the given momentum: r + <v,v>/2 - <gamma,v>."""
    vv = lat.dual_inner(momentum, momentum)
    gv = lat.dual_inner(gamma, momentum)
    return level + vv / 2 - gv


def central_charge(dim: int, gamma: Sequence[Fraction | int], lat: Lattice) -> Fraction:
    """c = dim - 12 <gamma, gamma>."""
    return Fraction(dim) - 12 * lat.dual_inner(gamma, gamma)
