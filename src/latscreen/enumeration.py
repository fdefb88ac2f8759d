"""Exact enumeration of short lattice vectors.

One walker serves every input: the depth-first triangular recursion of
Fincke and Pohst (1985), run on Python integers so that no entry size can
overflow.  Coordinates are fixed from the last one inwards.  With D_k the
k-th leading minor of G (D_0 = 1), S_i the Schur complement of the first i
basis vectors and P_i = x[i:]^T S_i x[i:] the norm the levels from i
outwards contribute, P_i = P_{i+1} + e_i^2 / (D_i D_{i+1}), where
e_i = D_{i+1} x_i + b_i and b_i is the cross term of row i of D_i S_i with
x[i+1:].  The walk runs on an LLL-reduced basis b_0..b_{d-1}: the integral
LLL of Lattice.lll_reduce (Cohen, Alg. 2.6.7) starts from the Gram-Schmidt
state kept at construction, so the Gram is eliminated once, and ends
holding these levels: D_k are its minors and row i of D_i S_i is lam[j][i],
j > i, since S_i is the Gram of the b_j projected orthogonally to
b_0..b_{i-1}, so (S_i)_ij = <b_i*, b_j> = mu_ji D_{i+1} / D_i.  A Bareiss
pass (Bareiss 1968) on the reduced Gram, never formed, gives the same.

As in Schnorr and Euchner (1994), what the outer levels leave is carried
down rather than recomputed: the residual rho_i = D_i D_{i+1} (B - P_{i+1})
of the bound B starts at D_{d-1} D_d B, level i admits the x_i with
e_i^2 <= rho_i (an integer square root gives the range, so no floats decide
anything), and a child gets rho_{i-1} = D_{i-1} (rho_i - e_i^2) / D_{i+1}.
That division is exact: D_i P_i is the integer x[i:]^T (D_i S_i) x[i:], so
rho_{i-1} = D_{i-1} (D_i B - D_i P_i) is an integer.  A leaf's norm is
B - (rho_0 - e_0^2) / D_1.  Each node costs one O(d) dot product for b_i.

The sign is fixed at the outermost nonzero level, as Fincke and Pohst do:
while every coordinate above level i is zero, b_i = 0 and x_i starts at 0,
so of each +-pair only the vector whose last nonzero coordinate is positive
is walked, and the zero vector is never emitted.

short_vectors is the one walk-and-map path: it walks the state
u, minors, lam that Lattice.lll_reduce returns, with z the coordinates on
the reduced rows u, and each level carries the image z[i:] u[i:] in the
lattice's basis of the coordinates fixed so far.  A nonzero z_i adds
z_i u_i to its parent's image; a zero one adds nothing, so the child takes
that tuple as it is, and most coordinates of a short vector on a reduced
basis are zero.  A leaf emits its image x = z u with canonical sign (first
nonzero coordinate positive), so no product and no sign pass follow the
walk.  enumerate_up_to_norm reduces the lattice and sorts what
short_vectors gives; all_screeners hands it the state it already holds,
so L is reduced once and walked once per call; its docstring gives the
bound of that walk and what it serves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul

from . import intlinalg as _intlinalg
from .core import Lattice, LatticeError, Vec, canonical, integer
from .intlinalg import determinant as _int_determinant  # unused here; perfbench's tracer tests read it


@dataclass(frozen=True)
class EnumerationResult:
    """Canonical representatives (first nonzero coordinate positive) of the
    nonzero vectors within a norm bound, sorted by (norm, coordinates)."""

    lattice: Lattice
    bound: int
    vectors: tuple[Vec, ...]
    norms: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.vectors)


def short_vectors(u: _intlinalg.Matrix, minors: list[int], lam: _intlinalg.Matrix, bound: int) -> list[tuple[Vec, int]]:
    """Every x = z u with 0 < <x,x> <= bound, one of each +-pair with
    canonical sign, with its norm, unsorted, from the state
    u, minors, lam = lat.lll_reduce() of a lattice: minors D_k and
    lam[j][i] = D_i (S_i)_ij, j > i, of the rows u (module docstring).
    Linear memory.

    Level i walks the integer v = z_i with (a v + b)^2 <= rho, a = D_{i+1},
    b = b_i, rho = rho_i; the child's residual is
    rho_{i-1} = D_{i-1} (rho - e^2) / D_{i+1} with e = a v + b, exact
    because D_i P_i is an integer (module docstring).  While the outer
    coordinates are all zero, b = 0 and v runs from 0, the v = 0 branch
    staying in that state, so one z of each +-pair is walked and the zero
    vector never reaches a leaf.  Each level also carries the image
    z[i+1:] u[i+1:] of the coordinates fixed so far: a child adds v u_i to
    it, and one with v = 0 takes its parent's tuple as it is."""
    d = len(lam)
    out: list[tuple[Vec, int]] = []
    z = [0] * d
    # per level: a = D_{i+1}, the b coefficients on z[i+1:] (row i of
    # D_i S_i) and the row u_i that z_i multiplies
    levels = [(minors[i + 1], [lam[j][i] for j in range(i + 1, d)], u[i]) for i in range(d)]

    def level(i: int, rho: int, top: bool, image: Vec) -> None:
        a, brow, row = levels[i]
        s = math.isqrt(rho)
        if top:  # z[i+1:] is zero, so b = 0; v = 0 keeps the sign open
            b = 0
            lo = 1
            if i:
                level(i - 1, minors[i - 1] * rho // a, True, image)
        else:
            b = sum(map(mul, brow, z[i + 1:]))
            lo = -((b + s) // a)
        if i:
            below = minors[i - 1]
            for v in range(lo, (s - b) // a + 1):
                z[i] = v
                e = a * v + b
                level(i - 1, below * (rho - e * e) // a, False,
                      tuple([p + v * c for p, c in zip(image, row)]) if v else image)
        else:
            for v in range(lo, (s - b) // a + 1):
                e = a * v + b
                x = tuple([p + v * c for p, c in zip(image, row)]) if v else image
                out.append((canonical(x), bound - (rho - e * e) // a))

    level(d - 1, minors[d - 1] * minors[d] * bound, True, (0,) * d)
    return out


def _finish(lat: Lattice, bound: int, pairs) -> EnumerationResult:
    """Sort (coords, norm) pairs that hold the canonical vector of each
    +-pair, as short_vectors and the exact-norm filter give them."""
    canon = sorted((nrm, coords) for coords, nrm in pairs)
    return EnumerationResult(
        lattice=lat,
        bound=bound,
        vectors=tuple(c for _, c in canon),
        norms=tuple(n for n, _ in canon),
    )


def enumerate_up_to_norm(lat: Lattice, bound: int) -> EnumerationResult:
    """All nonzero vectors with norm <= bound, up to sign.

    The depth-first walker runs in LLL coordinates, where its level ranges
    stay tight, and short_vectors maps the solutions back to the lattice's
    basis.
    """
    bound = integer(bound, "norm bound")
    if bound < 0:
        raise LatticeError("norm bound must be nonnegative")
    return _finish(lat, bound, short_vectors(*lat.lll_reduce(), bound))


def enumerate_exact_norm(lat: Lattice, norm: int) -> EnumerationResult:
    """All vectors of one exact norm, up to sign."""
    norm = integer(norm, "norm")
    if norm < 0:
        raise LatticeError("norm must be nonnegative")
    below = enumerate_up_to_norm(lat, norm)
    return _finish(lat, norm, [(v, n) for v, n in zip(below.vectors, below.norms) if n == norm])
