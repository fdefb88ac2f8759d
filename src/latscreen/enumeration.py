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

box_enumerate is the independent reference: a plain scan of the half of the
coordinate box with first nonzero coordinate positive, with every norm
computed exactly on Python integers.  It shares only the exact box bounds
with the walker.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from operator import mul

from . import intlinalg as _intlinalg
from .core import Lattice, LatticeError, Vec, canonical, integer
from .intlinalg import determinant as _int_determinant


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


def _coordinate_limits(lat: Lattice, bound: int) -> list[int]:
    """Exact per-coordinate box bounds |x_j| <= sqrt(bound * C_jj / det), with
    C_jj the (j, j) cofactor, so C_jj / det = (G^-1)_jj.  isqrt of the floor is
    exact: for an integer k >= 0, k^2 <= n/d exactly when k^2 <= n // d."""
    d = lat.rank
    det = lat.determinant
    limits = []
    for j in range(d):
        minor = [
            [lat.gram[r][c] for c in range(d) if c != j]
            for r in range(d) if r != j
        ]
        limits.append(math.isqrt(bound * _int_determinant(minor) // det))
    return limits


def _depth_first(minors: list[int], lam: list[list[int]], bound: int) -> list[tuple[Vec, int]]:
    """Every x with last nonzero coordinate positive and 0 < x^T G x <= bound,
    with its norm, unsorted, for a positive definite G given by its minors
    D_k and lam[j][i] = D_i (S_i)_ij, j > i (module docstring).  Linear memory.

    Level i walks the integer v = x_i with (a v + b)^2 <= rho, a = D_{i+1},
    b = b_i, rho = rho_i; the child's residual is
    rho_{i-1} = D_{i-1} (rho - e^2) / D_{i+1} with e = a v + b, exact
    because D_i P_i is an integer (module docstring).  While the outer
    coordinates are all zero, b = 0 and v runs from 0, the v = 0 branch
    staying in that state, so one vector of each +-pair is walked and the
    zero vector never reaches a leaf."""
    d = len(lam)
    out: list[tuple[Vec, int]] = []
    x = [0] * d
    # per level: a = D_{i+1} and the b coefficients on x[i+1:], row i of D_i S_i
    levels = [(minors[i + 1], [lam[j][i] for j in range(i + 1, d)]) for i in range(d)]

    def level(i: int, rho: int, top: bool) -> None:
        a, brow = levels[i]
        s = math.isqrt(rho)
        if top:  # x[i+1:] is zero, so b = 0; v = 0 keeps the sign open
            b = 0
            lo = 1
            if i:
                level(i - 1, minors[i - 1] * rho // a, True)
        else:
            b = sum(map(mul, brow, x[i + 1:]))
            lo = -((b + s) // a)
        if i:
            below = minors[i - 1]
            for v in range(lo, (s - b) // a + 1):
                x[i] = v
                e = a * v + b
                level(i - 1, below * (rho - e * e) // a, False)
        else:
            for v in range(lo, (s - b) // a + 1):
                x[0] = v
                e = a * v + b
                out.append((tuple(x), bound - (rho - e * e) // a))

    level(d - 1, minors[d - 1] * minors[d] * bound, True)
    return out


def form_minimum(lat: Lattice) -> int:
    """The least norm of a nonzero lattice vector.

    One LLL reduction bounds it by b, the norm of the shortest reduced basis
    vector; one walk up to b - 1 finds anything shorter, and when it finds
    nothing the minimum is b.
    """
    u, minors, lam = lat.lll_reduce()
    bound = min(map(lat.norm, u))
    return min((nrm for _, nrm in _depth_first(minors, lam, bound - 1)), default=bound)


def _finish(lat: Lattice, bound: int, pairs) -> EnumerationResult:
    """Sort (coords, norm) pairs that hold one vector of each +-pair, as the
    walker, the half-box scan and the exact-norm filter give them, with
    canonical signs."""
    canon = sorted((nrm, canonical(coords)) for coords, nrm in pairs)
    return EnumerationResult(
        lattice=lat,
        bound=bound,
        vectors=tuple(c for _, c in canon),
        norms=tuple(n for n, _ in canon),
    )


def enumerate_up_to_norm(lat: Lattice, bound: int) -> EnumerationResult:
    """All nonzero vectors with norm <= bound, up to sign.

    The depth-first walker runs in LLL coordinates, where its level ranges
    stay tight, and the solutions are mapped back to the lattice's basis.
    """
    bound = integer(bound, "norm bound")
    if bound < 0:
        raise LatticeError("norm bound must be nonnegative")
    w, minors, lam = lat.lll_reduce()
    pairs = _depth_first(minors, lam, bound)
    xs = _intlinalg.matmul([z for z, _ in pairs], w)
    return _finish(lat, bound, [(x, nrm) for x, (_, nrm) in zip(xs, pairs)])


def enumerate_exact_norm(lat: Lattice, norm: int) -> EnumerationResult:
    """All vectors of one exact norm, up to sign."""
    norm = integer(norm, "norm")
    if norm < 0:
        raise LatticeError("norm must be nonnegative")
    below = enumerate_up_to_norm(lat, norm)
    return _finish(lat, norm, [(v, n) for v, n in zip(below.vectors, below.norms) if n == norm])


def box_enumerate(lat: Lattice, bound: int) -> EnumerationResult:
    """Reference enumeration by scanning the coordinate box.

    Use for cross-checks: same contract as enumerate_up_to_norm but with a
    deliberately naive algorithm.  Every x with |x_j| <= sqrt(bound *
    (G^-1)_jj) whose first nonzero coordinate is positive is tried: for each
    position k, x_k runs over 1..m_k after k zeros and the later coordinates
    run free.  x^T G x is computed exactly on Python integers, so no entry
    size can overflow.
    """
    bound = integer(bound, "norm bound")
    if bound < 0:
        raise LatticeError("norm bound must be nonnegative")
    gram = lat.gram
    limits = _coordinate_limits(lat, bound)
    pairs = []
    for k, m in enumerate(limits):
        ranges = [range(0, 1)] * k + [range(1, m + 1)] + [range(-t, t + 1) for t in limits[k + 1:]]
        for x in itertools.product(*ranges):
            nrm = sum(xi * sum(map(mul, row, x)) for row, xi in zip(gram, x))
            if nrm <= bound:
                pairs.append((x, nrm))
    return _finish(lat, bound, pairs)
