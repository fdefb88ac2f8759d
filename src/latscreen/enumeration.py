"""Exact enumeration of short lattice vectors.

One walker serves every input: the depth-first triangular recursion of
Fincke and Pohst (1985), run on Python integers so that no entry size can
overflow.  At level i the quadratic condition for coordinate x_i uses the
Schur complement S_i of the first i basis vectors scaled by the i-th leading
minor D_i.  After i fraction-free Bareiss steps (Bareiss 1968) the trailing
block of the eliminated Gram matrix is exactly D_i * S_i, so one elimination
pass, intlinalg.bareiss_steps, yields every level as an integer matrix.
Candidate ranges come from integer square roots, so no floats decide
anything.

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
from .core import Lattice, LatticeError, Vec, canonical
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


def _floor_sqrt_ratio(num: int, den: int) -> int:
    """floor(sqrt(num/den)) for num >= 0, den > 0, exact."""
    if num <= 0:
        return 0
    s = math.isqrt(num // den)
    while (s + 1) * (s + 1) * den <= num:
        s += 1
    return s


def _coordinate_limits(lat: Lattice, bound: int) -> list[int]:
    """Exact per-coordinate box bounds |x_j| <= sqrt(bound * (G^-1)_jj)."""
    d = lat.rank
    det = lat.determinant
    limits = []
    for j in range(d):
        if d == 1:
            adj = 1
        else:
            minor = [
                [lat.gram[r][c] for c in range(d) if c != j]
                for r in range(d) if r != j
            ]
            adj = _int_determinant(minor)
        limits.append(_floor_sqrt_ratio(bound * adj, det))
    return limits


def _depth_first(gram: list[list[int]], bound: int) -> list[tuple[Vec, int]]:
    """Every x with first nonzero coordinate positive and 0 < x^T G x <= bound,
    with its norm, unsorted, for a positive definite G.  Coordinates are fixed
    from the last level inwards; linear memory.

    With the outer coordinates fixed, level i asks a*v^2 + 2*b*v + c <= m for
    v = x_i, which is (a*v + b)^2 <= disc, so the integer range of v follows
    exactly from s = isqrt(disc)."""
    d = len(gram)
    out: list[tuple[Vec, int]] = []
    x = [0] * d
    # per level, copied from D_i * S_i before Bareiss step i: a, the b
    # coefficients, the c matrix rows and m = bound * D_i
    levels = []
    dm = 1
    for i, h in enumerate(_intlinalg.bareiss_steps(gram)):
        levels.append((h[i][i], h[i][i + 1:], [hj[i + 1:] for hj in h[i + 1:]], bound * dm))
        dm = h[i][i]

    def level(i: int) -> None:
        a, brow, crows, m = levels[i]
        tail = x[i + 1:]
        b = sum(map(mul, brow, tail))
        c = sum(xj * sum(map(mul, row, tail)) for row, xj in zip(crows, tail))
        disc = b * b - a * (c - m)
        if disc < 0:
            return
        s = math.isqrt(disc)
        for v in range(-((b + s) // a), (s - b) // a + 1):
            x[i] = v
            if i:
                level(i - 1)
            elif next((t for t in x if t != 0), 0) > 0:
                out.append((tuple(x), a * v * v + 2 * b * v + c))

    level(d - 1)
    return out


def _reduced(gram) -> tuple[list[list[int]], list[list[int]]]:
    """LLL rows w of a positive definite gram and the reduced Gram w gram w^T,
    on which the walker's level ranges stay tight."""
    w = _intlinalg.lll_rows(gram)
    return w, _intlinalg.matmul(_intlinalg.matmul(w, gram), list(zip(*w)))


def form_minimum(gram: list[list[int]]) -> int:
    """The least value of x^T gram x over nonzero integer x, for a positive
    definite integer matrix.

    One LLL reduction bounds it by the shortest reduced basis vector; one
    walk up to that bound finds it exactly.
    """
    _, red = _reduced(gram)
    bound = min(red[i][i] for i in range(len(red)))
    return min(nrm for _, nrm in _depth_first(red, bound))


def _finish(lat: Lattice, bound: int, pairs) -> EnumerationResult:
    canon = sorted({(nrm, canonical(coords)) for coords, nrm in pairs})
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
    bound = int(bound)
    if bound < 0:
        raise LatticeError("norm bound must be nonnegative")
    if bound == 0:
        return EnumerationResult(lattice=lat, bound=0, vectors=(), norms=())
    w, red = _reduced(lat.gram)
    pairs = _depth_first(red, bound)
    xs = _intlinalg.matmul([z for z, _ in pairs], w)
    return _finish(lat, bound, [(x, nrm) for x, (_, nrm) in zip(xs, pairs)])


def enumerate_exact_norm(lat: Lattice, norm: int) -> EnumerationResult:
    """All vectors of one exact norm, up to sign."""
    norm = int(norm)
    if norm < 0:
        raise LatticeError("norm must be nonnegative")
    below = enumerate_up_to_norm(lat, norm)
    pairs = [(v, n) for v, n in zip(below.vectors, below.norms) if n == norm]
    return EnumerationResult(
        lattice=lat,
        bound=norm,
        vectors=tuple(v for v, _ in pairs),
        norms=tuple(n for _, n in pairs),
    )


def box_enumerate(lat: Lattice, bound: int) -> EnumerationResult:
    """Reference enumeration by scanning the coordinate box.

    Use for cross-checks: same contract as enumerate_up_to_norm but with a
    deliberately naive algorithm.  Every x with |x_j| <= sqrt(bound *
    (G^-1)_jj) whose first nonzero coordinate is positive is tried: for each
    position k, x_k runs over 1..m_k after k zeros and the later coordinates
    run free.  x^T G x is computed exactly on Python integers, so no entry
    size can overflow.
    """
    bound = int(bound)
    if bound < 0:
        raise LatticeError("norm bound must be nonnegative")
    if bound == 0:
        return EnumerationResult(lattice=lat, bound=0, vectors=(), norms=())
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
