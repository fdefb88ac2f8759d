"""Independent brute-force reference for the enumeration and screener tests.

Everything here is pure Python over exact ints/Fractions and deliberately
avoids the package under test, except that `exponent_and_dual_minimum` and
`walked_screeners` borrow its walker, `enumerate_up_to_norm`, which
`test_depth_first_walks_one_vector_of_each_pair` checks against the box
scan.  The box enumeration scans a plain coordinate box, half of it by the
sign of the first nonzero coordinate, so it is slow but hard to get wrong.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache

from latscreen import Lattice, enumerate_up_to_norm


def det_fraction(mat) -> Fraction:
    """Determinant by fraction Gaussian elimination."""
    a = [[Fraction(v) for v in row] for row in mat]
    n = len(a)
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if a[r][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det *= a[c][c]
        for r in range(c + 1, n):
            f = a[r][c] / a[c][c]
            for k in range(c, n):
                a[r][k] -= f * a[c][k]
    return det


def inverse_fraction(mat) -> list[list[Fraction]]:
    """The inverse of a nonsingular matrix, by Gauss-Jordan elimination over
    Fractions."""
    n = len(mat)
    a = [[Fraction(v) for v in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(mat)]
    for c in range(n):
        piv = next(r for r in range(c, n) if a[r][c] != 0)
        a[c], a[piv] = a[piv], a[c]
        a[c] = [v / a[c][c] for v in a[c]]
        for r in range(n):
            if r != c and a[r][c] != 0:
                f = a[r][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return [row[n:] for row in a]


def exponent_and_dual_minimum(lat) -> tuple[int, int]:
    """(d_n, h_min): the exponent d_n of L*/L, the least common denominator
    of G^-1, and the minimum h_min of the integral Gram H = d_n G^-1, so
    that every nonzero vector of L* has norm at least h_min / d_n.  G^-1 is
    the Fraction inverse, not the Smith form; lat needs only .gram."""
    inv = inverse_fraction(lat.gram)
    dn = math.lcm(*(v.denominator for row in inv for v in row))
    h = [[int(dn * v) for v in row] for row in inv]
    return dn, enumerate_up_to_norm(Lattice(h), min(h[i][i] for i in range(len(h)))).norms[0]


def walked_screeners(lat) -> tuple[list[tuple[tuple[int, ...], int]], int]:
    """(screeners, walked): every screener of lat as (coords, norm), one per
    +-pair with first nonzero coordinate positive, sorted by (norm, coords),
    and the number of vectors walked to find them.

    A screener x of norm 2t gives x/t, a nonzero vector of L* of norm 2/t,
    so 2/t >= h_min / d_n and <x,x> = 2t <= 4 d_n / h_min.  The walk covers
    that ball of L itself and keeps what `is_screener_ref` accepts: no Smith
    form, mod-t kernel or shell cut."""
    dn, hmin = exponent_and_dual_minimum(lat)
    found = enumerate_up_to_norm(lat, 4 * dn // hmin)
    pairs = [(x, nrm) for x, nrm in zip(found.vectors, found.norms) if is_screener_ref(lat.gram, x)]
    return pairs, len(found.vectors)


def _floor_sqrt(x: Fraction) -> int:
    if x < 0:
        return -1
    s = math.isqrt(x.numerator // x.denominator)
    while Fraction((s + 1) * (s + 1)) <= x:
        s += 1
    while Fraction(s * s) > x:
        s -= 1
    return s


def box_limits(gram, bound) -> list[int]:
    """The coordinate box of a norm bound: floor(sqrt(bound * (G^-1)_jj))
    for each j, from the exact inverse diagonal."""
    return [_floor_sqrt(Fraction(bound) * row[j]) for j, row in enumerate(inverse_fraction(gram))]


def box_vectors(gram, bound):
    """All nonzero x with x^T G x <= bound, one representative per +-x.

    Walks the half of the coordinate box |x_j| <= sqrt(bound * (G^-1)_jj)
    whose first nonzero coordinate is positive: for each position k, x_k
    runs over 1..m_k after k zeros and the later coordinates run free.  The
    canonical representatives found are sorted by (norm, coordinates).
    Returns a list of (coords, norm) pairs.
    """
    n = len(gram)
    limits = box_limits(gram, bound)
    found = []
    for k, m in enumerate(limits):
        ranges = [range(1)] * k + [range(1, m + 1)] + [range(-l, l + 1) for l in limits[k + 1:]]
        for x in itertools.product(*ranges):
            norm = sum(x[i] * gram[i][j] * x[j] for i in range(n) for j in range(n))
            if norm <= bound:
                found.append((x, norm))
    found.sort(key=lambda t: (t[1], t[0]))
    return found


def is_screener_ref(gram, x) -> bool:
    """Direct check of the screener conditions, no shortcuts."""
    n = len(gram)
    gx = [sum(gram[i][j] * x[j] for j in range(n)) for i in range(n)]
    norm = sum(x[i] * gx[i] for i in range(n))
    if norm <= 0 or norm % 2 != 0:
        return False
    if all(v % 2 == 0 for v in x):
        return False
    return all((2 * v) % norm == 0 for v in gx)


def brute_screeners(gram):
    """Canonical screener representatives by exhaustive search up to 2*det."""
    bound = 2 * int(det_fraction(gram))
    return [(x, nrm) for (x, nrm) in box_vectors(gram, bound) if is_screener_ref(gram, x)]


def adjugate(gram) -> list[list[int]]:
    """adj G = det G * G^-1, from cofactors."""
    n = len(gram)
    if n == 1:
        return [[1]]
    return [[int((-1) ** (i + j) * det_fraction([[gram[r][c] for c in range(n) if c != i]
                                                 for r in range(n) if r != j]))
             for j in range(n)] for i in range(n)]


@lru_cache(maxsize=32)
def discriminant_group(gram: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, Fraction], ...]:
    """(order, <y,y>) for every y of L*/L, by closing the columns of G^-1
    under addition mod Z^d.

    y = z / det G with z read mod det G; no Smith form is used.  Refuses a
    group of more than 20000 elements.  gram is a tuple of row tuples,
    so repeated calls on one lattice share the work.
    """
    det = int(det_fraction(gram))
    if det > 20000:
        raise ValueError(f"discriminant group of order {det} is too large to list")
    n = len(gram)
    gens = [tuple(v % det for v in col) for col in zip(*adjugate(gram))]
    seen = {(0,) * n}
    frontier = list(seen)
    while frontier:
        nxt = []
        for z in frontier:
            for g in gens:
                w = tuple((a + b) % det for a, b in zip(z, g))
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    out = []
    for z in sorted(seen):
        order = det // math.gcd(det, *z)
        norm = Fraction(sum(z[i] * gram[i][j] * z[j] for i in range(n) for j in range(n)), det * det)
        out.append((order, norm))
    return tuple(out)


def discriminant_admits(lat, t: int) -> bool:
    """Whether L*/L holds an element y of order exactly t with
    q(y) = <y,y> = 2/t, modulo 2 for an even lattice and 1 for an odd one:
    the image of x/t for a screener x of norm 2t.  lat needs only .gram;
    small groups only (see discriminant_group)."""
    gram = tuple(map(tuple, lat.gram))
    mod = 1 if any(gram[i][i] % 2 for i in range(len(gram))) else 2
    return any(order == t and (norm - Fraction(2, t)) % mod == 0
               for order, norm in discriminant_group(gram))
