"""Independent brute-force reference for the enumeration and screener tests.

Everything here is pure Python over exact ints/Fractions and deliberately
avoids importing the package under test.  The enumeration walks a plain
coordinate box, so it is slow but hard to get wrong.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction


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


def inverse_diagonal(gram) -> list[Fraction]:
    """Diagonal of G^-1, exact."""
    n = len(gram)
    d = det_fraction(gram)
    out = []
    for j in range(n):
        minor = [[gram[r][c] for c in range(n) if c != j] for r in range(n) if r != j]
        out.append(det_fraction(minor) / d if n > 1 else Fraction(1) / d)
    return out


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
    return [_floor_sqrt(Fraction(bound) * t) for t in inverse_diagonal(gram)]


def box_vectors(gram, bound):
    """All nonzero x with x^T G x <= bound, one representative per +-x.

    Walks the full coordinate box |x_j| <= sqrt(bound * (G^-1)_jj) and keeps
    canonical representatives (first nonzero coordinate positive), sorted by
    (norm, coordinates).  Returns a list of (coords, norm) pairs.
    """
    n = len(gram)
    limits = box_limits(gram, bound)
    found = []
    for x in itertools.product(*(range(-l, l + 1) for l in limits)):
        first = next((v for v in x if v != 0), 0)
        if first <= 0:
            continue
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
