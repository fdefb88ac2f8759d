"""Independent brute-force reference for the enumeration and screener tests.

Everything here is pure Python over exact ints/Fractions and deliberately
avoids the package under test, except that `exponent_and_dual_minimum` and
`walked_screeners` borrow its walker, `enumerate_up_to_norm`, which
`test_depth_first_walks_one_vector_of_each_pair` checks against the box
scan, and that the Smith-based shell routes (`smith_routes`) borrow its
Smith form, LLL and Gram-Schmidt state.  The box enumeration scans a plain
coordinate box, half of it by the sign of the first nonzero coordinate, so
it is slow but hard to get wrong.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from latscreen import Lattice, enumerate_up_to_norm
from latscreen.intlinalg import gram_from_state, gram_schmidt, hnf_rows, smith_normal_form, xgcd


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
    whose first nonzero coordinate is positive: x_0 is fixed first, and
    x_j runs over 0..m_j while x_0 = ... = x_{j-1} = 0 and over -m_j..m_j
    after.  Each step carries G x and the norm of the part fixed so far,
    so fixing x_j costs O(n) and no point sums the n^2 terms of its norm.
    The canonical representatives found are sorted by (norm, coordinates).
    Returns a list of (coords, norm) pairs.
    """
    n = len(gram)
    limits = box_limits(gram, bound)
    cols = list(zip(*gram))
    found = []

    def scan(j, x, gx, norm, zero):
        # x fixes x_0, ..., x_{j-1}; gx = G x and norm = <x, x> of that part
        m, col = limits[j], cols[j]
        for v in range(0 if zero else -m, m + 1):
            # <x + v e_j, x + v e_j> = <x, x> + v (2 (G x)_j + G_jj v)
            nv = norm + v * (2 * gx[j] + col[j] * v)
            if j + 1 < n:
                gv = [a + v * c for a, c in zip(gx, col)] if v else gx
                scan(j + 1, x + (v,), gv, nv, zero and not v)
            elif nv <= bound and not (zero and not v):
                found.append((x + (v,), nv))

    scan(0, (), [0] * n, 0, True)
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


def prime_factors(n: int) -> list[int]:
    """The distinct primes of n >= 1, ascending, by trial division."""
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    return out + [n] if n > 1 else out


def smith_data(gram) -> tuple[list[int], list[list[int]], int]:
    """(invariants, v, a) of the Smith form U G V = D of a Gram: the d_i,
    the matrix V and a = <V_n, V_n> / d_n, which d_n divides since
    G V_n = d_n (U^-1)_n."""
    diag, v = smith_normal_form(gram)
    invariants = [diag[i][i] for i in range(len(gram))]
    vn = [row[-1] for row in v]
    return invariants, v, sum(x * gram[i][j] * y for i, x in enumerate(vn) for j, y in enumerate(vn)) // invariants[-1]


def smith_discriminant_admits(t: int, invariants, a: int, even: bool) -> bool:
    """The discriminant-form cut of t on Smith data: t | d_n and, for each
    prime p of t with p^k exactly dividing t, for odd p some v_p(d_i) = k
    and, when p divides d_n alone, 2 a (d_n/p^k)(t/p^k) a square mod p;
    for p = 2, when the lattice is even or k >= 2, some d_i with
    1 <= v_2(d_i) and k - 1 <= v_2(d_i) <= k + 1."""
    dn = invariants[-1]
    if dn % t:
        return False
    for p in prime_factors(t):
        q = p
        while t % (q * p) == 0:
            q *= p
        if p == 2:
            if (even or q > 2) and not any(di % max(q // 2, 2) == 0 and di % (4 * q) for di in invariants):
                return False
        elif not any(di % q == 0 and di % (q * p) for di in invariants):
            return False
        elif (len(invariants) == 1 or invariants[-2] % p) and pow(2 * a * (dn // q) * (t // q), (p - 1) // 2, p) != 1:
            return False
    return True


def smith_mod_kernel_basis(v, invariants, t: int) -> list[list[int]]:
    """The Hermite basis of M_t = {x : G x = 0 mod t} from the Smith form:
    the columns s_i V_i, s_i = t / gcd(d_i, t), inserted mod t into the
    rows of t I in the modular order of Domich, Kannan and Trotter, then
    reduced above the pivots."""
    d = len(invariants)
    h = [[t if i == j else 0 for j in range(d)] for i in range(d)]
    for i, di in enumerate(invariants):
        s = t // math.gcd(di, t)
        if s == t:
            continue
        g = [s * row[i] % t for row in v]
        for c in range(d):
            x = g[c]
            if x == 0:
                continue
            hc = h[c]
            p = hc[c]
            e, a, b = xgcd(p, x)
            u, w = p // e, x // e
            h[c] = [(a * y + b * z) % t for y, z in zip(hc, g)]
            g = [(u * z - w * y) % t for y, z in zip(hc, g)]
    return hnf_rows(h)


def smith_routes(lat, ts) -> dict:
    """The route of each t of ts that the walk of L does not serve, from the
    Smith form of the reduced Gram w G w^T of L's LLL state: ("form",) when
    the discriminant form cuts t, else ("empty",) when the Hermite basis c
    of M_t has every D_{k+1} > 2t D_k, else ("walk", c, its Gram, its
    gram_schmidt state)."""
    _, minors, lam = lat.lll_reduce()
    red = Lattice(gram_from_state(minors, lam))
    gram = [list(row) for row in red.gram]
    invariants, v, a = smith_data(gram)
    out = {}
    for t in ts:
        if not smith_discriminant_admits(t, invariants, a, lat.is_even):
            out[t] = ("form",)
            continue
        basis = smith_mod_kernel_basis(v, invariants, t)
        g = red.row_gram(basis)
        state = gram_schmidt(g)
        m = state[0]
        out[t] = ("empty",) if all(m[k + 1] > 2 * t * m[k] for k in range(lat.rank)) else ("walk", basis, g, state)
    return out
