"""Exact integer matrix utilities: determinants, Hermite/Smith forms, basis extension.

All routines work over Python ints (or Fractions where a division is genuinely
needed) so results are exact at any size.  Matrices are lists of row lists;
ranks here are small, so clarity beats asymptotics.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from operator import mul
from typing import Iterator, Sequence

Matrix = list[list[int]]


def copy_matrix(mat: Sequence[Sequence[int]]) -> Matrix:
    return [[int(v) for v in row] for row in mat]


def identity(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def matmul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> Matrix:
    cols = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in cols] for row in a]


def bareiss_steps(mat: Sequence[Sequence[int]]) -> Iterator[Matrix]:
    """Fraction-free Bareiss elimination (Bareiss 1968), without pivoting.

    Yields the working matrix a before each step k = 0, 1, ...  Its
    trailing block a[k:][k:] is then D_k * S_k (Sylvester's identity), with
    D_k the k-th leading minor and S_k the Schur complement of the leading
    k x k block, so a[k][k] = D_{k+1}.  The list is updated in place after
    each yield; a consumer copies what it keeps.  Stops after a zero pivot.
    """
    a = copy_matrix(mat)
    n = len(a)
    prev = 1
    for k in range(n):
        yield a
        rk = a[k]
        piv = rk[k]
        if piv == 0:
            return
        for i in range(k + 1, n):
            ri = a[i]
            f = ri[k]
            for j in range(k + 1, n):
                ri[j] = (ri[j] * piv - f * rk[j]) // prev
        prev = piv


def leading_minors(mat: Sequence[Sequence[int]]) -> list[int]:
    """Leading principal minors det(mat[:k,:k]) for k = 1..n.

    They are the pivots of bareiss_steps.  Returns the minors; a zero is
    reported in place if a leading submatrix is singular.
    """
    minors = [a[k][k] for k, a in enumerate(bareiss_steps(mat))]
    # after a vanishing minor the steps stop; the rest come one by one with row pivoting
    minors += [determinant([row[: t + 1] for row in mat[: t + 1]])
               for t in range(len(minors), len(mat))]
    return minors


def determinant(mat: Sequence[Sequence[int]]) -> int:
    """Exact determinant by fraction-free Bareiss elimination with row
    pivoting: a zero pivot is replaced by a lower row with a nonzero entry in
    its column (flipping the sign), and a column with none gives 0."""
    # own loop: it pivots past the zeros of non-definite input, and tests use it as reference
    a = copy_matrix(mat)
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        piv = a[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * piv - a[i][k] * a[k][j]) // prev
        prev = piv
    return sign * prev


def divisors(n: int, limit: int) -> list[int]:
    """Positive divisors of n > 0 that are at most limit, ascending, by trial
    division up to min(limit, isqrt(n))."""
    if n < 1:
        raise ValueError(f"divisors of {n} undefined, need a positive integer")
    small = []
    large = []
    for k in range(1, min(limit, isqrt(n)) + 1):
        if n % k == 0:
            small.append(k)
            if n // k != k and n // k <= limit:
                large.append(n // k)
    return small + large[::-1]


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with g = gcd(a, b) >= 0 and s*a + t*b = g."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def solve_gcd_one(x: Sequence[int]) -> list[int]:
    """Integer z with sum(z_i * x_i) = 1, built by one xgcd step per index.

    Deterministic: indices are folded in increasing order, so the same input
    always yields the same certificate.  Raises if gcd(x) != 1.
    """
    g = 0
    z: list[int] = [0] * len(x)
    for i, xi in enumerate(x):
        g2, s, t = xgcd(g, xi)
        z = [s * v for v in z]
        z[i] = t
        g = g2
    if g != 1:
        raise ValueError(f"coordinates have gcd {g}, expected 1")
    return z


def unimodular_with_first_column(x: Sequence[int]) -> Matrix:
    """Integer matrix with determinant +-1 whose first column is x.

    Requires gcd(x) = 1.  Built from the inverses of the 2x2 elimination
    steps that reduce x to e_1, applied in index order, so the result is
    deterministic.
    """
    x = [int(v) for v in x]
    d = len(x)
    if d == 0 or all(v == 0 for v in x):
        raise ValueError("cannot extend the zero vector")
    if d == 1:
        if abs(x[0]) != 1:
            raise ValueError("coordinates have gcd > 1, vector is not primitive")
        return [[x[0]]]
    m = identity(d)
    g = x[0]
    for i in range(1, d):
        g2, s, t = xgcd(g, x[i])
        # inverse of the step mapping (g, x_i) -> (g2, 0) on coordinates (0, i)
        f = identity(d)
        f[0][0] = g // g2 if g2 else 1
        f[0][i] = -t
        f[i][0] = x[i] // g2 if g2 else 0
        f[i][i] = s
        m = matmul(m, f)
        g = g2
    if g != 1:
        raise ValueError("coordinates have gcd > 1, vector is not primitive")
    return m


def hnf_rows(rows: Sequence[Sequence[int]]) -> Matrix:
    """Row Hermite normal form of the lattice spanned by the given rows.

    Returns only the nonzero rows: pivots positive, entries above a pivot
    reduced into [0, pivot).  Deterministic for any input order.
    """
    a = copy_matrix(rows)
    if not a:
        return []
    m, n = len(a), len(a[0])
    r = 0
    for c in range(n):
        piv = None
        for i in range(r, m):
            x = a[i][c]
            if x == 0:
                continue
            if piv is None:
                piv = i
                continue
            rp, ri = a[piv], a[i]
            p = rp[c]
            if x % p == 0:
                q = x // p
                a[i] = [y - q * z for y, z in zip(ri, rp)]
                continue
            g, s, t = xgcd(p, x)
            u, v = p // g, x // g
            a[piv] = [s * y + t * z for y, z in zip(rp, ri)]
            a[i] = [u * z - v * y for y, z in zip(rp, ri)]
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        if a[r][c] < 0:
            a[r] = [-v for v in a[r]]
        pr = a[r]
        for i in range(r):
            q = a[i][c] // pr[c]
            if q:
                a[i] = [y - q * z for y, z in zip(a[i], pr)]
        r += 1
    return a[:r]


def rank(mat: Sequence[Sequence[int]]) -> int:
    return len(hnf_rows(mat))


def _nearest_quotient(x: int, p: int) -> int:
    """Integer q minimizing |x - q*p| for p > 0 (ties toward the floor)."""
    q, r = divmod(x, p)
    if 2 * r > p:
        q += 1
    return q


def smith_normal_form(mat: Sequence[Sequence[int]]) -> tuple[Matrix, Matrix, Matrix]:
    """(u, d, v) with u*mat*v = d diagonal, u and v unimodular.

    Diagonal entries are nonnegative and each divides the next.  Every pass
    re-selects the globally smallest pivot and reduces with balanced
    quotients, which keeps intermediate entries from compounding.
    """
    a = copy_matrix(mat)
    m = len(a)
    n = len(a[0]) if a else 0
    u = identity(m)
    v = identity(n)
    t = 0
    while t < min(m, n):
        # smallest nonzero magnitude in the trailing block becomes the pivot
        piv = None
        for i in range(t, m):
            for j in range(t, n):
                if a[i][j] != 0 and (piv is None or abs(a[i][j]) < abs(a[piv[0]][piv[1]])):
                    piv = (i, j)
        if piv is None:
            break
        i0, j0 = piv
        a[t], a[i0] = a[i0], a[t]
        u[t], u[i0] = u[i0], u[t]
        if j0 != t:
            for row in a:
                row[t], row[j0] = row[j0], row[t]
            for row in v:
                row[t], row[j0] = row[j0], row[t]
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]
        p = a[t][t]
        # one balanced reduction pass; any leftover means a smaller entry
        # appeared somewhere, so re-pick the pivot
        leftover = False
        for i in range(t + 1, m):
            if a[i][t] != 0:
                q = _nearest_quotient(a[i][t], p)
                if q:
                    a[i] = [a[i][j] - q * a[t][j] for j in range(n)]
                    u[i] = [u[i][j] - q * u[t][j] for j in range(m)]
                if a[i][t] != 0:
                    leftover = True
        for j in range(t + 1, n):
            if a[t][j] != 0:
                q = _nearest_quotient(a[t][j], p)
                if q:
                    for row in a:
                        row[j] -= q * row[t]
                    for row in v:
                        row[j] -= q * row[t]
                if a[t][j] != 0:
                    leftover = True
        if leftover:
            continue
        # pivot row and column are clean: enforce that the pivot divides the
        # whole trailing block before moving on
        bad = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if a[i][j] % p != 0:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is not None:
            a[t] = [a[t][j] + a[bad][j] for j in range(n)]
            u[t] = [u[t][j] + u[bad][j] for j in range(m)]
            continue
        t += 1
    return u, a, v


def invariant_factors(mat: Sequence[Sequence[int]]) -> list[int]:
    """Nonzero diagonal of the Smith form."""
    _, d, _ = smith_normal_form(mat)
    out = []
    for t in range(min(len(d), len(d[0]) if d else 0)):
        if d[t][t] != 0:
            out.append(d[t][t])
    return out


def kernel_rows(mat: Sequence[Sequence[int]]) -> Matrix:
    """Basis rows of {x : mat @ x = 0} over the integers (saturated)."""
    m = len(mat)
    n = len(mat[0]) if mat else 0
    if m == 0:
        return identity(n)
    _, d, v = smith_normal_form(mat)
    # the nonzero diagonal entries come first; columns r..n-1 of v span the kernel
    r = sum(1 for t in range(min(m, n)) if d[t][t] != 0)
    return [[v[i][j] for i in range(n)] for j in range(r, n)]


def solve_linear_system(mat: Sequence[Sequence[int]], rhs: Sequence[int | Fraction]) -> list[Fraction]:
    """Unique exact solution of mat @ x = rhs for invertible mat."""
    n = len(mat)
    a = [[Fraction(mat[i][j]) for j in range(n)] + [Fraction(rhs[i])] for i in range(n)]
    for c in range(n):
        piv = next((r for r in range(c, n) if a[r][c] != 0), None)
        if piv is None:
            raise ValueError("matrix is singular")
        a[c], a[piv] = a[piv], a[c]
        inv = 1 / a[c][c]
        a[c] = [v * inv for v in a[c]]
        for r in range(n):
            if r != c and a[r][c] != 0:
                f = a[r][c]
                a[r] = [a[r][j] - f * a[c][j] for j in range(n + 1)]
    return [a[i][n] for i in range(n)]


def lll_rows(gram: Sequence[Sequence[int]], delta: Fraction = Fraction(3, 4)) -> Matrix:
    """Unimodular rows u with u * gram * u^T LLL-reduced, computed on the
    Gram matrix alone in all-integer arithmetic.

    The enumerators need this: their level-by-level ranges stay tight only on
    a reduced basis, and mod-kernel bases straight out of the Smith form can
    be arbitrarily skewed.  The state is the classical lambda/d pair, where
    dd[i] is the Gram determinant of the first i vectors and
    lam[i][j] = mu[i][j] * dd[j + 1], so every division below is exact and no
    rational Gram-Schmidt data is ever rebuilt."""
    n = len(gram)
    u = identity(n)
    if n < 2:
        return u
    g = [[int(gram[i][j]) for j in range(n)] for i in range(n)]
    dd = [1] * (n + 1)
    lam = [[0] * n for _ in range(n)]
    # lower triangle only: bareiss_steps' full symmetric elimination does about twice this
    for i in range(n):
        for j in range(i + 1):
            s = g[i][j]
            for k in range(j):
                s = (dd[k + 1] * s - lam[i][k] * lam[j][k]) // dd[k]
            if j < i:
                lam[i][j] = s
            elif s > 0:
                dd[i + 1] = s
            else:
                raise ValueError("gram matrix is not positive definite")

    def reduce_row(k: int, j: int) -> None:
        q = _nearest_quotient(lam[k][j], dd[j + 1])
        if q == 0:
            return
        u[k] = [a - q * b for a, b in zip(u[k], u[j])]
        lam[k][j] -= q * dd[j + 1]
        for i in range(j):
            lam[k][i] -= q * lam[j][i]

    k = 1
    while k < n:
        reduce_row(k, k - 1)
        lb = lam[k][k - 1]
        swap = delta.denominator * (dd[k + 1] * dd[k - 1] + lb * lb)
        if swap < delta.numerator * dd[k] * dd[k]:
            u[k], u[k - 1] = u[k - 1], u[k]
            for j in range(k - 1):
                lam[k][j], lam[k - 1][j] = lam[k - 1][j], lam[k][j]
            # mu[k][k-1] survives the swap unchanged in lambda form
            fused = (dd[k - 1] * dd[k + 1] + lb * lb) // dd[k]
            for i in range(k + 1, n):
                t = lam[i][k]
                s = lam[i][k - 1]
                lam[i][k] = (s * dd[k + 1] - t * lb) // dd[k]
                lam[i][k - 1] = (s * lb + t * dd[k - 1]) // dd[k]
            dd[k] = fused
            k = max(k - 1, 1)
        else:
            for j in range(k - 2, -1, -1):
                reduce_row(k, j)
            k += 1
    return u
