"""Exact integer matrix utilities: one Bareiss elimination behind determinants
and linear solves, one Gram-Schmidt pass behind LLL, Hermite/Smith forms,
and the divisors of an integer up to a limit, from its primes.

All routines work over Python ints, so results are exact at any size; a
Fraction appears only in the solution solve_linear_system returns.  Matrices
are lists of row lists; ranks here are small, so clarity beats asymptotics.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm
from operator import index, mul
from typing import Sequence

Matrix = list[list[int]]


def copy_matrix(mat: Sequence[Sequence[int]]) -> Matrix:
    """Fresh int rows; a float, str or Fraction entry raises TypeError, not truncated."""
    return [list(map(index, row)) for row in mat]


def identity(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def matmul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> Matrix:
    cols = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in cols] for row in a]


def bareiss(mat: Sequence[Sequence[int]]) -> tuple[Matrix, int]:
    """Fraction-free Bareiss elimination (Bareiss 1968) with row pivoting.

    Returns the final working matrix a and its last pivot, which is the
    determinant of the square part: 1 for the empty matrix, 0 when a column
    has no pivot row.  Up to the first vanishing leading minor, the trailing
    block a[k:][k:] before step k is D_k * S_k (Sylvester's identity), with
    D_k the k-th leading minor and S_k the Schur complement of the leading
    k x k block, so a[k][k] = D_{k+1}.  A zero pivot is replaced by the
    first lower row with a nonzero entry in its column, negated so that the
    determinant keeps its sign; the pass stops at a column with no such
    row.  Step k leaves the rows above k alone, so row k is fixed once
    step k has picked its pivot row; below the first vanishing leading
    minor no row is swapped, and row k of a is row k of D_k * S_k from
    column k on.  Entries left of the diagonal are not cleared.  Rows may
    carry extra columns, which are eliminated along.
    """
    a = copy_matrix(mat)
    n = len(a)
    width = len(a[0]) if a else 0
    prev = 1
    for k in range(n):
        rk = a[k]
        piv = rk[k]
        if piv == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return a, 0
            a[k], a[swap] = [-v for v in a[swap]], rk
            rk = a[k]
            piv = rk[k]
        for i in range(k + 1, n):
            ri = a[i]
            f = ri[k]
            for j in range(k + 1, width):
                ri[j] = (ri[j] * piv - f * rk[j]) // prev
        prev = piv
    return a, prev


def leading_minors(mat: Sequence[Sequence[int]]) -> list[int]:
    """Leading principal minors det(mat[:k,:k]) for k = 1..n, one
    determinant per leading block."""
    return [determinant([row[:k] for row in mat[:k]]) for k in range(1, len(mat) + 1)]


def determinant(mat: Sequence[Sequence[int]]) -> int:
    """Exact determinant: the last pivot of bareiss."""
    return bareiss(mat)[1]


# trial division runs up to this k before the rest of n is factored; then
# Miller-Rabin to the first 13 prime bases, whose "prime" is proven below
# _MR_BOUND (Sorenson and Webster 2017), a perfect-power split and Brent's rho
_TRIAL = 1024
_MR_BOUND = 3317044064679887385961981
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _trial_divide(r: int, k: int, last: int, primes: list[int]) -> tuple[int, int]:
    """Divides r by k, then by each odd number past it (3 after 2), while
    that is at most last and its square at most r, and appends each prime
    divided out to primes, as often as it divides r.  Returns what is left
    of r and the first k not tried: r has no prime below it."""
    while k <= last and k * k <= r:
        while r % k == 0:
            primes.append(k)
            r //= k
        k = 3 if k == 2 else k + 2
    return r, k


def _is_prime(n: int) -> bool:
    """Miller-Rabin to _MR_BASES for odd n > 41: False is proven at every
    size, by a witness base, and True only below _MR_BOUND."""
    s = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> s
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _power_root(m: int, k: int) -> int:
    """r with m = r^j for some j >= 2, else 0, for m with no prime below
    k >= 2, so that j <= log_k m; each j-th root is Newton's integer
    iteration down from a power of two above it, which ends at its floor."""
    j = 2
    while k ** j <= m:
        x = 1 << -(-m.bit_length() // j)
        while (y := ((j - 1) * x + m // x ** (j - 1)) // j) < x:
            x = y
        if x ** j == m:
            return x
        j += 1
    return 0


def _rho(n: int, budget: int) -> int:
    """A factor 1 < f < n of the odd composite n that is no perfect power, by
    Pollard's rho with Brent's cycle search, one gcd per 128 steps (Pollard
    1975; Brent 1980), or 0 once budget steps x -> x^2 + c mod n found none."""
    c = 1
    while budget > 0:
        y, r, q, g = 2, 1, 1, 1
        while g == 1 and budget > 0:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = gcd(q, n)
                k += 128
            budget -= r + k
            r *= 2
        if g == n:
            # the last block overshot: replay it one gcd per step
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
        if 1 < g < n:
            return g
        c += 1
    return 0


def divisors(n: int, limit: int) -> list[int]:
    """Positive divisors of n > 0 that are at most limit, ascending, built
    from the primes of n up to limit.

    Trial division runs while k <= limit and k^2 <= r, r the part of n not
    yet divided out, up to k = _TRIAL.  When it stops at k > limit, every
    prime of r exceeds limit and no divisor up to limit holds it; at
    k^2 > r, r is 1 or prime.  Otherwise each part m of r, all of whose
    primes are at least k, goes through one rule.  It is 1 or prime when
    m < k^2, or when Miller-Rabin says so and m < _MR_BOUND.  A "composite"
    of Miller-Rabin is proven at any size: then m is split as r * (m / r)
    when it is a perfect power r^j, else by Brent's rho within
    8 isqrt(min(limit, isqrt(m))) steps, as rho finds a prime p in about
    sqrt(p).  A part that rho leaves unsplit, or one from _MR_BOUND on that
    Miller-Rabin calls prime, is trial-divided up to min(limit, isqrt(m)).
    So the primes up to limit are found exactly, and no listing
    trial-divides past min(limit, isqrt(n)).
    """
    if n < 1:
        raise ValueError(f"divisors of {n} undefined, need a positive integer")
    primes: list[int] = []
    r, k = _trial_divide(n, 2, min(limit, _TRIAL), primes)
    parts = [r] if k <= limit else []
    while parts:
        m = parts.pop()
        composite = m >= k * k and not _is_prime(m)
        f = (_power_root(m, k) or _rho(m, 8 * isqrt(min(limit, isqrt(m))))) if composite else 0
        if f:
            parts += [f, m // f]
            continue
        if composite or m >= _MR_BOUND:
            m, _ = _trial_divide(m, k, limit, primes)
        if 1 < m <= limit:
            primes.append(m)
    out = [1] if limit >= 1 else []
    for p in set(primes):
        powers = [p ** i for i in range(1, primes.count(p) + 1)]
        out += [dv * q for dv in out for q in powers if dv * q <= limit]
    out.sort()
    return out


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


def smith_normal_form(mat: Sequence[Sequence[int]]) -> tuple[Matrix, Matrix]:
    """(d, v) with u*mat*v = d diagonal for some unimodular u, v unimodular.

    Diagonal entries are nonnegative and each divides the next.  Only the
    column operations are recorded, in v; the row operations act on mat
    alone, so u is never built.  Every pass re-selects the globally smallest
    pivot and reduces with balanced quotients, which keeps intermediate
    entries from compounding.
    """
    a = copy_matrix(mat)
    m = len(a)
    n = len(a[0]) if a else 0
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
        if j0 != t:
            for row in a:
                row[t], row[j0] = row[j0], row[t]
            for row in v:
                row[t], row[j0] = row[j0], row[t]
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
        p = a[t][t]
        # one balanced reduction pass; any leftover means a smaller entry
        # appeared somewhere, so re-pick the pivot
        leftover = False
        for i in range(t + 1, m):
            if a[i][t] != 0:
                q = _nearest_quotient(a[i][t], p)
                if q:
                    a[i] = [a[i][j] - q * a[t][j] for j in range(n)]
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
            continue
        t += 1
    return a, v


def invariant_factors(mat: Sequence[Sequence[int]]) -> list[int]:
    """Nonzero diagonal of the Smith form d of smith_normal_form."""
    d, _ = smith_normal_form(mat)
    out = []
    for t in range(min(len(d), len(d[0]) if d else 0)):
        if d[t][t] != 0:
            out.append(d[t][t])
    return out


def kernel_rows(mat: Sequence[Sequence[int]]) -> Matrix:
    """Basis rows of {x : mat @ x = 0} over the integers (saturated).

    With u*mat*v = d, mat x = 0 exactly when d v^-1 x = 0, since u is
    invertible, so the kernel is read off v alone."""
    m = len(mat)
    n = len(mat[0]) if mat else 0
    d, v = smith_normal_form(mat)
    # the nonzero diagonal entries come first; columns r..n-1 of v span the kernel
    r = sum(1 for t in range(min(m, n)) if d[t][t] != 0)
    return [[v[i][j] for i in range(n)] for j in range(r, n)]


def solve_linear_system(mat: Sequence[Sequence[int]], rhs: Sequence[int | Fraction]) -> list[Fraction]:
    """Unique exact solution of mat @ x = rhs for invertible mat.

    One Bareiss pass on [mat | q rhs], q the lcm of the denominators of rhs,
    leaves the rows sum_{j >= i} a[i][j] x'_j = a[i][n] for x' = q x.  With
    D = det mat, y = D x' = adj(mat) q rhs is integral, so the back
    substitution y_i = (D a[i][n] - sum_{j > i} a[i][j] y_j) / a[i][i] divides
    exactly, and x = y / (D q).
    """
    n = len(mat)
    q = lcm(*(v.denominator for v in rhs))
    a, det = bareiss([list(row) + [v.numerator * (q // v.denominator)] for row, v in zip(mat, rhs)])
    if det == 0:
        raise ValueError("matrix is singular")
    y = [0] * n
    for i in range(n - 1, -1, -1):
        row = a[i]
        y[i] = (det * row[n] - sum(map(mul, row[i + 1:n], y[i + 1:]))) // row[i]
    return [Fraction(v, det * q) for v in y]


def gram_schmidt(gram: Sequence[Sequence[int]]) -> tuple[list[int], Matrix]:
    """The integral Gram-Schmidt state of a symmetric Gram, from its lower
    triangle: minors[k] = D_k, the k-th leading minor (D_0 = 1), and
    lam[i][j] = mu[i][j] * D_{j+1} for j < i.  It stops right after the first
    minor that is not positive, before which every division is exact."""
    dd, lam = [1], [[0] * len(gram) for _ in gram]
    for i, row in enumerate(gram):
        for j in range(i + 1):
            s = row[j]
            for k in range(j):
                s = (dd[k + 1] * s - lam[i][k] * lam[j][k]) // dd[k]
            if j < i:
                lam[i][j] = s
        dd.append(s)
        if s <= 0:
            break
    return dd, lam


def gram_from_state(minors: Sequence[int], lam: Sequence[Sequence[int]]) -> Matrix:
    """The Gram whose gram_schmidt state (minors, lam) is, so u G u^T from
    the state lll_reduce returns, with no matrix product.

    It runs the gram_schmidt recurrence backwards: entry (i, j), j <= i,
    starts from lam[i][j], or D_{j+1} on the diagonal, and for k = j - 1,
    ..., 0 becomes (D_k s + lam[i][k] lam[j][k]) / D_{k+1}, the value it
    held before gram_schmidt's step k.  Every division is exact, as each
    undoes a product.  Needs a full state: d + 1 positive minors."""
    n = len(lam)
    gram = [[0] * n for _ in range(n)]
    for i in range(n):
        li = lam[i]
        for j in range(i + 1):
            lj = lam[j]
            s = li[j] if j < i else minors[j + 1]
            for k in range(j - 1, -1, -1):
                s = (minors[k] * s + li[k] * lj[k]) // minors[k + 1]
            gram[i][j] = gram[j][i] = s
    return gram


def lll_reduce(minors: Sequence[int], lam: Sequence[Sequence[int]]) -> tuple[Matrix, list[int], Matrix]:
    """Unimodular rows u with u * gram * u^T LLL-reduced (delta = 3/4), in
    all-integer arithmetic (Cohen, Alg. 2.6.7) from a copy of the Gram's
    gram_schmidt state, with the same lambda/d state of the reduced basis.

    The enumerators need this: their level-by-level ranges stay tight only on
    a reduced basis, and mod-kernel bases straight out of the Smith form can
    be arbitrarily skewed.  Every division below is exact and no rational
    Gram-Schmidt data is ever rebuilt."""
    n = len(lam)
    if len(minors) <= n or min(minors) <= 0:
        raise ValueError("gram matrix is not positive definite")
    u, dd, lam = identity(n), list(minors), [list(row) for row in lam]

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
        if 4 * (dd[k + 1] * dd[k - 1] + lb * lb) < 3 * dd[k] * dd[k]:
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
    return u, dd, lam


def lll_rows(gram: Sequence[Sequence[int]]) -> Matrix:
    """The rows u of lll_reduce alone."""
    return lll_reduce(*gram_schmidt(gram))[0]
