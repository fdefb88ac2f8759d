"""Screening momenta of an integral lattice.

A nonzero vector x is a screening vector ("screener") when its norm is even,
x is not twice a lattice vector, and 2x/<x,x> pairs integrally with the whole
lattice, that is, lies in the dual lattice L*.  A screener of norm 2t lies in
the mod-t kernel sublattice M_t = {x : G x = 0 mod t}, and t is bounded
three times: it divides the exponent d_n of L*/L; x/t is a nonzero dual
vector of norm 2/t, and every nonzero dual vector has norm at least
1/max_i |b_i*|^2 for the Gram-Schmidt vectors b_i* of any basis of L
(Lagarias, Lenstra and Schnorr 1990), so t is at most 2 max_i |b_i*|^2;
and x is a nonzero vector of M_t, inside L, so 2t is at least
lambda_1(L), the least norm of a nonzero vector of L (a norm, not a
length).  One LLL reduction of L gives both bounds: its minors give
|b_i*|^2 = D_{i+1}/D_i, and one walk of its state gives lambda_1(L).  No
dual lattice is built.  The candidates t are the divisors up to 2 max_i
|b_i*|^2 of e = det G / d_1^(d-1), which d_n divides, listed from the
primes of e, so no Smith form is needed to find them.  Only from
`intlinalg.MR_BOUND` on, where the primes of e would be found by trial
division up to isqrt(e), are they the divisors of d_n, read off the Smith
form.  M_t = L exactly when t | d_1, because d_1 is the gcd of G's entries:
every G x is 0 mod t exactly when every entry of G is.  Such a shell is
read off the walk of L that gives lambda_1(L), and so is each near shell: a
t not dividing d_1 whose walk of L up to 2t is proven short.  Level i of
the Fincke-Pohst walk up to B admits at most isqrt(4 B D_i // D_{i+1}) + 1
values of its coordinate, so the product of these counts over the d levels
bounds the vectors the walk emits, and t is near when that product at
B = 2t is at most _NEAR_WALK.  Its screeners are the walked x of norm 2t
with G x = 0 mod t and some odd coordinate.  That walk goes up to
B = max(b - 1, 2t for every candidate t | d_1 and every near t), b the
least norm of the reduced rows, so L is reduced once and walked once.

Otherwise G is put in Smith form only when some other t with 2t >=
lambda_1(L) is left.  The search walks the norm-2t shell of M_t only for
those t that divide d_n, and skips a t before building M_t when the
discriminant form of L*/L (Nikulin 1979; Conway and Sloane, SPLAG ch. 15)
has no element of order t and norm 2/t, as the image of x/t must be.  That
test reads the p-adic valuations of the Smith invariants prime by prime; it
needs no Jordan decomposition and is necessary, not sufficient.  Each M_t
starts from its Hermite basis, built modulo t in one pass over the
Smith-form generators, with entries in [0, t].  LLL of each shell then
starts from a basis whose size is set by t, not by the entries of the Smith
matrix.  The Gram-Schmidt lemma above certifies any other shell empty
before its LLL: when every Gram-Schmidt norm D_{k+1}/D_k of the Hermite
basis, read off the minors its `Lattice` keeps, exceeds 2t, no nonzero
vector of M_t has norm 2t, and the shell is neither reduced nor walked.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt
from typing import Sequence

from . import intlinalg
from .core import DualVec, Lattice, LatticeError, Vec, canonical, in_dual, in_dual_from, in_scaled_lattice, integer
from .enumeration import enumerate_up_to_norm, short_vectors


def is_screener(lat: Lattice, x: Sequence[int]) -> bool:
    """Screening condition: even norm, x not in 2L, and 2x/<x,x> in the dual;
    for an even norm, <x,x> divides 2 G x exactly when <x,x>/2 divides G x."""
    x = lat.vector(x, "vector")
    nrm = lat.norm(x)
    return nrm > 0 and nrm % 2 == 0 and not in_scaled_lattice(x, 2) and in_dual(lat, x, nrm // 2)


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


def _mod_kernel_basis(v: Sequence[Sequence[int]], invariants: Sequence[int], t: int) -> list[list[int]]:
    """Basis rows of M_t = {x : G x = 0 mod t} in row Hermite form.

    With U G V = D the Smith form, M_t is spanned by the columns s_i V_i,
    s_i = t / gcd(d_i, t), together with t e_1, ..., t e_d.  invariants are
    the d_i; V need not be reduced, since s_i V_i is reduced mod t here.
    The rows h start as t I, and each generator g = s_i V_i mod t with
    s_i < t (else g = 0) goes in column by column: at a column c where g is
    nonzero, xgcd(h_cc, g_c) turns row c and g into a row of pivot
    gcd(h_cc, g_c) and a g that is 0 at c, and both are reduced mod t.
    This is the modular order of Domich, Kannan and Trotter (1987).  It
    keeps h upper triangular, with every t e_c in the span of rows c, ...,
    d - 1: a pivot only ever divides the one before it, and a step at c
    touches no later row.  So adding t e_j, j > c, to row c or to g is a
    unimodular step, the rows keep spanning M_t, and reducing above the
    pivots gives the unique Hermite form, the one hnf_rows gives.
    all_screeners builds it only for t not dividing d_1 and not near: for
    t | d_1 it is the identity, since M_t = L, and a near shell is read off
    the walk of L.
    """
    d = len(invariants)
    h = [[t if i == j else 0 for j in range(d)] for i in range(d)]
    for i, di in enumerate(invariants):
        s = t // gcd(di, t)
        if s == t:
            continue
        g = [s * row[i] % t for row in v]
        for c in range(d):
            x = g[c]
            if x == 0:
                continue
            hc = h[c]
            p = hc[c]
            e, a, b = intlinalg.xgcd(p, x)
            u, w = p // e, x // e
            h[c] = [(a * y + b * z) % t for y, z in zip(hc, g)]
            g = [(u * z - w * y) % t for y, z in zip(hc, g)]
    for j in range(1, d):
        hj = h[j]
        p = hj[j]
        for i in range(j):
            q = h[i][j] // p
            if q:
                h[i] = [y - q * z for y, z in zip(h[i], hj)]
    return h


def _discriminant_admits(t: int, primes: Sequence[int], invariants: Sequence[int], a: int, even: bool) -> bool:
    """False when L*/L = (+) Z/d_i holds no y of order t with q(y) = 2/t.

    Tested prime by prime over the primes p of t, which primes holds among
    others, with p^k the exact power of p in t: for odd p some d_i has
    v_p(d_i) = k, and when p divides d_n alone, 2 a (d_n/p^k)(t/p^k) is a
    square mod p (Euler's criterion), with a = <V_n, V_n> / d_n; for p = 2,
    when the lattice is even or k >= 2, some d_i has 1 <= v_2(d_i) and
    k - 1 <= v_2(d_i) <= k + 1.  The proof is in `all_screeners`.
    """
    dn = invariants[-1]
    for p in primes:
        if t % p:
            continue
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


# the most vectors the walk of L up to a near shell's norm is proven to
# emit before that shell goes through M_t instead, so that walk calls a
# level at most d _NEAR_WALK times (all_screeners); no output depends on
# it.  64, 128 and 256 timed within 2 % of each other on the three
# benchmark workloads at seed 1
_NEAR_WALK = 128


def _walk_is_small(minors: Sequence[int], bound: int) -> bool:
    """Whether short_vectors up to bound on an LLL state with minors D_k
    is proven to emit at most _NEAR_WALK vectors: level i admits at most
    isqrt(4 bound D_i // D_{i+1}) + 1 values, and the product of these
    counts bounds the leaves (all_screeners)."""
    leaves = 1
    for i in range(len(minors) - 1):
        leaves *= isqrt(4 * bound * minors[i] // minors[i + 1]) + 1
        if leaves > _NEAR_WALK:
            return False
    return True


def all_screeners(lat: Lattice) -> ScreenerSet:
    """Every screener of the lattice.

    A screener x of norm 2t lies in M_t, so the search enumerates the
    norm-2t shell of M_t for each t that can hold one.  On that shell the
    norm is even and 2 G x / <x,x> = G x / t is integral by the definition
    of M_t, so of the screener conditions only x not in 2L is left: a shell
    vector is a screener exactly when some coordinate is odd.  With
    d_1 | ... | d_n the Smith invariants of G, these cuts are sound, since
    every t of a screener passes them:

    - t | d_n.  If q^k divides t exactly but not d_n, q divides every Smith
      coordinate of x, so x = q x' with x' in L: q = 2 contradicts x not in
      2L, and for odd q, G x' = 0 mod t/q forces t/q | <x',x'> = 2t/q^2,
      so q | 2.
    - t <= 2 max_i |b_i*|^2, with b_i* the Gram-Schmidt vectors of the
      LLL basis b of L, so |b_i*|^2 = D_{i+1} / D_i from its minors.
      y = x/t is a nonzero vector of L* of norm 2/t.  For any basis c of
      a lattice, a nonzero vector with last nonzero coordinate k in c has
      the component a_k c_k* along c_k*, a_k a nonzero integer, so its norm
      is at least min_i |c_i*|^2.  The dual basis of b in reverse order has
      the Gram-Schmidt vectors b_i* / |b_i*|^2, of norm 1 / |b_i*|^2, so
      2/t >= 1 / max_i |b_i*|^2 (Lagarias, Lenstra and Schnorr,
      Combinatorica 10, 1990).  t is an integer, so
      t <= max_i floor(2 D_{i+1} / D_i).
    - 2t >= lmin = lambda_1(L), the least norm of a nonzero vector of L:
      x in M_t, inside L, is nonzero, so <x,x> = 2t >= lmin.
    - L*/L = (+) Z/d_i admits t (`_discriminant_admits`; Nikulin 1979,
      Conway and Sloane, SPLAG ch. 15).  x is primitive (see
      virasoro_shift), so y = x/t has order exactly t in L*/L, and
      q(y) = <y,y> = 2/t modulo 1, or modulo 2 when L is even.  Let p^k
      divide t exactly and y_p be the p-part of y; q(y) - q(y_p) lies in
      Z_(p), and in 2 Z_(2) for even L.  For odd p, if no v_p(d_i) = k,
      write y_p = u + w over the factors of exponent < k and > k: then
      p^(k-1) u = 0 and w = p w' with p^(k+1) w' = 0, so p^(k-1) times
      each of <u,u>, 2<u,w> and <w,w> = p^2 <w',w'> is an integer, while
      2/t has p-adic valuation -k.  For p = 2 the same split over exponents
      <= k-2 and >= k+2 (w = 4 w') puts q(y_2) in 2^(2-k) Z_(2) against
      2/t of valuation 1-k, a contradiction for even L or k >= 2.  When p
      divides d_n alone, y_p = c V_n / p^k with p not dividing c and
      q(V_n / p^k) = a d_n / p^(2k), a = <V_n, V_n> / d_n, so
      c^2 a (d_n/p^k)(t/p^k) = 2 mod p, and 2 a (d_n/p^k)(t/p^k) is a
      square mod p.

    None of them needs the Smith form before the walk of L.  d_1 is the
    gcd of G's entries and divides every d_i, and det G = d_1 ... d_n, so
    e = det G / d_1^(d-1) = d_n prod_{i<n} (d_i / d_1) is a multiple of
    d_n, and e = d_n when d <= 2.  The candidates t are the divisors of e
    up to the cap, listed from the primes of e (`intlinalg.divisors`).
    Below `intlinalg.MR_BOUND`, Miller-Rabin proves the primes of e past
    1024 and rho splits the rest; trial division goes past 1024 only on a
    part that rho has not split within as many steps.  From MR_BOUND on,
    divisors trial-divides e up to min(cap, isqrt(e)), and isqrt(e) can
    far exceed isqrt(d_n): diag(1, P, P, P) has e = P^3 and d_n = P.  So
    there G is put in Smith form first, and the candidates are the
    divisors of d_n up to the cap.
    M_t = L exactly when t | d_1.  One walk of the LLL state of L serves
    lambda_1(L), every candidate t | d_1 and every near t: a candidate not
    dividing d_1 whose walk of L up to 2t `_walk_is_small` proves to emit
    at most _NEAR_WALK vectors.  Neither is cut by d_n or by the
    discriminant form first, and neither needs to be:

    - the walk goes up to B = max(b - 1, 2t for every candidate t | d_1 and
      every near t), and b >= lambda_1(L).  If it finds a vector, the
      least norm it finds is lambda_1(L), since B >= b - 1 covers every
      norm below b; if it finds none, lambda_1(L) is b.
    - the count.  Level i of short_vectors up to B admits the z_i with
      (D_{i+1} z_i + b_i)^2 <= rho_i = D_i D_{i+1} (B - P_{i+1}) (module
      docstring of `enumeration`), and P_{i+1} >= 0, so D_{i+1} z_i lies in
      an interval of length 2 sqrt(B D_i D_{i+1}) and z_i in one of length
      2 sqrt(B D_i / D_{i+1}).  Whatever the outer coordinates are, that
      interval holds at most c_i = isqrt(4 B D_i // D_{i+1}) + 1 integers,
      as the integer part of the square root of a real y >= 0 is
      isqrt(floor(y)).  A call of level i is fixed by z_{i+1}, ...,
      z_{d-1}, so level i runs at most c_{i+1} ... c_{d-1} times, the walk
      emits at most c_0 ... c_{d-1} vectors and makes at most d times that
      many level calls.  So when B is 2t for a near t, the walk emits at
      most _NEAR_WALK vectors whatever the skew of the reduced basis;
      otherwise B <= 2b, as d_1 divides every norm x^T G x, so
      2t <= 2 d_1 <= 2 lambda_1(L) <= 2b for t | d_1.
    - a shell with t | d_1 is the vectors of norm exactly 2t of that walk,
      already in L's coordinates with canonical sign; it needs no Hermite
      form, no shell `Lattice`, no second LLL and no remap.  Each such
      vector is a screener: its norm is even, G x = 0 mod t because t
      divides every entry of G, and it is not in 2L, as t <= d_1 <=
      lambda_1(L) while a nonzero x = 2y has norm 4<y,y> >= 4 lambda_1(L)
      > 2t.  So a t that a sound cut above rejects has no vector of norm
      2t in L at all, and its shell, walked uncut, adds nothing.
    - a near shell is the walked x of norm 2t with G x = 0 mod t and some
      odd coordinate.  The walk holds every vector of L of norm 2t, as
      2t <= B, and for such an x, G x = 0 mod t says 2x/<x,x> = x/t is in
      L* and an odd coordinate says x is not in 2L: the filter keeps
      exactly the screeners of norm 2t, whatever t is, and none for a t
      that a sound cut rejects.  The x not in 2L test can fail here:
      [[2, 0], [0, 8]] has the near t = 4 (c_0 c_1 = 5 * 3), and its walk
      holds (2, 0) of norm 8 with G x = 0 mod 4.

    Only when some other candidate with 2t >= lambda_1(L) is left is G put
    in Smith form, if it is not already; of those t, the ones that divide
    d_n and that `_discriminant_admits` admits go through M_t.  M_t is spanned by the
    columns s_i V_i of the Smith matrix V, with s_i = t / gcd(d_i, t),
    and t Z^d, and the walk starts from its Hermite basis, built modulo t
    by `_mod_kernel_basis`, whose entries lie in [0, t] whatever the size
    of V.  Reducing a generator mod t stays inside M_t, because t Z^d lies
    in M_t.  The x not in 2L test stays on these shells, where it can fail.

    Every other shell is built on its Hermite basis c, and only those are
    reduced and walked that c does not certify empty:

    - some k has D_{k+1} <= 2t D_k, with D the leading minors of the Gram
      of c, kept by its `Lattice`.  Let z = sum_i a_i c_i be nonzero with
      a_k its last nonzero coefficient.  Its component along c_k* is
      a_k c_k*, so <z,z> >= a_k^2 |c_k*|^2 >= D_{k+1} / D_k.  If every
      D_{k+1} / D_k exceeds 2t, no nonzero vector of M_t has norm 2t, and
      the walk would return nothing.
    """
    d, det = lat.rank, lat.determinant
    # d_1, the gcd of G's entries, divides every d_i, so d_n divides
    # e = det / d_1^(d-1); from MR_BOUND on, list the divisors of d_n
    d1 = gcd(*(x for row in lat.gram for x in row))
    e = det // d1 ** (d - 1)
    snf = intlinalg.smith_normal_form(lat.gram) if e >= intlinalg.MR_BOUND else None
    w, minors, lam = lat.lll_reduce()
    # t <= 2 max_i |b_i*|^2 with |b_i*|^2 = D_{i+1} / D_i on the reduced basis
    cap = max(2 * minors[i + 1] // minors[i] for i in range(d))
    divs = intlinalg.divisors(snf[0][-1][-1] if snf else e, cap)
    # one walk of L, past the least reduced row norm b less one, every norm
    # 2t with t | d_1, where M_t = L, and every near norm 2t whose walk the
    # level counts prove small, gives lambda_1(L) and those shells; any
    # other t is tested only when 2t >= lambda_1(L)
    b = min(map(lat.norm, w))
    whole = {2 * t for t in divs if d1 % t == 0}
    near = {2 * t for t in divs if d1 % t and _walk_is_small(minors, 2 * t)}
    walk = short_vectors(w, minors, lam, max([b - 1, *whole, *near]))
    lmin = min((nrm for _, nrm in walk), default=b)
    # a walked x of norm 2t with t | d_1 is a screener (docstring); one of a
    # near norm 2t is when G x = 0 mod t and x is not in 2L
    pairs = [(nrm, x) for x, nrm in walk
             if nrm in whole or (nrm in near and not in_scaled_lattice(x, 2)
                                 and in_dual_from(lat.gram_times(x), nrm // 2))]
    rest = [t for t in divs if 2 * t >= lmin and 2 * t not in whole and 2 * t not in near]
    if rest:
        diag, v = snf or intlinalg.smith_normal_form(lat.gram)
        invariants = [diag[i][i] for i in range(d)]
        dn = invariants[-1]
        # q(V_n / d_n) = a / d_n; G V_n = d_n (U^-1)_n, so d_n divides <V_n, V_n>
        a = lat.norm([row[-1] for row in v]) // dn
        even = lat.is_even
        primes: list[int] = []
        for t in divs:
            # the list is ascending and holds every prime of t, so t is prime
            # when no earlier prime divides it
            if t > 1 and dn % t == 0 and all(t % p for p in primes):
                primes.append(t)
        for t in rest:
            if dn % t or not _discriminant_admits(t, primes, invariants, a, even):
                continue
            basis = _mod_kernel_basis(v, invariants, t)
            sub = Lattice(lat.row_gram(basis))
            # every |c_k*|^2 = D_{k+1} / D_k of the Hermite basis exceeds 2t: no
            # nonzero vector of M_t has norm 2t, so skip its LLL and walk
            m = sub.minors
            if all(m[k + 1] > 2 * t * m[k] for k in range(d)):
                continue
            found = enumerate_up_to_norm(sub, 2 * t)
            shell = [z for z, nrm in zip(found.vectors, found.norms) if nrm == 2 * t]
            for x in map(canonical, intlinalg.matmul(shell, basis)):
                if not in_scaled_lattice(x, 2):
                    pairs.append((2 * t, x))
    pairs.sort()
    return ScreenerSet(
        lattice=lat,
        vectors=tuple(v for _, v in pairs),
        norms=tuple(n for n, _ in pairs),
    )


def dual_pairing_unit(lat: Lattice, a: Sequence[int]) -> DualVec:
    """The deterministic dual vector pairing to exactly 1 with a.

    Built as G^-1 z where z comes from folding gcd steps over the
    coordinates in index order; requires a primitive with integer entries.
    """
    a = lat.vector(a, "alpha")
    try:
        z = intlinalg.solve_gcd_one(list(a))
    except ValueError as e:
        raise LatticeError(str(e))
    sol = intlinalg.solve_linear_system([list(r) for r in lat.gram], z)
    return tuple(sol)


def conformal_weight(
    lat: Lattice, momentum: Sequence[Fraction | int], gamma: Sequence[Fraction | int], level: int
) -> Fraction:
    """Weight of a level-r vector with the given momentum: r + <v,v>/2 - <gamma,v>."""
    level = integer(level, "level")
    vv = lat.dual_inner(momentum, momentum)
    gv = lat.dual_inner(gamma, momentum)
    return level + vv / 2 - gv


def central_charge(gamma: Sequence[Fraction | int], lat: Lattice) -> Fraction:
    """c = rank - 12 <gamma, gamma>, the central charge shifted by gamma."""
    return lat.rank - 12 * lat.dual_inner(gamma, gamma)
