"""Screening momenta of an integral lattice.

A nonzero vector x is a screening vector ("screener") when its norm is even,
x is not twice a lattice vector, and 2x/<x,x> pairs integrally with the whole
lattice, that is, lies in the dual lattice L*.  A screener of norm 2t lies in
the mod-t kernel M_t = {x : G x = 0 mod t}.  `all_screeners` reduces L once
by LLL and works it in that basis: the candidates t are the divisors of
det G / d_1^(d-1) up to a Gram-Schmidt cap, and `_plan` gives each one
route.  A t with M_t = L, or whose walk of L is proven short, is read off
one walk of L; any other t is cut by the discriminant form of L*/L,
certified empty by the Hermite basis of M_t, or walked on that basis.  No
dual lattice is built.  The bounds, cuts and certificates are proven in
`all_screeners`.
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
    """Basis rows of M_t = {x : G x = 0 mod t} in row Hermite form, in the
    basis of the Gram G whose Smith matrix V is given.  all_screeners gives
    the V of the reduced Gram w G w^T of L, so the rows are in
    w-coordinates, and times w they span the M_t of L's own Gram.

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
    unimodular step, and the rows keep spanning M_t.  Every pivot lies in
    (0, t]: a new one is gcd(h_cc, g_c) with 0 < g_c < t.  So
    `intlinalg.hnf_rows` finds h already triangular with positive pivots,
    only reduces above them, and returns the unique Hermite form of M_t.
    `_plan` builds it only for a t it routes `empty` or `walk`; for t | d_1
    it would be the identity, since M_t = L.
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
    return intlinalg.hnf_rows(h)


def _discriminant_admits(t: int, primes: Sequence[int], invariants: Sequence[int], a: int, even: bool) -> bool:
    """False when L*/L = (+) Z/d_i holds no y of order t with q(y) = 2/t.

    An element of order t needs t | d_n, the exponent of L*/L.  The rest is
    tested prime by prime over the primes p of t, which primes holds among
    others, with p^k the exact power of p in t: for odd p some d_i has
    v_p(d_i) = k, and when p divides d_n alone, 2 a (d_n/p^k)(t/p^k) is a
    square mod p (Euler's criterion), with a = <V_n, V_n> / d_n; for p = 2,
    when the lattice is even or k >= 2, some d_i has 1 <= v_2(d_i) and
    k - 1 <= v_2(d_i) <= k + 1.  The proof is in `all_screeners`.
    """
    dn = invariants[-1]
    if dn % t:
        return False
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
# it.  Against 128, seed-1 passes of all_screeners took 6.5, 10.4, 15.0
# and 13.8 % less time on random-dense at 512, 1024, 2048 and 4096, and
# 0.8 % more, 0.2 % less, then 0.9 and 2.2 % more on catalog-classify
# (means of two in-process runs of 15 interleaved passes): 1024 is the
# largest that costs catalog nothing
_NEAR_WALK = 1024


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


def _plan(lat: Lattice) -> tuple[intlinalg.Matrix, list[tuple[Vec, int]], dict[int, tuple]]:
    """(w, walk, route): the LLL basis w of L, the one walk of its state and
    the route (name, ...) of every candidate t (all_screeners); a `walk`
    route also carries the Hermite basis of M_t in w-coordinates, its Gram
    and its gram_schmidt state."""
    d, det = lat.rank, lat.determinant
    w, minors, lam = lat.lll_reduce()
    # d_1, the gcd of G's entries (and of w G w^T's, w unimodular), divides
    # every d_i: d_n | det / d_1^(d-1)
    d1 = gcd(*(x for row in lat.gram for x in row))
    # t <= 2 max_i |b_i*|^2 with |b_i*|^2 = D_{i+1} / D_i on the reduced basis
    cap = max(2 * minors[i + 1] // minors[i] for i in range(d))
    divs = intlinalg.divisors(det // d1 ** (d - 1), cap)
    # one walk of L, up to every norm 2t with t | d_1, where M_t = L, and
    # every near norm 2t whose walk the level counts prove small, gives
    # those shells; t = 1 is always whole
    route = {t: ("whole",) if d1 % t == 0 else ("near",) for t in divs
             if d1 % t == 0 or _walk_is_small(minors, 2 * t)}
    walk = short_vectors(w, minors, lam, 2 * max(route))
    if len(route) < len(divs):
        # L in the reduced basis w, its Gram w G w^T read off the LLL state
        red = Lattice._from_state(intlinalg.gram_from_state(minors, lam), minors, lam)
        diag, v = intlinalg.smith_normal_form(red.gram)
        invariants = [diag[i][i] for i in range(d)]
        dn = invariants[-1]
        # q(V_n / d_n) = a / d_n in the basis w; G' V_n = d_n (U^-1)_n for
        # G' = w G w^T, so d_n divides <V_n, V_n>
        a = red.norm([row[-1] for row in v]) // dn
        primes: list[int] = []
        for t in divs:
            # the list is ascending and holds every prime of t, so t is prime
            # when no earlier prime divides it
            if t > 1 and dn % t == 0 and all(t % p for p in primes):
                primes.append(t)
        for t in [t for t in divs if t not in route]:
            if not _discriminant_admits(t, primes, invariants, a, lat.is_even):
                route[t] = ("form",)
            else:
                basis = _mod_kernel_basis(v, invariants, t)
                g = red.row_gram(basis)
                # empty when every |c_k*|^2 = D_{k+1} / D_k of the Hermite basis exceeds 2t
                state = intlinalg.gram_schmidt(g)
                m = state[0]
                route[t] = ("empty",) if all(m[k + 1] > 2 * t * m[k] for k in range(d)) else ("walk", basis, g, state)
    return w, walk, route


def all_screeners(lat: Lattice) -> ScreenerSet:
    """Every screener of the lattice.

    A screener x of norm 2t lies in M_t.  `_plan` gives each candidate t
    below one of five routes: `whole` (t | d_1) or `near`, read off the
    one walk of L; `form`, cut by the discriminant form; `empty`, certified
    by the Hermite basis of M_t; or `walk`, the norm-2t shell of M_t
    walked.  On that shell the norm is even and 2 G x / <x,x> = G x / t is
    integral by the definition of M_t, so of the screener conditions only x
    not in 2L is left: a shell vector is a screener exactly when some
    coordinate is odd.  With d_1 | ... | d_n the Smith invariants of G,
    these cuts are sound, since every t of a screener passes them:

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
    - L*/L = (+) Z/d_i admits t (`_discriminant_admits`; Nikulin 1979,
      Conway and Sloane, SPLAG ch. 15).  x is primitive (see
      virasoro_shift), so y = x/t has order exactly t in L*/L, t divides
      its exponent d_n, and
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
      square mod p.  V may come from the Smith form of any Gram of L, here
      the reduced Gram w G w^T, with V_n in w-coordinates: q does not
      depend on the basis, and two generators of the cyclic p-part differ
      by a unit c, so the a of either is c^2 times the other's mod p, in
      the same square class.

    The candidates need no Smith form before the walk of L.  d_1 is the
    gcd of G's entries and divides every d_i, and det G = d_1 ... d_n, so
    e = det G / d_1^(d-1) = d_n prod_{i<n} (d_i / d_1) is a multiple of
    d_n, and e = d_n when d <= 2.  The candidates t are the divisors of e
    up to the cap, listed from the primes of e (`intlinalg.divisors`).
    M_t = L exactly when t | d_1.  One walk of the LLL state of L serves
    every candidate t | d_1 and every near t: a candidate not dividing d_1
    whose walk of L up to 2t `_walk_is_small` proves to emit at most
    _NEAR_WALK vectors.  Neither is cut by the discriminant form first,
    and neither needs to be:

    - the walk goes up to B = 2t for the largest t routed `whole` or
      `near`, the largest norm it serves (t = 1 divides d_1, so there is
      one).
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
      otherwise t | d_1 and B = 2t <= 2 d_1 <= 2 lambda_1(L), with
      lambda_1(L) the least norm of a nonzero vector of L, as d_1 divides
      every norm x^T G x.
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

    Only when some t is left after the walk is the reduced Gram
    G' = w G w^T built and put in Smith form.  G' is read back off the LLL
    state by `intlinalg.gram_from_state`, with no matrix product; w is
    unimodular, so G' has the Smith invariants of G, and
    M_t = {y : G' y = 0 mod t} w.
    That kernel is spanned by the columns s_i V_i of the Smith matrix V of
    G', with s_i = t / gcd(d_i, t), and t Z^d, and the walk starts from its
    Hermite basis, in w-coordinates, built modulo t by `_mod_kernel_basis`,
    whose entries lie in [0, t] whatever the size of V.  Reducing a
    generator mod t stays inside M_t, because t Z^d lies in M_t.  A shell
    vector z maps to L's coordinates as z c w, with c that Hermite basis.
    The x not in 2L test stays on these shells, where it can fail.

    Every other shell starts from the Gram c G' c^T of its Hermite basis c
    and its `intlinalg.gram_schmidt` state, and only those that c does not certify
    empty get a `Lattice`, which keeps that state, an LLL and a walk:

    - some k has D_{k+1} <= 2t D_k, with D the leading minors of the Gram
      of c.  Let z = sum_i a_i c_i be nonzero with a_k its last nonzero
      coefficient.  Its component along c_k* is a_k c_k*, so <z,z> >=
      a_k^2 |c_k*|^2 >= D_{k+1} / D_k.  If every D_{k+1} / D_k exceeds 2t,
      no nonzero vector of M_t has norm 2t, and the walk would return
      nothing.
    """
    w, walk, route = _plan(lat)
    # a walked x of norm 2t routed whole is a screener (above); one routed
    # near is when G x = 0 mod t and x is not in 2L
    served = {2 * t: r[0] for t, r in route.items()}
    pairs = [(nrm, x) for x, nrm in walk
             if (kind := served.get(nrm)) == "whole" or (kind == "near" and not in_scaled_lattice(x, 2)
                                                       and in_dual_from(lat.gram_times(x), nrm // 2))]
    for t, r in route.items():
        if r[0] == "walk":
            _, basis, g, state = r
            found = enumerate_up_to_norm(Lattice._from_state(g, *state), 2 * t)
            shell = [z for z, nrm in zip(found.vectors, found.norms) if nrm == 2 * t]
            for x in map(canonical, intlinalg.matmul(intlinalg.matmul(shell, basis), w)):
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
