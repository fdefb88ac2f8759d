"""Screening momenta of an integral lattice.

A nonzero vector x is a screening vector ("screener") when its norm is even,
x is not twice a lattice vector, and 2x/<x,x> pairs integrally with the whole
lattice, that is, lies in the dual lattice L*.  A screener of norm 2t lies in
the mod-t kernel M_t = {x : G x = 0 mod t}.  `all_screeners` reduces L once
by LLL and works it in that basis: the candidates t are the divisors of
det G / d_1^(d-1) up to a Gram-Schmidt cap, and `_plan` gives each one
route.  A t with M_t = L, or whose walk of L is proven short, and every
t below one of those, is read off one walk of L; any other t is cut by
the discriminant form of L*/L, certified empty by the Hermite basis of
M_t, or walked on that basis, both built from data local at the primes of
the t left.  No dual lattice and no Smith form over Z is built.  The
bounds, cuts and certificates are proven in `all_screeners`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, lcm
from operator import mul
from typing import Sequence

from . import intlinalg
from .core import DualVec, Lattice, LatticeError, Vec, canonical, in_dual_from, in_scaled_lattice, integer
from .enumeration import enumerate_up_to_norm, short_vectors


def is_screener(lat: Lattice, x: Sequence[int]) -> bool:
    """Screening condition: even norm, x not in 2L, and 2x/<x,x> in the dual;
    for an even norm, <x,x> divides 2 G x exactly when <x,x>/2 divides G x."""
    x = lat.vector(x, "vector")
    gx = lat.gram_times(x)
    nrm = sum(map(mul, gx, x))
    return nrm > 0 and nrm % 2 == 0 and not in_scaled_lattice(x, 2) and in_dual_from(gx, nrm // 2)


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


@dataclass(frozen=True)
class _Local:
    """A Gram G' = d_1 G of rank d at a set of primes p, each to an
    exponent K_p (`_local_data`).  primes maps p to (vals, b, gens): vals
    are the v_p(d_i) of the Smith invariants of G', ascending, each capped
    at v_p(d_1) + K_p + 2; b is <z,z> / p^k mod p when p is odd and
    divides d_n alone, to a power p^k below that cap, z a vector with z/p^k
    a generator of the p-part of L*/L, and None otherwise; gens holds one
    (e, z) for each invariant of G of p-adic valuation e >= 1 (capped at
    K_p + 2), z its column of a Smith matrix V of G mod p^(K_p + 2)."""

    d1: int
    rank: int
    primes: dict[int, tuple[list[int], int | None, list[tuple[int, list[int]]]]]


def _local_data(gram: Sequence[Sequence[int]], d1: int, exps: dict[int, int]) -> _Local:
    """The local data of gram = d_1 G at each prime p of exps to K_p = exps[p].

    Each column of G is stacked on the same column of V = I, so that a
    column step acts on G V and V at once; `_pivot` is the one column
    step of both passes below.  No row step is needed, since a
    pivot column that is a unit at its pivot row is one row step from a
    unit vector.  One forward elimination mod M = prod p^(K_p + 2) pivots on
    entries prime to M, each an invariant 1 of G at every p, and leaves a
    trailing block B of the rows and columns it did not pivot, with
    U G V = I (+) B.  For each p, B alone is eliminated mod p^(K_p + 2) on
    an entry of least p-adic valuation e, whose p^e then divides the whole
    block: so the pivots come out in ascending valuation, they are the v_p
    of G's invariants, and each pivot column of V is final once taken.  A
    block that is 0 mod p^(K_p + 2) counts as valuation K_p + 2.  The v_p of
    G''s invariants are v_p(d_1) plus those of G.
    """
    d = len(gram)
    m = 1
    for p, k in exps.items():
        m *= p ** (k + 2)
    # gram is symmetric: its column j is its row j.  Each column holds its
    # entries at the rows not yet pivoted, then V's d entries
    cols = [[x // d1 % m for x in row] + [int(i == j) for i in range(d)] for j, row in enumerate(gram)]
    live = list(range(d))
    while piv := next(((i, j) for j in live for i in range(len(cols[j]) - d) if gcd(cols[j][i], m) == 1), None):
        _pivot(cols, live, *piv, 1, m)
    primes = {}
    for p, k in exps.items():
        n = k + 2
        q = p ** n
        cs = {j: [x % q for x in cols[j]] for j in live}
        ls = list(live)
        out: list[tuple[int, list[int]]] = []
        while ls:
            e, i0, j0 = min((_valuation(cs[j][i] or q, p), i, j) for j in ls for i in range(len(cs[j]) - d))
            if e == n:
                out += [(n, cs[j][-d:]) for j in ls]
                break
            out.append((e, _pivot(cs, ls, i0, j0, p ** e, q)[-d:]))
        shift = _valuation(d1, p)
        vals = [shift] * (d - len(out)) + [shift + e for e, _ in out]
        b = None
        if p > 2 and 0 < vals[-1] < shift + n and (d == 1 or vals[-2] == 0):
            # z, the last column of V, has G' z = 0 mod p^(vals[-1]), so
            # that power divides <z,z>; for d = 1, V = (1)
            z = out[-1][1] if out else [1]
            b = sum(x * sum(map(mul, row, z)) for x, row in zip(z, gram)) // p ** vals[-1] % p
        primes[p] = (vals, b, [(e, z) for e, z in out if e])
    return _Local(d1, d, primes)


def _pivot(cols: list[list[int]] | dict[int, list[int]], live: list[int], i0: int, j0: int, pe: int, q: int) -> list[int]:
    """The column step of `_local_data`.  Column j0 is pe times a unit mod q
    at row i0, and pe divides row i0 of every live column: j0 leaves live,
    clears row i0 of the others mod q and drops that row from them.  Returns
    column j0."""
    live.remove(j0)
    c0 = cols[j0]
    inv = pow(c0[i0] // pe, -1, q)
    for j in live:
        if f := cols[j][i0] // pe * inv % q:
            cols[j] = [(x - f * y) % q for x, y in zip(cols[j], c0)]
        del cols[j][i0]
    return c0


def _valuation(x: int, p: int) -> int:
    """v_p(x) for a nonzero x; bounded by x's bit length, so no x (0 too) loops."""
    e, n = 0, x.bit_length()
    while e < n and x % p == 0:
        x //= p
        e += 1
    return e


def _mod_kernel_basis(local: _Local, t: int) -> list[list[int]]:
    """Basis rows of M_t = {x : G' x = 0 mod t} in row Hermite form, in the
    basis of the Gram G' = d_1 G whose local data is given.  all_screeners
    gives the local data of the reduced Gram w G w^T of L, so the rows are
    in w-coordinates, and times w they span the M_t of L's own Gram.

    M_t = {x : G x = 0 mod t'} with t' = t / gcd(t, d_1).  Where p^k
    exactly divides t', M_{p^k} of G is spanned by p^(k - min(e, k)) z over
    the (e, z) of local at p and p^k Z^d, and M_t' = sum_p (t'/p^k) M_{p^k}:
    a y in M_{p^k} has G (t'/p^k) y = 0 mod t', and an x in M_t' is
    sum_p c_p (t'/p^k) x for the c_p with sum_p c_p t'/p^k = 1.  So M_t'
    is spanned by the generators t' / p^min(e, k) z mod t' and t' Z^d.  The
    rows h start as t' I, and each generator g goes in column by column: at
    a column c where g is nonzero, xgcd(h_cc, g_c) turns row c and g into a
    row of pivot gcd(h_cc, g_c) and a g that is 0 at c, and both are reduced
    mod t'.  This is the modular order of Domich, Kannan and Trotter (1987).
    It keeps h upper triangular, with every t' e_c in the span of rows c,
    ..., d - 1: a pivot only ever divides the one before it, and a step at c
    touches no later row.  So adding t' e_j, j > c, to row c or to g is a
    unimodular step, and the rows keep spanning M_t.  Every pivot lies in
    (0, t']: a new one is gcd(h_cc, g_c) with 0 < g_c < t'.  So
    `intlinalg.hnf_rows`, the same insertion with no modulus, puts each
    row of h in its empty pivot slot in one step, reduces above the pivots
    and returns the unique Hermite form of M_t.
    `_plan` builds it only for a t it routes `empty` or `walk`; for t | d_1
    it is the identity, since M_t = L.
    """
    t = t // gcd(t, local.d1)
    d = local.rank
    h = [[t if i == j else 0 for j in range(d)] for i in range(d)]
    for p, (_, _, gens) in local.primes.items():
        k = _valuation(t, p)
        if k == 0:
            continue
        for e, col in gens:
            g = [t // p ** min(e, k) * x % t for x in col]
            for c in range(d):
                x = g[c]
                if x == 0:
                    continue
                hc = h[c]
                pc = hc[c]
                r, a, b = intlinalg.xgcd(pc, x)
                u, w = pc // r, x // r
                h[c] = [(a * y + b * z) % t for y, z in zip(hc, g)]
                g = [(u * z - w * y) % t for y, z in zip(hc, g)]
    return intlinalg.hnf_rows(h)


def _discriminant_admits(t: int, local: _Local, even: bool) -> bool:
    """False when L*/L = (+) Z/d_i holds no y of order t with q(y) = 2/t.

    The test runs prime by prime over the primes p of t, all of which local
    holds, with p^k the exact power of p in t.  An element of order t needs
    t | d_n, the exponent of L*/L, so v_p(d_n) >= k.  For odd p some d_i has
    v_p(d_i) = k, and when p divides d_n alone, 2 b (t/p^k) is a square mod
    p (Euler's criterion), b = <z,z> / p^k of local, which holds one exactly
    then (the one nonzero v_p(d_i) is k <= K_p, below the cap); for p = 2,
    when the lattice is even or k >= 2, some d_i has 1 <= v_2(d_i) and
    k - 1 <= v_2(d_i) <= k + 1.  The proof is in `all_screeners`.
    """
    for p, (vals, b, _) in local.primes.items():
        k = _valuation(t, p)
        if k == 0:
            continue
        if vals[-1] < k:
            return False
        if p == 2:
            if (even or k > 1) and not any(max(k - 1, 1) <= e <= k + 1 for e in vals):
                return False
        elif k not in vals:
            return False
        elif b is not None and pow(2 * b * (t // p ** k), (p - 1) // 2, p) != 1:
            return False
    return True


# the most vectors the walk of L up to 2t is proven to emit for a t not
# dividing d_1 to be the top of that walk, so that it calls a level at
# most d _NEAR_WALK times (all_screeners); no output depends on it.
# Against 128, seed-1 passes of all_screeners took 6.5, 10.4, 15.0
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
    # one walk of L up to 2 top gives every shell up to top: top is the
    # largest t that divides d_1, where M_t = L, or whose walk the level
    # counts prove small; t = 1 always divides d_1
    top = max(t for t in divs if d1 % t == 0 or _walk_is_small(minors, 2 * t))
    route = {t: ("whole",) if d1 % t == 0 else ("near",) for t in divs if t <= top}
    walk = short_vectors(w, minors, lam, 2 * top)
    rest = divs[len(route):]
    if rest:
        # L in the reduced basis w, its Gram w G w^T read off the LLL state
        red = Lattice._from_state(intlinalg.gram_from_state(minors, lam), minors, lam)
        # K_p, the largest exponent of p in a t of rest, is v_p of their
        # lcm.  The ascending divs hold every prime factor of a t dividing
        # that lcm before t, so such a t is prime when no kept p divides it
        rest_lcm = lcm(*rest)
        exps: dict[int, int] = {}
        for t in divs[1:]:
            if rest_lcm % t == 0 and all(t % p for p in exps):
                exps[t] = _valuation(rest_lcm, t)
        local = _local_data(red.gram, d1, exps)
        for t in rest:
            if not _discriminant_admits(t, local, lat.is_even):
                route[t] = ("form",)
            else:
                basis = _mod_kernel_basis(local, t)
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
      divides d_n alone, the p-part of L*/L is cyclic of order p^k, since
      some v_p(d_i) = k.  Let z be a vector of L with z/p^k a generator of
      it, so G z = 0 mod p^k and p^k divides <z,z>: then y_p = c z / p^k
      with p not dividing c, q(z / p^k) = b / p^k with b = <z,z> / p^k,
      so c^2 b (t/p^k) = 2 mod p, and 2 b (t/p^k) is a square mod p.  z
      may be taken in any basis of L, here w-coordinates, and modulo
      p^(k+1) L, which moves <z,z> by a multiple of p^(k+1).  Two
      generators differ by a unit c mod p^k, and z' = c z + p^k l has
      <z',z'> = c^2 <z,z> + 2 c p^k <z,l> mod p^(2k), with p^k | <z,l>, so
      the b of either is c^2 times the other's mod p, in the same square
      class.

    The candidates need no Smith form.  d_1 is the gcd of G's entries and
    divides every d_i, and det G = d_1 ... d_n, so
    e = det G / d_1^(d-1) = d_n prod_{i<n} (d_i / d_1) is a multiple of
    d_n, and e = d_n when d <= 2.  The candidates t are the divisors of e
    up to the cap, listed from the primes of e (`intlinalg.divisors`).
    M_t = L exactly when t | d_1.  One walk of the LLL state of L serves
    every candidate t up to top, the largest candidate that divides d_1 or
    whose walk of L up to 2t `_walk_is_small` proves to emit at most
    _NEAR_WALK vectors (t = 1 divides d_1, so there is one).  A t up to top
    is `whole` when it divides d_1 and `near` otherwise.  Neither is cut by
    the discriminant form first, and neither needs to be:

    - the walk goes up to B = 2 top, the largest norm it serves.
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
      many level calls.  So when top does not divide d_1, the walk emits
      at most _NEAR_WALK vectors whatever the skew of the reduced basis;
      otherwise B = 2 top <= 2 d_1 <= 2 lambda_1(L), with lambda_1(L) the
      least norm of a nonzero vector of L, as d_1 divides every norm
      x^T G x.
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

    Only when some t is left after the walk, above top, is the reduced
    Gram G' = w G w^T built, read back off the LLL state by
    `intlinalg.gram_from_state` with no matrix product; it is never put in
    Smith form over Z.  w is unimodular, so G' has the Smith invariants
    of G, and M_t = {y : G' y = 0 mod t} w.  Everything the cut and the
    Hermite bases need is local at the primes P of the t left: the
    valuations v_p(d_i) for p in P, the b of a cyclic odd p-part and the
    generators of each M_{p^k}.  `_local_data` finds them all in one
    elimination of G = G' / d_1 modulo prod_{p in P} p^(K_p + 2), K_p the
    largest exponent of p in a t left, and one small Smith form mod
    p^(K_p + 2) per prime of the block that elimination leaves.  Dividing
    by d_1 keeps the elimination going where p | d_1, and M_t of G' is
    M_t' of G, t' = t / gcd(t, d_1).  The Hermite basis of M_t, in
    w-coordinates, is built modulo t' by `_mod_kernel_basis`, whose
    entries lie in [0, t'].  A shell vector z maps to L's coordinates as
    z c w, with c that Hermite basis.  The x not in 2L test stays on these
    shells, where it can fail.

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
    # near is when x is not in 2L and G x = 0 mod t, read row by row
    served = {2 * t: r[0] for t, r in route.items()}
    pairs = [(nrm, x) for x, nrm in walk
             if (kind := served.get(nrm)) == "whole" or kind == "near" and not in_scaled_lattice(x, 2)
             and all(sum(map(mul, row, x)) % (nrm // 2) == 0 for row in lat.gram)]
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
