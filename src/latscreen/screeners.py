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
dual lattice is built.  The search walks the norm-2t shell of M_t only for
the divisors t of d_n within lambda_1(L)/2 <= t <= 2 max_i |b_i*|^2, and
skips a t before building M_t when the discriminant form of L*/L
(Nikulin 1979; Conway and Sloane, SPLAG ch. 15) has no element of order t
and norm 2/t, as the image of x/t must be.  That test reads the p-adic valuations of the
Smith invariants prime by prime; it needs no Jordan decomposition and is
necessary, not sufficient.

Each M_t starts from a Hermite basis modulo t, with entries in [0, t]: the
Hermite form of the Smith-form generators of M_t reduced mod t, plus t Z^d.
This is M_t itself because t Z^d lies in M_t.  LLL of each shell then starts
from a basis whose size is set by t, not by the entries of the Smith matrix.
M_t = L exactly when t | d_1, because d_1 is the gcd of G's entries: every
G x is 0 mod t exactly when every entry of G is.  Such a shell is read off
the same walk of L that gives lambda_1(L), and so is each near shell: an
admitted t not dividing d_1 with t <= b, b the least norm of the reduced
rows, whose walk the Gaussian heuristic expects to be short.  Its
screeners are the walked x of norm 2t with G x = 0 mod t and some odd
coordinate.  That walk goes up to B = max(b - 1, 2t for every admitted
t | d_1 and every near t), so L is reduced once and walked once.  B <= 2b,
because a near t is at most b and d_1 divides every norm:
2t <= 2 d_1 <= 2 lambda_1(L) <= 2b.
The Gram-Schmidt lemma above certifies any other shell empty before its
LLL: when every Gram-Schmidt norm D_{k+1}/D_k of the Hermite basis, read
off the minors its `Lattice` keeps, exceeds 2t, no nonzero vector of M_t
has norm 2t, and the shell is neither reduced nor walked.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lgamma, log, pi
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
    s_i = t / gcd(d_i, t); the basis is the Hermite form of those columns
    reduced mod t together with t e_1, ..., t e_d.  invariants are the d_i;
    V need not be reduced, since s_i V_i is reduced mod t here.
    all_screeners builds it only for t not dividing d_1 and not near: for
    t | d_1 it is the identity, since M_t = L, and a near shell is read off
    the walk of L.
    """
    d = len(invariants)
    gens = [[s * v[r][i] % t for r in range(d)]
            for i, s in enumerate(t // gcd(di, t) for di in invariants)]
    gens.extend([t if i == j else 0 for j in range(d)] for i in range(d))
    return intlinalg.hnf_rows(gens)


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


# the most vectors the Gaussian heuristic may expect of the walk of L up to
# a near shell's norm before that shell goes through M_t instead; no output
# depends on it.  128 was timed against 512 on the three benchmark
# workloads: 512 made the catalog one about 15 % slower, as its dense root
# lattices hold thousands of vectors below 2b
_NEAR_WALK = 128


def _walk_is_small(d: int, det: int, bound: int) -> bool:
    """Whether the Gaussian heuristic expects at most _NEAR_WALK vectors of
    norm at most bound in a lattice of rank d and determinant det: the
    volume pi^(d/2) bound^(d/2) / Gamma(d/2 + 1) of that ball over
    sqrt(det), compared in logs, so that no size of det overflows a float."""
    h = d / 2
    return h * log(pi * bound) - lgamma(h + 1) - log(det) / 2 <= log(_NEAR_WALK)


def all_screeners(lat: Lattice) -> ScreenerSet:
    """Every screener of the lattice.

    A screener x of norm 2t lies in M_t, so the search enumerates the
    norm-2t shell of M_t for each t that can hold one.  On that shell the
    norm is even and 2 G x / <x,x> = G x / t is integral by the definition
    of M_t, so of the screener conditions only x not in 2L is left: a shell
    vector is a screener exactly when some coordinate is odd.  With
    d_1 | ... | d_n the Smith invariants of G, only these t are walked:

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

    M_t is spanned by the columns s_i V_i of the Smith matrix V, with
    s_i = t / gcd(d_i, t), and the walk starts from the Hermite form of
    those columns reduced mod t together with t Z^d, whose entries lie in
    [0, t] whatever the size of V.  It is the same lattice, because t Z^d
    lies in M_t, so reducing a generator mod t stays inside M_t.  d_1 is
    the gcd of G's entries, so M_t = L exactly when t | d_1.  One walk of
    the LLL state of L serves lambda_1(L), every such shell and every near
    shell: an admitted t not dividing d_1 with t <= b, b the least norm of
    the reduced rows, whose ball of norm 2t the Gaussian heuristic
    pi^(d/2) (2t)^(d/2) / (Gamma(d/2 + 1) sqrt(det G)) expects to hold at
    most _NEAR_WALK vectors of L.  Any other t goes through M_t, as below.

    - the walk goes up to B = max(b - 1, 2t for every admitted t | d_1 and
      every near t), and b >= lambda_1(L).  If it finds a vector, the
      least norm it finds is lambda_1(L), since B >= b - 1 covers every
      norm below b; if it finds none, lambda_1(L) is b.
    - a shell with t | d_1 is the vectors of norm exactly 2t of that walk,
      already in L's coordinates with canonical sign; it needs no Hermite
      form, no shell `Lattice`, no second LLL and no remap.  Its vectors
      all have norm at least lambda_1(L), so the minimum cut holds.
    - a near shell is the walked x of norm 2t with G x = 0 mod t and some
      odd coordinate: the walk holds every vector of L of norm 2t, as
      2t <= B, and G x = 0 mod t keeps those of M_t, so these are the M_t
      shell's screeners, with no Hermite form, `Lattice`, LLL or remap.
    - B <= 2b: d_1 divides every norm x^T G x, so d_1 <= lambda_1(L) and
      2t <= 2 d_1 <= 2 lambda_1(L) <= 2b for t | d_1; a near t is at most
      b.
    - a shell with t | d_1 needs no x not in 2L test, because it never
      fails: t | d_1 and d_1 divides every norm, so t <= d_1 <=
      lambda_1(L), and a nonzero x = 2y has norm 4<y,y> >= 4 lambda_1(L)
      > 2t.  A near t is bounded by b alone: an x = 2y of norm 2t has
      t = 2<y,y> >= 2 lambda_1(L), which t <= b allows once
      b >= 2 lambda_1(L), and LLL bounds b only by 2^(d-1) lambda_1(L).
      So the test stays on the near shells and on the M_t shells, where it
      can fail.

    Every other shell is built on its Hermite basis c, and only those are
    reduced and walked that c does not certify empty:

    - some k has D_{k+1} <= 2t D_k, with D the leading minors of the Gram
      of c, kept by its `Lattice`.  Let z = sum_i a_i c_i be nonzero with
      a_k its last nonzero coefficient.  Its component along c_k* is
      a_k c_k*, so <z,z> >= a_k^2 |c_k*|^2 >= D_{k+1} / D_k.  If every
      D_{k+1} / D_k exceeds 2t, no nonzero vector of M_t has norm 2t, and
      the walk would return nothing.
    """
    diag, v = intlinalg.smith_normal_form(lat.gram)
    d = lat.rank
    invariants = [diag[i][i] for i in range(d)]
    dn = invariants[-1]
    # q(V_n / d_n) = a / d_n; G V_n = d_n (U^-1)_n, so d_n divides <V_n, V_n>
    a = lat.norm([row[-1] for row in v]) // dn
    even = lat.is_even
    w, minors, lam = lat.lll_reduce()
    # t <= 2 max_i |b_i*|^2 with |b_i*|^2 = D_{i+1} / D_i on the reduced basis
    cap = max(2 * minors[i + 1] // minors[i] for i in range(d))
    divs = intlinalg.divisors(dn, cap)
    primes: list[int] = []
    for t in divs:
        # the list is ascending and holds every prime of t, so t is prime
        # when no earlier prime divides it
        if t > 1 and all(t % p for p in primes):
            primes.append(t)
    admitted = [t for t in divs if _discriminant_admits(t, primes, invariants, a, even)]
    # one walk of L, past the least reduced row norm b less one, every norm
    # 2t with t | d_1, where M_t = L, and every near norm 2t <= 2b whose
    # walk the Gaussian heuristic sizes small, gives lambda_1(L) and those
    # shells; any other t is tested only when 2t >= lambda_1(L)
    b = min(map(lat.norm, w))
    whole = {2 * t for t in admitted if invariants[0] % t == 0}
    near = {2 * t for t in admitted
            if invariants[0] % t and t <= b and _walk_is_small(d, lat.determinant, 2 * t)}
    walk = short_vectors(w, minors, lam, max([b - 1, *whole, *near]))
    lmin = min((nrm for _, nrm in walk), default=b)
    # a walked x of norm 2t with t | d_1 is never in 2L (docstring); one of
    # a near norm 2t is in M_t when G x = 0 mod t, and can lie in 2L
    pairs = [(nrm, x) for x, nrm in walk
             if nrm in whole or (nrm in near and not in_scaled_lattice(x, 2)
                                 and in_dual_from(lat.gram_times(x), nrm // 2))]
    for t in admitted:
        if 2 * t < lmin or 2 * t in whole or 2 * t in near:
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
