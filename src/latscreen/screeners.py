"""Screening momenta of an integral lattice.

A nonzero vector x is a screening vector ("screener") when its norm is even,
x is not twice a lattice vector, and 2x/<x,x> pairs integrally with the whole
lattice, that is, lies in the dual lattice L*.  A screener of norm 2t lies in
the mod-t kernel sublattice M_t = {x : G x = 0 mod t}, and t is bounded
twice: it divides the exponent d_n of L*/L, and x/t is a nonzero dual vector
of norm 2/t, so t is at most 2/lambda_1(L*)^2.  The search walks the norm-2t
shell of M_t only for the divisors t of d_n within that bound.

Each M_t starts from a Hermite basis modulo t, with entries in [0, t]: the
Hermite form of the Smith-form generators of M_t reduced mod t, plus t Z^d.
This is M_t itself because t Z^d lies in M_t.  LLL of each shell then starts
from a basis whose size is set by t, not by the entries of the Smith matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Sequence

from . import intlinalg
from .core import DualVec, Lattice, LatticeError, Vec, canonical, in_dual, in_scaled_lattice
from .enumeration import enumerate_up_to_norm, form_minimum


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
    """
    d = len(invariants)
    if t == 1:
        return intlinalg.identity(d)
    gens = [[s * v[r][i] % t for r in range(d)]
            for i, s in enumerate(t // gcd(di, t) for di in invariants)]
    gens.extend([t if i == j else 0 for j in range(d)] for i in range(d))
    return intlinalg.hnf_rows(gens)


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
    - t <= 2 d_n / h_min, with h_min the minimum of the integer form
      H = d_n G^-1: y = x/t is a nonzero vector of L*, so
      <y,y> = 2/t >= h_min / d_n.

    M_t is spanned by the columns s_i V_i of the Smith matrix V, with
    s_i = t / gcd(d_i, t), and the walk starts from the Hermite form of
    those columns reduced mod t together with t Z^d, whose entries lie in
    [0, t] whatever the size of V.  It is the same lattice, because t Z^d
    lies in M_t, so reducing a generator mod t stays inside M_t.
    """
    pairs: list[tuple[int, Vec]] = []
    u, diag, v = intlinalg.smith_normal_form(lat.gram)
    d = lat.rank
    invariants = [diag[i][i] for i in range(d)]
    dn = invariants[-1]
    # H = d_n G^-1 = V diag(d_n / d_i) U, since G^-1 = V D^-1 U
    h = intlinalg.matmul([[v[r][i] * (dn // invariants[i]) for i in range(d)] for r in range(d)], u)
    for t in intlinalg.divisors(dn, 2 * dn // form_minimum(Lattice(h))):
        basis = _mod_kernel_basis(v, invariants, t)
        sub = Lattice(lat.row_gram(basis))
        found = enumerate_up_to_norm(sub, 2 * t)
        shell = [z for z, nrm in zip(found.vectors, found.norms) if nrm == 2 * t]
        for x in map(canonical, intlinalg.matmul(shell, basis)):
            if any(v % 2 for v in x):
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
    vv = lat.dual_inner(momentum, momentum)
    gv = lat.dual_inner(gamma, momentum)
    return level + vv / 2 - gv


def central_charge(gamma: Sequence[Fraction | int], lat: Lattice) -> Fraction:
    """c = rank - 12 <gamma, gamma>, the central charge shifted by gamma."""
    return lat.rank - 12 * lat.dual_inner(gamma, gamma)
