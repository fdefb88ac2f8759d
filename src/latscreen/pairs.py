"""Screening-pair data for a screening vector.

A screener a with <a,a> = 2*p*p' supports pairs of screening operators,
-a/p at level r1 and m*a/(2*p*p') at level r2.  The first has weight 1
exactly when <gamma, a> = p - p' - r1*p, so gamma is that multiple of the
dual vector gbar with <gbar, a> = 1, and the second then has weight 1
exactly when m solves the integer quadratic

    m^2 + 2*m*(p*(r1 - 1) + p') + 4*p*p'*(r2 - 1) = 0.

The four types are its levels:

    type   (r1, r2)   m            <gamma, a>
    I      (0, 0)     2p           p - p'
    II     (0, 1)     2(p - p')    p - p'
    III    (1, 0)     r - p'       -p'
    IV     one >= 2   sporadic     (two branches, A and B)

The level-1 operator of types II and III is dressed by a direction beta.
One context per a holds G a, <a,a>, gcd(a) and gbar = n/q, each made once
per call; every weight, c and beta is computed from it in integers.  A
change of basis keeps the splits, type I success, <gamma, a> and type IV,
but gbar is folded from a's coordinates in index order, so gamma, c and the
type II and III verdicts can move: type II at a = (1, 0), (8, 1) on
[[16, 0], [0, 14]] is feasible, and not in the basis [[1, 1], [-2, -1]].
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import gcd, isqrt
from numbers import Integral
from operator import mul
from typing import Sequence

from . import intlinalg
from .core import DualVec, Lattice, LatticeError, Vec, in_dual_from, over_common_denominator
from .screeners import dual_pairing_unit, is_screener


@dataclass(frozen=True)
class PairSpec:
    """One concrete screening pair: momenta scale a/p and a/p', with the
    shift vector gamma and resulting central charge."""

    alpha: Vec
    p: int
    p_prime: int
    pair_type: str  # 'I', 'II', 'III'
    gamma: DualVec
    c: Fraction
    extra: dict = field(default_factory=dict)
    beta: Vec | None = None


class _Alpha:
    """The context of one vector a for one call: G a, <a,a>, gcd(a) and gbar."""

    def __init__(self, lat: Lattice, a: Sequence[int]):
        self.lat, self.a = lat, lat.vector(a, "alpha")
        self.ga = lat.gram_times(self.a)
        self.norm, self.gcd = sum(map(mul, self.ga, self.a)), gcd(*self.a)

    def half_norm(self) -> int:
        """<a,a>/2, refusing the zero vector and an odd norm."""
        if self.norm == 0:
            raise LatticeError("alpha is the zero vector; it has no factorization 2*p*p'")
        if self.norm % 2 != 0:
            raise LatticeError(f"norm {self.norm} is odd; no even factorization 2*p*p'")
        return self.norm // 2

    def in_dual(self, k: int, mult: int = 1) -> bool:
        return in_dual_from(self.ga, k // gcd(k, mult))  # mult*a/k: k | mult*v iff k/gcd(k, mult) | v

    @cached_property
    def gbar(self) -> tuple[list[int], int, Vec, int, int]:
        """n, q, G n, <n,a> and <n,n> for gbar = n/q over its least denominator."""
        if self.gcd != 1:
            raise LatticeError(f"alpha {self.a} is imprimitive (gcd {self.gcd}); the shift vector is not defined")
        n, q = over_common_denominator(dual_pairing_unit(self.lat, self.a))
        gn = self.lat.gram_times(n)
        return n, q, gn, sum(map(mul, gn, self.a)), sum(map(mul, gn, n))


def _positive(**values: int) -> None:
    """Refuse a split or level that is not a positive integer."""
    if not all((type(v) is int or isinstance(v, Integral)) and v >= 1 for v in values.values()):
        raise LatticeError(f"{' and '.join(values)} must be positive integers")


def _level_bound(max_r: int) -> None:
    """Refuse a type IV level bound that is not a nonnegative integer."""
    if not (type(max_r) is int or isinstance(max_r, Integral)) or max_r < 0:
        raise LatticeError(f"max_r must be a nonnegative integer, got {max_r!r}")


def pair_decompositions(lat: Lattice, a: Sequence[int]) -> list[tuple[int, int]]:
    """All factorizations <a,a> = 2*p*p' with both a/p and a/p' in the dual."""
    return _decompositions(_Alpha(lat, a))


def _decompositions(s: _Alpha) -> list[tuple[int, int]]:
    half = s.half_norm()
    return [(p, half // p) for p in intlinalg.divisors(half, half) if s.in_dual(p) and s.in_dual(half // p)]


def make_type_i(lat: Lattice, a: Sequence[int], p: int, p_prime: int) -> PairSpec:
    """Two level-0 screening operators with momenta -a/p and a/p'.

    gamma = (p - p') * gbar makes both weights exactly 1; p = p' gives
    gamma = 0.  Raises unless p p' = <a,a>/2 with a/p and a/p' in the dual,
    and when a is imprimitive with p != p'.
    """
    return _type_i(_Alpha(lat, a), p, p_prime)


def _type_i(s: _Alpha, p: int, p_prime: int) -> PairSpec:
    _positive(p=p, p_prime=p_prime)
    half = s.half_norm()
    if p * p_prime != half or not s.in_dual(p) or not s.in_dual(p_prime):
        raise LatticeError(f"({p}, {p_prime}) does not decompose <a,a> = {2 * half}")
    return _pair(s, p, p_prime, 0, 0, "I")


def virasoro_shift(lat: Lattice, a: Sequence[int], p: int, q: int) -> DualVec:
    """The shift vector gamma attached to a screener a of norm 2*p*q.

    gamma = (p - q) * gbar with <gbar, a> = 1, so <gamma, a> = p - q and both
    exponents -a/p and a/q get conformal weight exactly 1.  This is the type I
    gamma: a/p and a/q lie in the dual for every screener of norm 2pq, and a
    screener is primitive (a = k y with y in L makes 2/k = 2 <a,y>/<a,a>
    integral, and a is not in 2L).  For p = q the shift is zero.  Raises when
    a is not a screener or the norm does not match.
    """
    s = _Alpha(lat, a)
    _positive(p=p, q=q)
    if not is_screener(lat, s.a):
        raise LatticeError(f"{s.a} is not a screening vector")
    if s.norm != 2 * p * q:
        raise LatticeError(f"norm {s.norm} != 2*{p}*{q}")
    return _type_i(s, p, q).gamma


@dataclass(frozen=True)
class FeasibilityReport:
    """Outcome of a type II or III feasibility check."""

    feasible: bool
    reasons: tuple[str, ...]
    pair: PairSpec | None = None


def type_ii_feasible(lat: Lattice, a: Sequence[int], p: int, p_prime: int) -> FeasibilityReport:
    """Level-0 operator at -a/p against a dressed level-1 operator at
    (p - p') a / (p p').

    Needs p > p', p != 2p', rank >= 2, both momenta in the dual, and a
    primitive so the shift vector exists.  The dressing direction beta must
    be orthogonal to (p - p') a/(p p') - 2 gamma and independent of a.
    """
    return _type_ii(_Alpha(lat, a), p, p_prime)


def _type_ii(s: _Alpha, p: int, p_prime: int) -> FeasibilityReport:
    _positive(p=p, p_prime=p_prime)
    if s.norm != 2 * p * p_prime:
        raise LatticeError(f"<a,a> = {s.norm} != 2*{p}*{p_prime}")
    reasons = []
    if p <= p_prime:
        reasons.append("requires p > p_prime")
    if p == 2 * p_prime:
        reasons.append("p = 2*p_prime is excluded")
    if s.lat.rank < 2:
        reasons.append("rank must be at least 2")
    if not s.in_dual(p):
        reasons.append("alpha/p is not in the dual")
    if not s.in_dual(p * p_prime, p - p_prime):
        reasons.append("(p - p_prime) alpha / (p p_prime) is not in the dual")
    return _dressed(reasons, s, p, p_prime, 0, 1, "II")


def type_iii_feasible(lat: Lattice, a: Sequence[int], p_prime: int, r: int) -> FeasibilityReport:
    """Dressed level-1 operator at -a/p against a level-0 operator, with
    p = (r^2 - p_prime^2) / (4 p_prime) and second multiplier m = r - p_prime.

    Needs r > p_prime, r != 3 p_prime, p a positive integer matching
    <a,a> = 2 p p_prime, rank >= 2, momenta in the dual, a primitive; the
    dressing direction must be orthogonal to a/p + 2 gamma and independent
    of a.
    """
    return _type_iii(_Alpha(lat, a), p_prime, r)


def _type_iii(s: _Alpha, p_prime: int, r: int) -> FeasibilityReport:
    _positive(p_prime=p_prime, r=r)
    reasons = []
    if r <= p_prime:
        reasons.append("requires r > p_prime")
    if r == 3 * p_prime:
        reasons.append("r = 3*p_prime is excluded")
    num = r * r - p_prime * p_prime
    if num <= 0 or num % (4 * p_prime):
        reasons.append(
            f"p = (r^2 - p_prime^2)/(4 p_prime) = {Fraction(num, 4 * p_prime)} is not a positive integer"
        )
    if reasons:
        return FeasibilityReport(feasible=False, reasons=tuple(reasons))
    p = num // (4 * p_prime)
    if s.norm != 2 * p * p_prime:
        reasons.append(f"<a,a> = {s.norm} != 2*p*p_prime = {2 * p * p_prime}")
    if s.lat.rank < 2:
        reasons.append("rank must be at least 2")
    if not reasons and not s.in_dual(p):
        reasons.append("alpha/p is not in the dual")
    if not reasons and not s.in_dual(2 * p * p_prime, r - p_prime):
        reasons.append("m alpha / (2 p p_prime) is not in the dual")
    return _dressed(reasons, s, p, p_prime, 1, 0, "III", r=r)


def _pair(s: _Alpha, p: int, p_prime: int, r1: int, r2: int, pair_type: str, **extra) -> PairSpec:
    """The pair -a/p at level r1 and m a/(2pp') at level r2, for r2 <= 1.

    gamma = (p - p' - r1 p) gbar, zero without gbar when that scale is 0.
    m is the one positive root: the roots multiply to 4pp'(r2 - 1) <= 0,
    and the callers' checks make one positive (roots 2p and -2p' at (0, 0),
    2(p - p') > 0 and 0 at (0, 1), r - p' > 0 and -r - p' at (1, 0)).
    beta dresses a level-1 momentum v: orthogonal to v - 2 gamma and
    independent of a; None when there is none or no level is 1.

    In integers, with gbar = n/q and v = k a/den at level lvl: 2 den^2 q
    (weight - lvl) = k^2 <a,a> q - 2 scale k den <n,a>, c = rank - 12 scale^2
    <n,n>/q^2, and G (v - 2 gamma) = (q k G a - 2 scale den G n)/(den q).
    """
    (m,) = _weight_roots(p, p_prime, r1, r2)[1]
    scale = p - p_prime - r1 * p
    n, q, gn, na, nn = s.gbar if scale else ((0,) * s.lat.rank, 1, (0,) * s.lat.rank, 0, 0)
    gamma = tuple(Fraction(scale * v, q) for v in n)
    beta = None
    for k, den, lvl in ((-1, p, r1), (m, 2 * p * p_prime, r2)):
        twice = k * k * s.norm * q - 2 * scale * k * den * na
        if twice != 2 * den * den * q * (1 - lvl):
            raise LatticeError(f"internal: weight {lvl + Fraction(twice, 2 * den * den * q)} != 1 at level {lvl}")
        if lvl == 1:
            u = [q * k * x - 2 * scale * den * y for x, y in zip(s.ga, gn)]
            g = gcd(den * q, *u)
            beta = next((tuple(row) for row in intlinalg.kernel_rows([[t // g for t in u]])
                         if any(row[i] * s.a[j] != row[j] * s.a[i]  # not proportional to a
                                for i in range(len(row)) for j in range(i))), None)
    return PairSpec(alpha=s.a, p=p, p_prime=p_prime, pair_type=pair_type, gamma=gamma, beta=beta,
                    c=Fraction(s.lat.rank * q * q - 12 * scale * scale * nn, q * q), extra={"m": m, **extra})


def _dressed(reasons: list[str], s: _Alpha, *args, **extra) -> FeasibilityReport:
    """The report of a type II or III pair: infeasible for the reasons given
    or an imprimitive a, else _pair(s, *args, **extra), feasible when it has a beta."""
    if s.gcd != 1:
        reasons.append(f"alpha is imprimitive (gcd {s.gcd}); the shift vector is not defined")
    pair = None if reasons else _pair(s, *args, **extra)
    if pair is not None and pair.beta is None:
        pair, reasons = None, ["the orthogonal hyperplane holds no direction independent of alpha"]
    return FeasibilityReport(feasible=pair is not None, reasons=tuple(reasons), pair=pair)


def _weight_roots(p: int, p_prime: int, r1: int, r2: int) -> tuple[int | None, tuple[int, ...]]:
    """The root s of the discriminant of m^2 + 2m(p(r1-1) + p') + 4pp'(r2-1) = 0,
    None unless it is a perfect square, and the positive integer roots m."""
    b = p * (r1 - 1) + p_prime
    disc = b * b - 4 * p * p_prime * (r2 - 1)
    s = isqrt(max(disc, 0))
    if s * s != disc:
        return None, ()
    return s, tuple(m for m in sorted({-b + s, -b - s}) if m > 0)


def solve_weight_quadratic(p: int, p_prime: int, r1: int, r2: int) -> tuple[int, ...]:
    """Positive integer roots m of m^2 + 2m(p(r1-1) + p') + 4pp'(r2-1) = 0."""
    _positive(p=p, p_prime=p_prime)
    return _weight_roots(p, p_prime, r1, r2)[1]


@dataclass(frozen=True)
class TypeIVSolution:
    """A level >= 2 solution of the weight quadratic.

    Branch A keeps the first operator at level 0 and raises the second to
    r2 >= 2; branch B mirrors it with r1 >= 2, second at level 0.
    """

    branch: str  # 'A' or 'B'
    r1: int
    r2: int
    disc_sqrt: int
    m_values: tuple[int, ...]


def type_iv_search(p: int, p_prime: int, max_r: int) -> list[TypeIVSolution]:
    """All quadratic solutions with one level >= 2, levels up to max_r.

    Branch A discriminants decrease in r2, so the scan stops at the first
    negative one.  Branch B needs u^2 + 4pp' = s^2 with u = (r1 - 1)p + p',
    so only r1 <= p' can solve it: s - u and s + u are both even with
    product 4pp', so s + u <= 2pp', hence u < pp' and (r1 - 1)p < p'(p - 1) < p'p.
    Only solutions with a positive m survive.
    """
    _level_bound(max_r)
    _positive(p=p, p_prime=p_prime)
    out: list[TypeIVSolution] = []
    for r2 in range(2, max_r + 1):
        if (p_prime - p) ** 2 < 4 * p * p_prime * (r2 - 1):
            break
        s, ms = _weight_roots(p, p_prime, 0, r2)
        if ms:
            out.append(TypeIVSolution(branch="A", r1=0, r2=r2, disc_sqrt=s, m_values=ms))
    for r1 in range(2, min(max_r, p_prime) + 1):
        s, ms = _weight_roots(p, p_prime, r1, 0)
        if ms:
            out.append(TypeIVSolution(branch="B", r1=r1, r2=0, disc_sqrt=s, m_values=ms))
    return out


def rank1_central_charge(p: int, p_prime: int) -> Fraction:
    """c for the rank-1 lattice [[2pp']] with its type-I pair: 1 - 6(p-p')^2/(pp')."""
    _positive(p=p, p_prime=p_prime)
    return 1 - Fraction(6 * (p - p_prime) ** 2, p * p_prime)


def analyze_screener(lat: Lattice, a: Sequence[int], max_r: int = 50) -> dict:
    """Everything pair-related for one vector, exact values throughout.

    An odd-parity vector is doubled first (the screening theory only sees
    its even multiple); the report notes the substitution.
    """
    _level_bound(max_r)
    s = _Alpha(lat, a)
    alpha, substituted = s.a, s.norm % 2 == 1
    s = _Alpha(lat, tuple(2 * v for v in alpha)) if substituted else s
    decs = _decompositions(s)
    entries = []
    for p, q in decs:
        entry: dict = {"p": p, "p_prime": q}
        try:
            entry["type_i"] = _type_i(s, p, q)
        except LatticeError as e:
            entry["type_i_error"] = str(e)
        entry["type_ii"] = _type_ii(s, p, q)
        # type III needs r^2 = p'^2 + 4pp', the discriminant at levels (1, 0)
        r, _ = _weight_roots(p, q, 1, 0)
        if r is not None:
            entry["type_iii"] = _type_iii(s, q, r)
        else:
            entry["type_iii"] = FeasibilityReport(
                feasible=False,
                reasons=(f"no integer r with r^2 = p_prime^2 + 4*p*p_prime = {q * q + 4 * p * q}",),
            )
        entry["type_iv"] = type_iv_search(p, q, max_r)
        entries.append(entry)
    return {"alpha": alpha, "alpha_used": s.a, "substituted": substituted, "norm": s.norm,
            "decompositions": decs, "entries": entries}
