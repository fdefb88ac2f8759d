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
A change of basis keeps the splits, type I success, <gamma, a> and
type IV, but gbar is folded from a's coordinates in index order, so gamma,
c and the type II and III verdicts can move: type II at a = (1, 0), (8, 1)
on [[16, 0], [0, 14]] is feasible, and not in the basis [[1, 1], [-2, -1]].
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, isqrt
from numbers import Integral
from typing import Sequence

from . import intlinalg
from .core import DualVec, Lattice, LatticeError, Vec, in_dual, over_common_denominator
from .screeners import central_charge, conformal_weight, dual_pairing_unit, is_screener


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


def _positive(**values: int) -> None:
    """Refuse a split or level that is not a positive integer."""
    if not all(isinstance(v, Integral) and v >= 1 for v in values.values()):
        raise LatticeError(f"{' and '.join(values)} must be positive integers")


def _level_bound(max_r: int) -> None:
    """Refuse a type IV level bound that is not a nonnegative integer."""
    if not isinstance(max_r, Integral) or max_r < 0:
        raise LatticeError(f"max_r must be a nonnegative integer, got {max_r!r}")


def _half_norm(lat: Lattice, a: Vec) -> int:
    """<a,a>/2, refusing the zero vector and an odd norm."""
    nrm = lat.norm(a)
    if nrm == 0:
        raise LatticeError("alpha is the zero vector; it has no factorization 2*p*p'")
    if nrm % 2 != 0:
        raise LatticeError(f"norm {nrm} is odd; no even factorization 2*p*p'")
    return nrm // 2


def pair_decompositions(lat: Lattice, a: Sequence[int]) -> list[tuple[int, int]]:
    """All factorizations <a,a> = 2*p*p' with both a/p and a/p' in the dual."""
    a = lat.vector(a, "alpha")
    half = _half_norm(lat, a)
    return [(p, half // p) for p in intlinalg.divisors(half, half)
            if in_dual(lat, a, p) and in_dual(lat, a, half // p)]


def make_type_i(lat: Lattice, a: Sequence[int], p: int, p_prime: int) -> PairSpec:
    """Two level-0 screening operators with momenta -a/p and a/p'.

    gamma = (p - p') * gbar makes both weights exactly 1; p = p' gives
    gamma = 0.  Raises unless p p' = <a,a>/2 with a/p and a/p' in the dual,
    and when a is imprimitive with p != p'.
    """
    a = lat.vector(a, "alpha")
    _positive(p=p, p_prime=p_prime)
    half = _half_norm(lat, a)
    if p * p_prime != half or not in_dual(lat, a, p) or not in_dual(lat, a, p_prime):
        raise LatticeError(f"({p}, {p_prime}) does not decompose <a,a> = {2 * half}")
    return _pair(lat, a, p, p_prime, 0, 0, "I")


def virasoro_shift(lat: Lattice, a: Sequence[int], p: int, q: int) -> DualVec:
    """The shift vector gamma attached to a screener a of norm 2*p*q.

    gamma = (p - q) * gbar with <gbar, a> = 1, so <gamma, a> = p - q and both
    exponents -a/p and a/q get conformal weight exactly 1.  This is the type I
    gamma: a/p and a/q lie in the dual for every screener of norm 2pq, and a
    screener is primitive (a = k y with y in L makes 2/k = 2 <a,y>/<a,a>
    integral, and a is not in 2L).  For p = q the shift is zero.  Raises when
    a is not a screener or the norm does not match.
    """
    a = lat.vector(a, "alpha")
    _positive(p=p, q=q)
    if not is_screener(lat, a):
        raise LatticeError(f"{tuple(a)} is not a screening vector")
    if lat.norm(a) != 2 * p * q:
        raise LatticeError(f"norm {lat.norm(a)} != 2*{p}*{q}")
    return make_type_i(lat, a, p, q).gamma


@dataclass(frozen=True)
class FeasibilityReport:
    """Outcome of a type II or III feasibility check."""

    feasible: bool
    reasons: tuple[str, ...]
    pair: PairSpec | None = None


def _orthogonal_witness(lat: Lattice, a: Sequence[int], w: Sequence[Fraction]) -> Vec | None:
    """Integer vector orthogonal (under G) to the dual vector w and not
    proportional to a; None when no such direction exists."""
    nums, q = over_common_denominator(w)
    # G w = u / q; dividing u by gcd(q, u) gives G w over its least denominator
    u = lat.gram_times(nums)
    g = gcd(q, *u)
    return next((tuple(row) for row in intlinalg.kernel_rows([[t // g for t in u]])
                 if not _proportional(row, a)), None)


def _proportional(x: Sequence[int], y: Sequence[int]) -> bool:
    return all(
        x[i] * y[j] == x[j] * y[i]
        for i in range(len(x)) for j in range(i + 1, len(x))
    )


def type_ii_feasible(lat: Lattice, a: Sequence[int], p: int, p_prime: int) -> FeasibilityReport:
    """Level-0 operator at -a/p against a dressed level-1 operator at
    (p - p') a / (p p').

    Needs p > p', p != 2p', rank >= 2, both momenta in the dual, and a
    primitive so the shift vector exists.  The dressing direction beta must
    be orthogonal to (p - p') a/(p p') - 2 gamma and independent of a.
    """
    a = lat.vector(a, "alpha")
    _positive(p=p, p_prime=p_prime)
    nrm = lat.norm(a)
    if nrm != 2 * p * p_prime:
        raise LatticeError(f"<a,a> = {nrm} != 2*{p}*{p_prime}")
    reasons = []
    if p <= p_prime:
        reasons.append("requires p > p_prime")
    if p == 2 * p_prime:
        reasons.append("p = 2*p_prime is excluded")
    if lat.rank < 2:
        reasons.append("rank must be at least 2")
    if not in_dual(lat, a, p):
        reasons.append("alpha/p is not in the dual")
    if not in_dual(lat, [(p - p_prime) * v for v in a], p * p_prime):
        reasons.append("(p - p_prime) alpha / (p p_prime) is not in the dual")
    g = gcd(*a)
    if g != 1:
        reasons.append(f"alpha is imprimitive (gcd {g}); the shift vector is not defined")
    if reasons:
        return FeasibilityReport(feasible=False, reasons=tuple(reasons))
    return _dressed(_pair(lat, a, p, p_prime, 0, 1, "II"))


def type_iii_feasible(lat: Lattice, a: Sequence[int], p_prime: int, r: int) -> FeasibilityReport:
    """Dressed level-1 operator at -a/p against a level-0 operator, with
    p = (r^2 - p_prime^2) / (4 p_prime) and second multiplier m = r - p_prime.

    Needs r > p_prime, r != 3 p_prime, p a positive integer matching
    <a,a> = 2 p p_prime, rank >= 2, momenta in the dual, a primitive; the
    dressing direction must be orthogonal to a/p + 2 gamma and independent
    of a.
    """
    a = lat.vector(a, "alpha")
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
    nrm = lat.norm(a)
    if nrm != 2 * p * p_prime:
        reasons.append(f"<a,a> = {nrm} != 2*p*p_prime = {2 * p * p_prime}")
    if lat.rank < 2:
        reasons.append("rank must be at least 2")
    if not reasons and not in_dual(lat, a, p):
        reasons.append("alpha/p is not in the dual")
    if not reasons and not in_dual(lat, [(r - p_prime) * v for v in a], 2 * p * p_prime):
        reasons.append("m alpha / (2 p p_prime) is not in the dual")
    g = gcd(*a)
    if g != 1:
        reasons.append(f"alpha is imprimitive (gcd {g}); the shift vector is not defined")
    if reasons:
        return FeasibilityReport(feasible=False, reasons=tuple(reasons))
    return _dressed(_pair(lat, a, p, p_prime, 1, 0, "III", r=r))


def _pair(lat: Lattice, a: Vec, p: int, p_prime: int, r1: int, r2: int, pair_type: str,
          **extra) -> PairSpec:
    """The pair -a/p at level r1 and m a/(2pp') at level r2, for r2 <= 1.

    gamma = (p - p' - r1 p) gbar, zero without gbar when that scale is 0.
    m is the one positive root: the roots multiply to 4pp'(r2 - 1) <= 0,
    and the callers' checks make one positive (roots 2p and -2p' at (0, 0),
    2(p - p') > 0 and 0 at (0, 1), r - p' > 0 and -r - p' at (1, 0)).
    beta dresses a level-1 momentum v: orthogonal to v - 2 gamma and
    independent of a; None when there is none or no level is 1.
    """
    (m,) = _weight_roots(p, p_prime, r1, r2)[1]
    scale = p - p_prime - r1 * p
    gamma = (Fraction(0),) * lat.rank
    if scale != 0:
        g = gcd(*a)
        if g != 1:
            raise LatticeError(f"alpha {a} is imprimitive (gcd {g}); the shift vector is not defined")
        gamma = tuple(scale * t for t in dual_pairing_unit(lat, a))
    beta = None
    for mom, lvl in ((tuple(Fraction(-v, p) for v in a), r1),
                     (tuple(Fraction(m * v, 2 * p * p_prime) for v in a), r2)):
        wt = conformal_weight(lat, mom, gamma, lvl)
        if wt != 1:
            raise LatticeError(f"internal: weight {wt} != 1 at level {lvl}")
        if lvl == 1:
            beta = _orthogonal_witness(lat, a, tuple(v - 2 * t for v, t in zip(mom, gamma)))
    return PairSpec(alpha=a, p=p, p_prime=p_prime, pair_type=pair_type, gamma=gamma,
                    c=central_charge(lat.rank, gamma, lat), extra={"m": m, **extra}, beta=beta)


def _dressed(pair: PairSpec) -> FeasibilityReport:
    """The report of a type II or III pair: feasible when beta exists."""
    if pair.beta is None:
        return FeasibilityReport(feasible=False, reasons=(
            "the orthogonal hyperplane holds no direction independent of alpha",))
    return FeasibilityReport(feasible=True, reasons=(), pair=pair)


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
    alpha = lat.vector(a, "alpha")
    substituted = lat.parity(alpha) == 1
    a_t = tuple(2 * v for v in alpha) if substituted else alpha
    decs = pair_decompositions(lat, a_t)
    entries = []
    for p, q in decs:
        entry: dict = {"p": p, "p_prime": q}
        try:
            entry["type_i"] = make_type_i(lat, a_t, p, q)
        except LatticeError as e:
            entry["type_i_error"] = str(e)
        entry["type_ii"] = type_ii_feasible(lat, a_t, p, q)
        # type III needs r^2 = p'^2 + 4pp', the discriminant at levels (1, 0)
        r, _ = _weight_roots(p, q, 1, 0)
        if r is not None:
            entry["type_iii"] = type_iii_feasible(lat, a_t, q, r)
        else:
            entry["type_iii"] = FeasibilityReport(
                feasible=False,
                reasons=(f"no integer r with r^2 = p_prime^2 + 4*p*p_prime = {q * q + 4 * p * q}",),
            )
        entry["type_iv"] = type_iv_search(p, q, max_r)
        entries.append(entry)
    return {
        "alpha": alpha,
        "alpha_used": a_t,
        "substituted": substituted,
        "norm": lat.norm(a_t),
        "decompositions": decs,
        "entries": entries,
    }
