"""Screening-pair data for a screening vector.

A screener a with <a,a> = 2*p*p' supports pairs of screening operators whose
joint weight-1 condition reduces to the integer quadratic

    m^2 + 2*m*(p*(r1 - 1) + p') + 4*p*p'*(r2 - 1) = 0

in the second momentum multiplier m, with r1, r2 the operator levels.  The
four realizable shapes: both operators at level 0 (type I), a level-0 and a
dressed level-1 operator (type II), the mirrored arrangement (type III), and
the sporadic level >= 2 solutions of the quadratic (type IV, two branches).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from operator import index
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


def pair_decompositions(lat: Lattice, a: Sequence[int]) -> list[tuple[int, int]]:
    """All factorizations <a,a> = 2*p*p' with both a/p and a/p' in the dual."""
    nrm = lat.norm(a)
    if nrm == 0:
        raise LatticeError("alpha is the zero vector; it has no factorization 2*p*p'")
    if nrm % 2 != 0:
        raise LatticeError(f"norm {nrm} is odd; no even factorization 2*p*p'")
    half = nrm // 2
    return [(p, half // p) for p in intlinalg.divisors(half, half)
            if in_dual(lat, a, p) and in_dual(lat, a, half // p)]


def _shift_vector(lat: Lattice, a: Sequence[int], scale: int) -> DualVec:
    """gamma = scale * gbar with <gbar, a> = 1; needs a primitive unless scale = 0."""
    if scale == 0:
        return tuple(Fraction(0) for _ in range(lat.rank))
    g = gcd(*a)
    if g != 1:
        raise LatticeError(
            f"alpha {tuple(a)} is imprimitive (gcd {g}); the shift vector is not defined"
        )
    unit = dual_pairing_unit(lat, a)
    return tuple(scale * t for t in unit)


def _require_weight_one(lat: Lattice, gamma: DualVec, *operators) -> None:
    """Check that every (momentum, level) operator has conformal weight 1."""
    for mom, lvl in operators:
        wt = conformal_weight(lat, mom, gamma, lvl)
        if wt != 1:
            raise LatticeError(f"internal: weight {wt} != 1 at level {lvl}")


def make_type_i(lat: Lattice, a: Sequence[int], p: int, p_prime: int) -> PairSpec:
    """Two level-0 screening operators with momenta -a/p and a/p'.

    gamma = (p - p') * gbar makes both weights exactly 1; p = p' gives
    gamma = 0.  Raises when (p, p') is not a valid decomposition or when a
    is imprimitive with p != p'.
    """
    if (p, p_prime) not in pair_decompositions(lat, a):
        raise LatticeError(f"({p}, {p_prime}) does not decompose <a,a> = {lat.norm(a)}")
    gamma = _shift_vector(lat, a, p - p_prime)
    a_t = tuple(int(v) for v in a)
    _require_weight_one(lat, gamma, (tuple(Fraction(-v, p) for v in a_t), 0),
                        (tuple(Fraction(v, p_prime) for v in a_t), 0))
    return PairSpec(
        alpha=a_t,
        p=p,
        p_prime=p_prime,
        pair_type="I",
        gamma=gamma,
        c=central_charge(lat.rank, gamma, lat),
        extra={"m": 2 * p},
    )


def virasoro_shift(lat: Lattice, a: Sequence[int], p: int, q: int) -> DualVec:
    """The shift vector gamma attached to a screener a of norm 2*p*q.

    gamma = (p - q) * gbar with <gbar, a> = 1, so <gamma, a> = p - q and both
    exponents -a/p and a/q get conformal weight exactly 1.  This is the type I
    gamma: a/p and a/q lie in the dual for every screener of norm 2pq, and a
    screener is primitive (a = k y with y in L makes 2/k = 2 <a,y>/<a,a>
    integral, and a is not in 2L).  For p = q the shift is zero.  Raises when
    a is not a screener or the norm does not match.
    """
    if p < 1 or q < 1:
        raise LatticeError("p and q must be positive")
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


def _orthogonal_witness(lat: Lattice, a: Sequence[int], w: Sequence[Fraction]) -> tuple[Vec | None, str | None]:
    """Integer vector orthogonal (under G) to the dual vector w and not
    proportional to a; None with a reason when no direction exists."""
    d = lat.rank
    nums, q = over_common_denominator(w)
    # G w = u / q; dividing u by gcd(q, u) gives G w over its least denominator
    u = lat.gram_times(nums)
    if not any(u):
        for j in range(d):
            e = tuple(1 if i == j else 0 for i in range(d))
            if not _proportional(e, a):
                return e, None
        return None, "every coordinate direction is proportional to alpha"
    g = gcd(q, *u)
    for row in intlinalg.kernel_rows([[t // g for t in u]]):
        if not _proportional(row, a):
            return tuple(row), None
    return None, "the orthogonal hyperplane holds no direction independent of alpha"


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
    ga = lat.gram_times(a)
    if any(((p - p_prime) * t) % (p * p_prime) for t in ga):
        reasons.append("(p - p_prime) alpha / (p p_prime) is not in the dual")
    g = gcd(*a)
    if g != 1:
        reasons.append(f"alpha is imprimitive (gcd {g}); the shift vector is not defined")
    if reasons:
        return FeasibilityReport(feasible=False, reasons=tuple(reasons))
    a_t = tuple(int(v) for v in a)
    m = 2 * (p - p_prime)
    mom2 = tuple(Fraction(m * v, 2 * p * p_prime) for v in a_t)
    return _dressed_pair(lat, a_t, p, p_prime, "II", {"m": m}, _shift_vector(lat, a, p - p_prime),
                         (tuple(Fraction(-v, p) for v in a_t), 0), (mom2, 1))


def type_iii_feasible(lat: Lattice, a: Sequence[int], p_prime: int, r: int) -> FeasibilityReport:
    """Dressed level-1 operator at -a/p against a level-0 operator, with
    p = (r^2 - p_prime^2) / (4 p_prime) and second multiplier m = r - p_prime.

    Needs r > p_prime, r != 3 p_prime, p a positive integer matching
    <a,a> = 2 p p_prime, rank >= 2, momenta in the dual, a primitive; the
    dressing direction must be orthogonal to a/p + 2 gamma and independent
    of a.
    """
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
        return FeasibilityReport(feasible=False, reasons=tuple(reasons))
    p = num // (4 * p_prime)
    if reasons:
        return FeasibilityReport(feasible=False, reasons=tuple(reasons))
    nrm = lat.norm(a)
    if nrm != 2 * p * p_prime:
        reasons.append(f"<a,a> = {nrm} != 2*p*p_prime = {2 * p * p_prime}")
    if lat.rank < 2:
        reasons.append("rank must be at least 2")
    if not reasons and not in_dual(lat, a, p):
        reasons.append("alpha/p is not in the dual")
    m = r - p_prime
    if not reasons:
        ga = lat.gram_times(a)
        if any((m * t) % (2 * p * p_prime) for t in ga):
            reasons.append("m alpha / (2 p p_prime) is not in the dual")
    g = gcd(*a)
    if g != 1:
        reasons.append(f"alpha is imprimitive (gcd {g}); the shift vector is not defined")
    if reasons:
        return FeasibilityReport(feasible=False, reasons=tuple(reasons))
    a_t = tuple(int(v) for v in a)
    mom2 = tuple(Fraction(m * v, 2 * p * p_prime) for v in a_t)
    return _dressed_pair(lat, a_t, p, p_prime, "III", {"m": m, "r": r}, _shift_vector(lat, a, -p_prime),
                         (tuple(Fraction(-v, p) for v in a_t), 1), (mom2, 0))


def _dressed_pair(lat: Lattice, a: Vec, p: int, p_prime: int, pair_type: str, extra: dict,
                  gamma: DualVec, *operators) -> FeasibilityReport:
    """The pair of a type II or III check that passed: both (momentum, level)
    operators at weight 1, and a dressing direction beta orthogonal to
    v - 2 gamma, v the level-1 momentum, and independent of a."""
    _require_weight_one(lat, gamma, *operators)
    dressed = next(mom for mom, lvl in operators if lvl == 1)
    beta, why = _orthogonal_witness(lat, a, tuple(v - 2 * g for v, g in zip(dressed, gamma)))
    if beta is None:
        return FeasibilityReport(feasible=False, reasons=(why,))
    pair = PairSpec(
        alpha=a,
        p=p,
        p_prime=p_prime,
        pair_type=pair_type,
        gamma=gamma,
        c=central_charge(lat.rank, gamma, lat),
        extra=extra,
        beta=beta,
    )
    return FeasibilityReport(feasible=True, reasons=(), pair=pair)


def solve_weight_quadratic(p: int, p_prime: int, r1: int, r2: int) -> tuple[int, ...]:
    """Positive integer roots m of m^2 + 2m(p(r1-1) + p') + 4pp'(r2-1) = 0."""
    b = p * (r1 - 1) + p_prime
    c = 4 * p * p_prime * (r2 - 1)
    disc = b * b - c
    if disc < 0:
        return ()
    s = math.isqrt(disc)
    if s * s != disc:
        return ()
    roots = sorted({-b + s, -b - s})
    return tuple(m for m in roots if m > 0)


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
    out: list[TypeIVSolution] = []
    for r2 in range(2, max_r + 1):
        disc = (p_prime - p) ** 2 + 4 * p * p_prime * (1 - r2)
        if disc < 0:
            break
        s = math.isqrt(disc)
        if s * s != disc:
            continue
        ms = solve_weight_quadratic(p, p_prime, 0, r2)
        if ms:
            out.append(TypeIVSolution(branch="A", r1=0, r2=r2, disc_sqrt=s, m_values=ms))
    for r1 in range(2, min(max_r, p_prime) + 1):
        disc = ((r1 - 1) * p + p_prime) ** 2 + 4 * p * p_prime
        s = math.isqrt(disc)
        if s * s != disc:
            continue
        ms = solve_weight_quadratic(p, p_prime, r1, 0)
        if ms:
            out.append(TypeIVSolution(branch="B", r1=r1, r2=0, disc_sqrt=s, m_values=ms))
    return out


def rank1_central_charge(p: int, p_prime: int) -> Fraction:
    """c for the rank-1 lattice [[2pp']] with its type-I pair: 1 - 6(p-p')^2/(pp')."""
    return 1 - Fraction(6 * (p - p_prime) ** 2, p * p_prime)


def analyze_screener(lat: Lattice, a: Sequence[int], max_r: int = 50) -> dict:
    """Everything pair-related for one vector, exact values throughout.

    An odd-parity vector is doubled first (the screening theory only sees
    its even multiple); the report notes the substitution.
    """
    try:
        alpha = tuple(map(index, a))
    except TypeError:
        raise LatticeError(f"alpha {tuple(a)!r} has an entry that is not an integer") from None
    a_t = alpha
    substituted = False
    if lat.parity(a_t) == 1:
        a_t = tuple(2 * v for v in a_t)
        substituted = True
    decs = pair_decompositions(lat, a_t)
    entries = []
    for p, q in decs:
        entry: dict = {"p": p, "p_prime": q}
        try:
            entry["type_i"] = make_type_i(lat, a_t, p, q)
        except LatticeError as e:
            entry["type_i_error"] = str(e)
        entry["type_ii"] = type_ii_feasible(lat, a_t, p, q)
        disc = q * q + 4 * p * q
        s = math.isqrt(disc)
        if s * s == disc:
            entry["type_iii"] = type_iii_feasible(lat, a_t, q, s)
        else:
            entry["type_iii"] = FeasibilityReport(
                feasible=False,
                reasons=(f"no integer r with r^2 = p_prime^2 + 4*p*p_prime = {disc}",),
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
