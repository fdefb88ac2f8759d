import hashlib
import math
import random
import re
from collections import Counter
from fractions import Fraction

import pytest

import latscreen.pairs
from certificates import scrambled
from latscreen import (
    Lattice,
    LatticeError,
    all_screeners,
    analyze_screener,
    catalog,
    central_charge,
    conformal_weight,
    dual_pairing_unit,
    in_dual,
    is_positive_definite,
    is_screener,
    make_type_i,
    pair_decompositions,
    rank1_central_charge,
    solve_weight_quadratic,
    type_ii_feasible,
    type_iii_feasible,
    type_iv_search,
    virasoro_shift,
)

A2 = Lattice([[2, -1], [-1, 2]])


def test_pair_decompositions_rank1():
    lat = Lattice([[12]])
    assert pair_decompositions(lat, (1,)) == [(1, 6), (2, 3), (3, 2), (6, 1)]


def test_pair_decompositions_a2():
    assert pair_decompositions(A2, (1, 2)) == [(1, 3), (3, 1)]
    # a root: norm 2, only the trivial split
    assert pair_decompositions(A2, (1, 0)) == [(1, 1)]


def test_pair_decompositions_match_trial_division():
    """Only the divisors of <a,a>/2 are tried, in ascending order; the
    reference trial-divides every p up to <a,a>/2."""
    rng = random.Random(19)
    seen = 0
    while seen < 150:
        d = rng.randint(1, 3)
        g = [[0] * d for _ in range(d)]
        for i in range(d):
            g[i][i] = rng.randint(1, 8)
            for j in range(i + 1, d):
                g[i][j] = g[j][i] = rng.randint(-6, 6)
        if not is_positive_definite(g):
            continue
        lat = Lattice(g)
        for a in all_screeners(lat).vectors:
            half = lat.norm(a) // 2
            reference = [(p, half // p) for p in range(1, half + 1)
                         if half % p == 0 and in_dual(lat, a, p) and in_dual(lat, a, half // p)]
            assert pair_decompositions(lat, a) == reference, (g, a)
            seen += 1
    # norm 1.8e9: trial division up to <a,a>/2 would not finish
    assert pair_decompositions(A2, (30000, 0)) == [(30000, 30000)]


def test_pair_decompositions_requires_dual_membership():
    # diag(4, 3): the screener (1, 0) has norm 4 = 2*2*1 but G(1,0) = (4, 0)
    # kills nothing; both (1, 2) and (2, 1) need 2 | 4, which holds
    lat = Lattice([[4, 0], [0, 3]])
    assert pair_decompositions(lat, (1, 0)) == [(1, 2), (2, 1)]
    # diag(2, 2): (1, 1) has norm 4 but G(1,1) = (2, 2) is not 0 mod 4
    lat = Lattice([[2, 0], [0, 2]])
    assert pair_decompositions(lat, (1, 1)) == [(1, 2), (2, 1)]


def test_pair_decompositions_odd_norm_raises():
    with pytest.raises(LatticeError, match="no even factorization"):
        pair_decompositions(Lattice([[3]]), (1,))


def test_type_i_rank1_catalog():
    lat = Lattice([[12]])
    expected = {
        (1, 6): (Fraction(-5, 12), Fraction(-24)),
        (2, 3): (Fraction(-1, 12), Fraction(0)),
        (3, 2): (Fraction(1, 12), Fraction(0)),
        (6, 1): (Fraction(5, 12), Fraction(-24)),
    }
    for (p, q), (gamma0, c) in expected.items():
        spec = make_type_i(lat, (1,), p, q)
        assert spec.gamma == (gamma0,)
        assert spec.c == c
        assert spec.pair_type == "I"
        assert spec.extra == {"m": 2 * p}


def test_type_i_matches_rank1_formula():
    for p, q in [(1, 6), (2, 3), (3, 2), (6, 1), (4, 1), (5, 2)]:
        lat = Lattice([[2 * p * q]])
        spec = make_type_i(lat, (1,), p, q)
        assert spec.c == rank1_central_charge(p, q)


def test_type_i_a2():
    spec = make_type_i(A2, (1, 2), 3, 1)
    assert spec.gamma == (Fraction(4, 3), Fraction(2, 3))
    assert spec.c == -30
    mirror = make_type_i(A2, (1, 2), 1, 3)
    assert mirror.gamma == (Fraction(-4, 3), Fraction(-2, 3))
    assert mirror.c == -30


def test_type_i_rejects_bad_split():
    with pytest.raises(LatticeError, match="does not decompose"):
        make_type_i(Lattice([[12]]), (1,), 4, 3)


def test_type_i_imprimitive_needs_zero_shift():
    lat = Lattice([[12]])
    # doubled vector, norm 48 = 2*24; equal split works (gamma = 0) ...
    m = pair_decompositions(lat, (2,))
    assert (4, 6) in m and (6, 4) in m
    with pytest.raises(LatticeError, match="imprimitive"):
        make_type_i(lat, (2,), 6, 4)


def test_type_ii_feasible_example():
    lat = Lattice([[12, 0], [0, 2]])
    rep = type_ii_feasible(lat, (1, 0), 3, 2)
    assert rep.feasible
    assert rep.reasons == ()
    assert rep.pair.pair_type == "II"
    assert rep.pair.beta == (0, 1)
    assert rep.pair.gamma == (Fraction(1, 12), Fraction(0))
    assert rep.pair.c == 1
    assert rep.pair.extra == {"m": 2}


def test_type_ii_infeasibility_reasons():
    lat = Lattice([[12, 0], [0, 2]])
    assert type_ii_feasible(lat, (1, 0), 2, 3).reasons == ("requires p > p_prime",)
    assert type_ii_feasible(Lattice([[12]]), (1,), 6, 1).reasons == (
        "rank must be at least 2",
    )
    assert type_ii_feasible(Lattice([[16]]), (1,), 4, 2).reasons == (
        "p = 2*p_prime is excluded",
        "rank must be at least 2",
    )
    assert type_ii_feasible(lat, (2, 0), 6, 4).reasons == (
        "alpha is imprimitive (gcd 2); the shift vector is not defined",
    )


def test_type_ii_rejects_wrong_norm():
    with pytest.raises(LatticeError, match="!= 2"):
        type_ii_feasible(Lattice([[12, 0], [0, 2]]), (1, 0), 5, 2)


def test_type_iii_feasible_example():
    lat = Lattice([[12, 0], [0, 5]])
    rep = type_iii_feasible(lat, (1, 0), 1, 5)
    assert rep.feasible
    assert rep.pair.p == 6
    assert rep.pair.p_prime == 1
    assert rep.pair.extra == {"m": 4, "r": 5}
    assert rep.pair.beta == (0, 1)
    assert rep.pair.gamma == (Fraction(-1, 12), Fraction(0))
    assert rep.pair.c == 1


def test_type_iii_infeasibility_reasons():
    lat = Lattice([[12, 0], [0, 5]])
    assert type_iii_feasible(lat, (1, 0), 1, 3).reasons == (
        "r = 3*p_prime is excluded",
    )
    rep = type_iii_feasible(lat, (1, 0), 1, 4)
    assert rep.reasons == (
        "p = (r^2 - p_prime^2)/(4 p_prime) = 15/4 is not a positive integer",
    )
    assert type_iii_feasible(Lattice([[12]]), (1,), 1, 5).reasons == (
        "rank must be at least 2",
    )


def test_pair_types_sit_at_their_levels():
    """Every pair that types I, II and III return solves the weight
    quadratic at its type's levels (r1, r2) = (0, 0), (0, 1), (1, 0): -a/p
    at level r1 and m a/(2pp') at level r2 both have weight 1, m is the
    positive root, and <gamma, a> = p - p' - r1 p.  The pair layer computes
    these in integers, so each pair is also checked on the Fraction route:
    c is central_charge(gamma), and beta is G-orthogonal to the level-1
    momentum minus 2 gamma by dual_inner and not proportional to a.  The
    public functions and analyze_screener's entries give equal objects.  The
    pool keeps the inputs of the old per-type weight tests, adds feasible
    type II and III pairs and rank-4 lattices in a seeded unimodular basis."""
    levels = {"I": (0, 0), "II": (0, 1), "III": (1, 0)}
    pool = [Lattice([[12]]), A2, catalog("A", 3), Lattice([[4, 0], [0, 3]])]
    pool += [Lattice(g) for g in _pin_pool() + _rank4_pool()]
    built = Counter()
    for lat in pool:
        for a in all_screeners(lat).vectors:
            rep = analyze_screener(lat, a, max_r=0)
            assert rep["decompositions"] == pair_decompositions(lat, a)
            for (p, q), entry in zip(rep["decompositions"], rep["entries"], strict=True):
                try:
                    specs = [make_type_i(lat, a, p, q)]
                    assert entry["type_i"] == specs[0]
                    assert virasoro_shift(lat, a, p, q) == specs[0].gamma
                except LatticeError as e:
                    specs = []  # imprimitive with p != q
                    assert entry["type_i_error"] == str(e)
                r = math.isqrt(q * q + 4 * p * q)
                reports = (type_ii_feasible(lat, a, p, q), type_iii_feasible(lat, a, q, r))
                assert entry["type_ii"] == reports[0]
                assert entry["type_iii"] == reports[1] or r * r != q * q + 4 * p * q
                specs += [rep.pair for rep in reports if rep.feasible]
                for spec in specs:
                    r1, r2 = levels[spec.pair_type]
                    m = spec.extra["m"]
                    assert (spec.alpha, spec.p, spec.p_prime) == (a, p, q)
                    assert solve_weight_quadratic(p, q, r1, r2) == (m,)
                    lo = tuple(Fraction(-v, p) for v in a)
                    hi = tuple(Fraction(m * v, 2 * p * q) for v in a)
                    assert conformal_weight(lat, lo, spec.gamma, r1) == 1, (lat, a, spec)
                    assert conformal_weight(lat, hi, spec.gamma, r2) == 1, (lat, a, spec)
                    assert lat.dual_inner(spec.gamma, a) == p - q - r1 * p
                    assert spec.c == central_charge(spec.gamma, lat), (lat, a, spec)
                    if spec.pair_type == "I":
                        assert spec.beta is None
                    else:
                        level_one = hi if spec.pair_type == "II" else lo
                        w = tuple(v - 2 * t for v, t in zip(level_one, spec.gamma))
                        assert lat.dual_inner(spec.beta, w) == 0, (lat, a, spec)
                        assert any(spec.beta[i] * a[j] != spec.beta[j] * a[i]
                                   for i in range(len(a)) for j in range(i + 1, len(a))), (lat, a, spec)
                    built[spec.pair_type] += 1
                    built[lat.gram, spec.pair_type] += 1
                    built[lat.rank, spec.pair_type] += 1
    assert built[((12,),), "I"] and built[((12, 0), (0, 2)), "II"] and built[((12, 0), (0, 5)), "III"]
    assert built["I"] > 100 and built["II"] > 20 and built["III"] > 5, built
    assert built[4, "I"] > 40 and built[4, "II"] > 15 and built[4, "III"] >= 3, built


def test_solve_weight_quadratic_frozen():
    assert solve_weight_quadratic(6, 1, 0, 2) == (4, 6)
    assert solve_weight_quadratic(2, 3, 2, 0) == (2,)
    assert solve_weight_quadratic(3, 2, 2, 0) == (2,)
    assert solve_weight_quadratic(1, 1, 1, 1) == ()
    assert solve_weight_quadratic(3, 2, 0, 2) == ()
    assert solve_weight_quadratic(1, 6, 1, 0) == ()


def test_solve_weight_quadratic_roots_check():
    rng = random.Random(11)
    for _ in range(300):
        p = rng.randint(1, 12)
        q = rng.randint(1, 12)
        r1 = rng.randint(0, 6)
        r2 = rng.randint(0, 6)
        for m in solve_weight_quadratic(p, q, r1, r2):
            assert m > 0
            assert m * m + 2 * m * (p * (r1 - 1) + q) + 4 * p * q * (r2 - 1) == 0


def test_type_iv_search_frozen():
    sols = type_iv_search(6, 1, 10)
    assert len(sols) == 1
    sol = sols[0]
    assert (sol.branch, sol.r1, sol.r2, sol.disc_sqrt, sol.m_values) == ("A", 0, 2, 1, (4, 6))
    assert type_iv_search(1, 1, 10) == []
    assert type_iv_search(2, 1, 10) == []
    sols = type_iv_search(2, 3, 10)
    assert [(s.branch, s.r1, s.r2, s.m_values) for s in sols] == [("B", 2, 0, (2,))]
    sols = type_iv_search(3, 2, 10)
    assert [(s.branch, s.r1, s.r2, s.m_values) for s in sols] == [("B", 2, 0, (2,))]


def test_type_iv_solutions_satisfy_quadratic():
    for p in range(1, 9):
        for q in range(1, 9):
            for sol in type_iv_search(p, q, 12):
                assert sol.branch in ("A", "B")
                r1, r2 = sol.r1, sol.r2
                assert (r1 >= 2) != (r2 >= 2)
                for m in sol.m_values:
                    assert m * m + 2 * m * (p * (r1 - 1) + q) + 4 * p * q * (r2 - 1) == 0


def test_type_iv_branch_b_stops_at_p_prime():
    """Branch B has no square discriminant past r1 = p', so a huge level
    bound returns at once and finds what a bound of 400 finds."""
    for p in range(1, 31):
        for q in range(1, 31):
            assert type_iv_search(p, q, 10**12) == type_iv_search(p, q, 400)
            for r1 in range(q + 1, 400):
                disc = ((r1 - 1) * p + q) ** 2 + 4 * p * q
                assert math.isqrt(disc) ** 2 != disc, (p, q, r1)


@pytest.mark.parametrize("max_r", [-5, 2.5, "3"])
@pytest.mark.parametrize("call", [
    lambda r: type_iv_search(2, 3, r),
    lambda r: analyze_screener(Lattice([[12]]), (1,), max_r=r),
    lambda r: analyze_screener(Lattice([[4, 1], [1, 2]]), (1, 1), max_r=r),
], ids=["type_iv_search", "analyze_screener", "analyze_screener-no-split"])
def test_level_bound_must_be_a_nonnegative_integer(call, max_r):
    """A negative bound used to scan an empty range and hide the branch B
    solution at r1 = 2 of (2, 3), and 2.5 raised a bare TypeError.  The
    refusal comes before any work, also for an alpha with no split."""
    with pytest.raises(LatticeError, match="^max_r must be a nonnegative integer, got "):
        call(max_r)
    assert [s.r1 for s in type_iv_search(2, 3, 2)] == [2]
    assert type_iv_search(2, 3, 0) == []
    assert analyze_screener(Lattice([[4, 1], [1, 2]]), (1, 1), max_r=0)["entries"] == []


def test_rank1_central_charge_values():
    assert rank1_central_charge(2, 1) == -2
    assert rank1_central_charge(3, 2) == 0
    assert rank1_central_charge(1, 6) == -24
    assert rank1_central_charge(5, 4) == Fraction(7, 10)
    assert rank1_central_charge(7, 7) == 1


def test_analyze_screener_even_vector():
    rep = analyze_screener(A2, (1, 2))
    assert rep["alpha"] == (1, 2)
    assert rep["alpha_used"] == (1, 2)
    assert not rep["substituted"]
    assert rep["norm"] == 6
    assert rep["decompositions"] == [(1, 3), (3, 1)]
    for entry in rep["entries"]:
        assert entry["type_i"].c == -30
        assert not entry["type_ii"].feasible
        assert not entry["type_iii"].feasible
        assert entry["type_iv"] == []


def test_analyze_screener_doubles_odd_parity():
    rep = analyze_screener(Lattice([[3]]), (1,))
    assert rep["substituted"]
    assert rep["alpha"] == (1,)
    assert rep["alpha_used"] == (2,)
    assert rep["norm"] == 12
    assert rep["decompositions"] == [(1, 6), (2, 3), (3, 2), (6, 1)]
    # the doubled vector is imprimitive, so no unequal split carries a shift
    for entry in rep["entries"]:
        assert "type_i" not in entry
        assert "imprimitive" in entry["type_i_error"]


def test_analyze_screener_rejects_a_non_integer_alpha():
    """Truncating used to report alpha (1,) for (1.9,)."""
    with pytest.raises(LatticeError, match=r"alpha \(1\.9,\) has an entry that is not an integer"):
        analyze_screener(Lattice([[2]]), (1.9,))
    with pytest.raises(LatticeError, match="not an integer"):
        analyze_screener(A2, (1, Fraction(2)))
    assert analyze_screener(Lattice([[2]]), (1,))["alpha"] == (1,)


@pytest.mark.parametrize("alpha", [(1.0, 0.0), (1.5, 0), ("1", 0)])
@pytest.mark.parametrize("call", [
    lambda a: pair_decompositions(A2, a),
    lambda a: make_type_i(A2, a, 1, 1),
    lambda a: type_ii_feasible(A2, a, 1, 1),
    lambda a: type_iii_feasible(A2, a, 1, 3),
    lambda a: virasoro_shift(A2, a, 1, 1),
    lambda a: dual_pairing_unit(A2, a),
    lambda a: is_screener(A2, a),
], ids=["pair_decompositions", "make_type_i", "type_ii_feasible", "type_iii_feasible",
        "virasoro_shift", "dual_pairing_unit", "is_screener"])
def test_pair_functions_reject_a_non_integer_alpha(call, alpha):
    """Each refuses alpha, naming it, before anything else reads it: a float
    used to raise a bare TypeError or report an odd norm, type_iii_feasible
    returned a report, dual_pairing_unit truncated (1.5, 0) to (1, 0), and
    is_screener called (1.0, 0) a screener and (1.5, 0) not one."""
    with pytest.raises(LatticeError, match=re.escape(f"{alpha!r} has an entry that is not an integer")):
        call(alpha)


@pytest.mark.parametrize("alpha", [(1,), (1, 0, 5)])
@pytest.mark.parametrize("call", [
    lambda a: is_screener(A2, a),
    lambda a: dual_pairing_unit(A2, a),
    lambda a: pair_decompositions(A2, a),
    lambda a: make_type_i(A2, a, 1, 1),
    lambda a: virasoro_shift(A2, a, 1, 1),
    lambda a: type_ii_feasible(A2, a, 1, 1),
    lambda a: type_iii_feasible(A2, a, 1, 3),
    lambda a: analyze_screener(A2, a),
], ids=["is_screener", "dual_pairing_unit", "pair_decompositions", "make_type_i", "virasoro_shift",
        "type_ii_feasible", "type_iii_feasible", "analyze_screener"])
def test_pair_functions_reject_an_alpha_of_the_wrong_length(call, alpha):
    """Each refuses an alpha whose length is not the rank before anything
    else reads it: dual_pairing_unit used to drop the third entry of
    (1, 0, 5) and raise a bare IndexError on (1,), and type_iii_feasible
    reported (1, 0, 5) infeasible."""
    with pytest.raises(LatticeError, match=f"^vector has length {len(alpha)}, lattice rank is 2$"):
        call(alpha)


@pytest.mark.parametrize("x, y", [(0, 1), (1, -2), (1.0, 1), (1, Fraction(2)), ("2", 1)])
@pytest.mark.parametrize("call, names", [
    (lambda x, y: make_type_i(A2, (1, 0), x, y), "p and p_prime"),
    (lambda x, y: virasoro_shift(A2, (1, 0), x, y), "p and q"),
    (lambda x, y: type_ii_feasible(Lattice([[4]]), (1,), x, y), "p and p_prime"),
    (lambda x, y: type_iii_feasible(Lattice([[4]]), (1,), x, y), "p_prime and r"),
    (lambda x, y: type_iv_search(x, y, 10), "p and p_prime"),
    (lambda x, y: solve_weight_quadratic(x, y, 0, 0), "p and p_prime"),
    (lambda x, y: rank1_central_charge(x, y), "p and p_prime"),
], ids=["make_type_i", "virasoro_shift", "type_ii_feasible", "type_iii_feasible", "type_iv_search",
        "solve_weight_quadratic", "rank1_central_charge"])
def test_pair_functions_reject_a_split_that_is_not_a_positive_integer(call, names, x, y):
    """Each refuses a bad p, p' or r before reading it: a negative split
    used to fail inside in_dual, make isqrt raise ValueError or give a type
    III report naming only the rank, and a float raised a bare TypeError;
    rank1_central_charge(0, 1) divided by zero."""
    with pytest.raises(LatticeError, match=f"^{names} must be positive integers$"):
        call(x, y)


def test_make_type_i_accepts_exactly_the_listed_splits():
    """Over screeners and other vectors of seeded lattices and every split
    1 <= p, p' <= 12, make_type_i succeeds exactly on the splits that
    pair_decompositions lists, with alpha primitive or p = p'; elsewhere it
    raises the refusal of pair_decompositions, "does not decompose" or the
    shift vector's "imprimitive"."""
    rng = random.Random(29)
    built = 0
    for g in _pin_pool():
        lat = Lattice(g)
        others = [tuple(rng.randint(-2, 2) for _ in g) for _ in range(3)]
        for a in list(all_screeners(lat).vectors) + others:
            try:
                splits, refusal = pair_decompositions(lat, a), None
            except LatticeError as e:
                splits, refusal = [], str(e)
            g_a = math.gcd(*a)
            for p in range(1, 13):
                for q in range(1, 13):
                    if refusal is not None:
                        expected = refusal
                    elif (p, q) not in splits:
                        expected = f"({p}, {q}) does not decompose <a,a> = {lat.norm(a)}"
                    elif p != q and g_a != 1:
                        expected = f"alpha {a} is imprimitive (gcd {g_a}); the shift vector is not defined"
                    else:
                        expected = None
                    try:
                        make_type_i(lat, a, p, q)
                        got = None
                    except LatticeError as e:
                        got = str(e)
                    assert got == expected, (g, a, p, q)
                    built += got is None
    assert built > 400


def test_analyze_screener_lists_the_splits_once(monkeypatch):
    """make_type_i checks its split by the definition, so the 240 splits of
    norm 1441440 are listed once (one divisors call), not 241 times.  Each
    analyze_screener call reads G a once and solves for gbar at most once,
    however many splits and pair types read them."""
    calls = Counter()

    def counted(name, real):
        def call(*args):
            calls[name] += 1
            return real(*args)
        return call

    monkeypatch.setattr(latscreen.pairs.intlinalg, "divisors",
                        counted("divisors", latscreen.pairs.intlinalg.divisors))
    monkeypatch.setattr(latscreen.pairs, "dual_pairing_unit",
                        counted("solve", latscreen.pairs.dual_pairing_unit))
    monkeypatch.setattr(Lattice, "gram_times", counted("gram_times", Lattice.gram_times))
    monkeypatch.setattr(Lattice, "inner", counted("inner", Lattice.inner))
    lat = Lattice([[1441440]])
    rep = analyze_screener(lat, (1,), max_r=0)
    assert len(rep["entries"]) == 240
    # G a, then G n for gbar = n/q
    assert calls == {"divisors": 1, "solve": 1, "gram_times": 2}
    most = 0
    for g in ([[12, 0], [0, 2]], [[12, 0], [0, 5]], [[16, 0], [0, 14]]):
        lat = Lattice(g)
        for a in all_screeners(lat).vectors:
            calls.clear()
            most = max(most, len(analyze_screener(lat, a)["entries"]))
            assert calls["solve"] <= 1 and calls["gram_times"] == 1 + calls["solve"], (g, a, calls)
            assert calls["inner"] == 0, (g, a, calls)
    assert most >= 4


def test_analyze_screener_dual_membership_everywhere():
    # every reported decomposition really is one
    for lat in [Lattice([[12]]), A2, catalog("A", 3), Lattice([[12, 0], [0, 2]])]:
        scr = all_screeners(lat)
        for a in scr.vectors:
            rep = analyze_screener(lat, a)
            used = rep["alpha_used"]
            for p, q in rep["decompositions"]:
                assert 2 * p * q == rep["norm"]
                assert in_dual(lat, used, p)
                assert in_dual(lat, used, q)


def _rank4_pool():
    """Rank-4 orthogonal sums with feasible type II and III pairs, each in a
    seeded unimodular basis."""
    rng = random.Random(2311)
    blocks = [([[12, 0], [0, 2]], [[2, -1], [-1, 2]]), ([[12, 0], [0, 5]], [[4, 1], [1, 4]]),
              ([[16, 0], [0, 14]], [[6, 3], [3, 6]]), ([[12]], [[2]], [[20]], [[6]]),
              ([[2, -1, 0], [-1, 2, -1], [0, -1, 2]], [[30]])]
    grams = []
    for parts in blocks:
        gram = [[0] * 4 for _ in range(4)]
        ofs = 0
        for part in parts:
            for i, row in enumerate(part):
                gram[ofs + i][ofs:ofs + len(row)] = row
            ofs += len(part)
        grams.append(scrambled(gram, rng))
    return grams


def _pin_pool():
    """Seeded positive definite Grams of rank 1 to 3, after four chosen
    ones: feasible type II and III pairs and a norm with 240 splits."""
    rng = random.Random(1603)
    grams = [[[12, 0], [0, 2]], [[12, 0], [0, 5]], [[16, 0], [0, 14]], [[1441440]]]
    while len(grams) < 200:
        d = rng.randint(1, 3)
        g = [[0] * d for _ in range(d)]
        for i in range(d):
            g[i][i] = rng.randint(1, 16)
            for j in range(i + 1, d):
                g[i][j] = g[j][i] = rng.randint(-6, 6)
        if is_positive_definite(g):
            grams.append(g)
    return grams


PAIR_LAYER_SHA256 = "68df9d1a5b2c3195d04808ba3623941af59b4eeb1cfbe31f0f21dd0dfa750a10"


def test_pair_layer_is_pinned():
    """One sha256 over the repr of analyze_screener(lat, a, max_r=60) for
    every screener of the pool and of type_iv_search(p, p', 400) for
    1 <= p, p' <= 60; any byte the pair layer reports moves it."""
    h = hashlib.sha256()
    screeners = 0
    for g in _pin_pool():
        lat = Lattice(g)
        for a in all_screeners(lat).vectors:
            h.update(repr(analyze_screener(lat, a, max_r=60)).encode())
            screeners += 1
    for p in range(1, 61):
        for q in range(1, 61):
            h.update(repr(type_iv_search(p, q, 400)).encode())
    assert screeners > 100
    assert h.hexdigest() == PAIR_LAYER_SHA256
