import hashlib
import math
import random
from fractions import Fraction

import pytest

import latscreen.pairs
from latscreen import (
    Lattice,
    LatticeError,
    all_screeners,
    analyze_screener,
    catalog,
    conformal_weight,
    dual_pairing_unit,
    in_dual,
    is_positive_definite,
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


def test_type_i_weights_are_one():
    # both exponents must sit at weight exactly 1, for every screener of the pool
    for lat in [Lattice([[12]]), A2, catalog("A", 3), Lattice([[4, 0], [0, 3]])]:
        for a, nrm in zip(*[(s.vectors, s.norms) for s in [all_screeners(lat)]][0]):
            for p, q in pair_decompositions(lat, a):
                try:
                    spec = make_type_i(lat, a, p, q)
                except LatticeError:
                    continue  # imprimitive with p != q
                lo = tuple(Fraction(-v, p) for v in a)
                hi = tuple(Fraction(v, q) for v in a)
                assert conformal_weight(lat, lo, spec.gamma, 0) == 1
                assert conformal_weight(lat, hi, spec.gamma, 0) == 1


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


def test_type_iii_weights_are_one():
    lat = Lattice([[12, 0], [0, 5]])
    pair = type_iii_feasible(lat, (1, 0), 1, 5).pair
    lo = tuple(Fraction(-v, pair.p) for v in pair.alpha)
    hi = tuple(Fraction(pair.extra["m"] * v, 2 * pair.p * pair.p_prime) for v in pair.alpha)
    assert conformal_weight(lat, lo, pair.gamma, 1) == 1
    assert conformal_weight(lat, hi, pair.gamma, 0) == 1


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
], ids=["pair_decompositions", "make_type_i", "type_ii_feasible", "type_iii_feasible",
        "virasoro_shift", "dual_pairing_unit"])
def test_pair_functions_reject_a_non_integer_alpha(call, alpha):
    """Each refuses alpha before anything else reads it: a float used to
    raise a bare TypeError or report an odd norm, type_iii_feasible returned
    a report and dual_pairing_unit truncated (1.5, 0) to (1, 0)."""
    with pytest.raises(LatticeError, match="has an entry that is not an integer"):
        call(alpha)


@pytest.mark.parametrize("x, y", [(0, 1), (1, -2), (1.0, 1), (1, Fraction(2)), ("2", 1)])
@pytest.mark.parametrize("call, names", [
    (lambda x, y: make_type_i(A2, (1, 0), x, y), "p and p_prime"),
    (lambda x, y: virasoro_shift(A2, (1, 0), x, y), "p and q"),
    (lambda x, y: type_ii_feasible(Lattice([[4]]), (1,), x, y), "p and p_prime"),
    (lambda x, y: type_iii_feasible(Lattice([[4]]), (1,), x, y), "p_prime and r"),
    (lambda x, y: type_iv_search(x, y, 10), "p and p_prime"),
], ids=["make_type_i", "virasoro_shift", "type_ii_feasible", "type_iii_feasible", "type_iv_search"])
def test_pair_functions_reject_a_split_that_is_not_a_positive_integer(call, names, x, y):
    """Each refuses a bad p, p' or r before reading it: a negative split
    used to fail inside in_dual, make isqrt raise ValueError or give a type
    III report naming only the rank, and a float raised a bare TypeError."""
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
    norm 1441440 cost one pair_decompositions call, not 241."""
    calls = []
    real = latscreen.pairs.pair_decompositions

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(latscreen.pairs, "pair_decompositions", counted)
    rep = analyze_screener(Lattice([[1441440]]), (1,), max_r=0)
    assert len(rep["entries"]) == 240
    assert len(calls) == 1


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
