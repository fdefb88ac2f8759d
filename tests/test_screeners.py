import math
import random
import signal
import sys
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import oracle
import certificates
from certificates import dense_grams, hermite_certified
from latscreen import intlinalg, screeners
from latscreen import (
    Lattice,
    LatticeError,
    ScreenerSet,
    all_screeners,
    catalog,
    central_charge,
    conformal_weight,
    dual_pairing_unit,
    enumerate_exact_norm,
    is_positive_definite,
    is_screener,
    make_type_i,
    recognize_components,
    virasoro_shift,
)
from latscreen.core import canonical
from latscreen.enumeration import enumerate_up_to_norm, short_vectors
from latscreen.intlinalg import (
    determinant, divisors, hnf_rows, invariant_factors, matmul, rank, smith_normal_form,
)
from latscreen.screeners import _discriminant_admits, _mod_kernel_basis

A2 = [[2, -1], [-1, 2]]

# a small pool of lattices every property test runs over
POOL = [
    Lattice([[2]]),
    Lattice([[4]]),
    Lattice([[12]]),
    Lattice(A2),
    Lattice([[1, 0], [0, 1]]),
    Lattice([[2, 0], [0, 2]]),
    Lattice([[4, 0], [0, 3]]),
    Lattice([[2, 1], [1, 3]]),
    Lattice([[2, -1], [-1, 3]]),
    Lattice([[4, -2], [-2, 2]]),
    Lattice([[2, 0], [0, 4]]),
    catalog("A", 3),
    catalog("A", 4),
    catalog("D", 4),
    catalog("D", 5),
    catalog("E", 6),
]


def test_is_screener_basics():
    lat = Lattice(A2)
    assert is_screener(lat, (1, 0))
    assert is_screener(lat, (1, 2))
    assert not is_screener(lat, (2, 0))      # in 2L
    assert not is_screener(lat, (2, 4))      # in 2L
    assert not is_screener(lat, (0, 0))
    assert not is_screener(Lattice([[1, 0], [0, 1]]), (1, 0))  # odd norm
    # norm 4 does not divide all entries of twice the Gram image
    assert not is_screener(Lattice([[4, 1], [1, 2]]), (1, 0))


def test_screeners_of_a2():
    s = all_screeners(Lattice(A2))
    assert s.vectors == ((0, 1), (1, 0), (1, 1), (1, -1), (1, 2), (2, 1))
    assert s.norms == (2, 2, 2, 6, 6, 6)
    assert s.total_count == 12
    assert s.min_norm == 2


def test_screeners_rank2_specials():
    assert all_screeners(Lattice([[1, 0], [0, 1]])).vectors == ((1, -1), (1, 1))
    assert all_screeners(Lattice([[2, 0], [0, 2]])).vectors == (
        (0, 1), (1, 0), (1, -1), (1, 1))
    assert all_screeners(Lattice([[4, 0], [0, 3]])).vectors == ((1, 0),)
    assert all_screeners(Lattice([[2, 1], [1, 3]])).vectors == ((1, 0), (1, -2))
    assert all_screeners(Lattice([[2, -1], [-1, 3]])).vectors == ((1, 0), (1, 2))


def test_screener_counts_of_root_lattices():
    assert len(all_screeners(catalog("A", 3))) == 9
    assert len(all_screeners(catalog("A", 4))) == 10
    assert len(all_screeners(catalog("A", 5))) == 15
    assert len(all_screeners(catalog("D", 4))) == 24
    assert len(all_screeners(catalog("D", 5))) == 25
    assert len(all_screeners(catalog("D", 6))) == 36
    assert len(all_screeners(catalog("E", 6))) == 36
    assert len(all_screeners(catalog("E", 7))) == 63
    assert len(all_screeners(catalog("E", 8))) == 120


def test_nonroot_screeners():
    s = all_screeners(catalog("A", 3))
    extra = [v for v, n in zip(s.vectors, s.norms) if n > 2]
    assert extra == [(1, 0, -1), (1, 0, 1), (1, 2, 1)]

    s = all_screeners(catalog("D", 5))
    extra = [v for v, n in zip(s.vectors, s.norms) if n > 2]
    assert extra == [
        (1, -1, 0, 0, 0),
        (1, 1, 0, 0, 0),
        (1, 1, 2, 0, 0),
        (1, 1, 2, 2, 0),
        (1, 1, 2, 2, 2),
    ]

    s = all_screeners(catalog("E", 8))
    assert set(s.norms) == {2}


def test_matches_box_oracle():
    rng = random.Random(977)
    done = 0
    while done < 200:
        d = rng.randint(1, 4)
        g = [[0] * d for _ in range(d)]
        for i in range(d):
            g[i][i] = rng.randint(1, 8)
            for j in range(i + 1, d):
                g[i][j] = g[j][i] = rng.randint(-8, 8)
        if not is_positive_definite(g):
            continue
        done += 1
        s = all_screeners(Lattice(g))
        assert list(zip(s.vectors, s.norms)) == oracle.brute_screeners(g)


def test_oracle_check_draws_every_rank():
    """The rank is drawn once per case and only the entries are redrawn, so
    the indefinite Grams rejected at small entries do not leave the high
    ranks out of the run."""
    counts = certificates.oracle_check(4, 24, 7, max_entry=2)
    assert counts["mismatches"] == 0
    assert all(counts["ranks"][d] > 0 for d in (1, 2, 3, 4)), counts


def test_oracle_check_small_run():
    assert certificates.oracle_check(2, 3, 1) == {
        "cases": 3, "ranks": {1: 2, 2: 1}, "with_screener": 3, "screeners": 6, "mismatches": 0,
    }


@pytest.mark.parametrize("args, message", [
    ((0, 3, 1), "rank must be at least 1, got 0"),
    ((2, 3, 1, 0), "max_entry must be at least 1, got 0"),
    ((2, -3, 1), "cases must be at least 0, got -3"),
])
def test_oracle_check_rejects_out_of_range_arguments(args, message):
    """A negative case count would otherwise certify an empty run."""
    with pytest.raises(ValueError, match=f"^{message}$"):
        certificates.oracle_check(*args)


def test_oracle_check_fails_on_a_mismatch(monkeypatch):
    """A search that finds no screener disagrees with the box scan wherever
    a screener exists, and the certificate raises."""
    monkeypatch.setattr(certificates, "all_screeners", lambda lat: ScreenerSet(lat, (), ()))
    with pytest.raises(certificates.CertificateFailure, match="lattices disagree"):
        certificates.oracle_check(2, 3, 1)


def test_norm2_vectors_are_always_screeners():
    for lat in POOL:
        for v in enumerate_exact_norm(lat, 2).vectors:
            assert is_screener(lat, v)


def test_no_higher_multiples():
    """n*a for |n| >= 2 never stays a screener."""
    for lat in POOL:
        for v in all_screeners(lat).vectors:
            for n in (2, 3, -2):
                assert not is_screener(lat, tuple(n * t for t in v))


def test_half_norm_inner_produces_sum():
    """a + b is a screener whenever <a,b> = -<b,b>/2 and <a,a> <= <b,b>."""
    for lat in POOL:
        vs = all_screeners(lat).vectors
        signed = [v for v in vs] + [tuple(-t for t in v) for v in vs]
        for a in signed:
            for b in signed:
                if lat.inner(a, b) == -lat.norm(b) // 2 and lat.norm(a) <= lat.norm(b):
                    s = tuple(x + y for x, y in zip(a, b))
                    if any(s):
                        assert is_screener(lat, s), (lat.gram, a, b)


def test_orthogonal_sum_criterion():
    """For orthogonal screeners, a +- b stays a screener exactly when norms
    agree, the doubled Gram image is divisible, and the sum leaves 2L."""
    from latscreen import in_dual, in_scaled_lattice

    for lat in POOL:
        vs = all_screeners(lat).vectors
        for a in vs:
            for b in vs:
                if a == b or lat.inner(a, b) != 0:
                    continue
                for sign in (1, -1):
                    s = tuple(x + sign * y for x, y in zip(a, b))
                    expected = (
                        lat.norm(a) == lat.norm(b)
                        and in_dual(lat, s, lat.norm(a))
                        and not in_scaled_lattice(s, 2)
                    )
                    assert is_screener(lat, s) == expected


def test_angle_trichotomy():
    """Distinct screeners meet at one of the allowed angles: orthogonal, the
    half-norm slope of the shorter against the longer, or equal up to sign."""
    for lat in POOL:
        vs = all_screeners(lat).vectors
        for i, a in enumerate(vs):
            for b in vs[i + 1:]:
                t = lat.inner(a, b)
                na, nb = lat.norm(a), lat.norm(b)
                hi = max(na, nb)
                assert 2 * abs(t) in (0, hi, 2 * hi), (lat.gram, a, b)


def test_half_norm_lcm_divides_determinant():
    for lat in POOL:
        s = all_screeners(lat)
        acc = 1
        for n in s.norms:
            acc = acc * (n // 2) // math.gcd(acc, n // 2)
        if s.vectors:
            assert lat.determinant % acc == 0


def test_screener_predicate_via_dual_on_indecomposables():
    """On indecomposable lattices of rank >= 2 the 2L exclusion is automatic:
    even norm plus dual divisibility already makes a screener."""
    from latscreen import in_dual

    for lat in [catalog("A", 3), catalog("A", 4), catalog("D", 4),
                catalog("D", 5), catalog("E", 6)]:
        from latscreen import enumerate_up_to_norm
        res = enumerate_up_to_norm(lat, 2 * lat.determinant)
        via_dual = tuple(
            v for v, n in zip(res.vectors, res.norms)
            if n % 2 == 0 and in_dual(lat, tuple(2 * t for t in v), n)
        )
        assert via_dual == all_screeners(lat).vectors


def test_rescaling_bijection():
    for name, n in (("A", 2), ("A", 3), ("D", 4)):
        base = catalog(name, n)
        s0 = all_screeners(base)
        for p in (2, 3):
            scaled = catalog(name, n, scale=p)
            sp = all_screeners(scaled)
            assert sp.vectors == s0.vectors
            assert sp.norms == tuple(p * t for t in s0.norms)
            assert sp.total_count == s0.total_count


def _screener_lattice(lat):
    """Hermite basis of the lattice the screeners generate; the simple
    roots are a Z-basis of it."""
    return hnf_rows(recognize_components(lat).simple_roots)


def test_screener_span():
    basis = _screener_lattice(Lattice(A2))
    assert basis == [[1, 0], [0, 1]]
    assert abs(determinant(basis)) == 1

    lat = Lattice([[4, 0], [0, 3]])
    basis = _screener_lattice(lat)
    assert len(basis) == 1
    assert lat.row_gram(basis) == [[4]]

    # rank-2 type 2a: the span has index 2 and rescaled square Gram
    lat = Lattice([[2, -1], [-1, 3]])
    basis = _screener_lattice(lat)
    assert basis == [[1, 0], [0, 2]]
    assert abs(determinant(basis)) == 2
    assert Lattice(lat.row_gram(basis)).determinant == 20
    # the basis (a1, a1 + 2 a2) spans the same sublattice diagonally
    assert hnf_rows(basis + [[1, 2]]) == basis
    assert Lattice([[2, 0], [0, 10]]).determinant == 20


def test_screener_splitting():
    """The index of the simple roots in their saturation is the product of
    their invariant factors."""
    simple = recognize_components(Lattice(A2)).simple_roots
    assert len(simple) == 2
    assert invariant_factors(simple) == [1, 1]

    lat = Lattice([[4, 0], [0, 3]])
    simple = recognize_components(lat).simple_roots
    assert simple == ((1, 0),)
    assert invariant_factors(simple) == [1]
    assert lat.row_gram(simple) == [[4]]


def test_splitting_chain():
    """Every invariant factor of the simple roots R is 1 or 2, that is
    2 sat(R) lies in R.  With C a complement of sat(R) in L this is the
    chain 2L in R + C in L.  At full rank the Gram determinant of R is its
    index squared times det L, and the index divides 2^d.  The simple
    roots are linearly independent and span the screeners over Q."""
    twos = 0
    for lat in POOL:
        s = all_screeners(lat)
        simple = [list(r) for r in recognize_components(lat, s).simple_roots]
        assert rank(simple) == len(simple) == rank(s.vectors)
        factors = invariant_factors(simple)
        assert len(factors) == len(simple)
        assert set(factors) <= {1, 2}, (lat, factors)
        twos += 2 in factors
        if len(simple) == lat.rank:
            index = math.prod(factors)
            assert abs(determinant(simple)) == index
            assert Lattice(lat.row_gram(simple)).determinant == index ** 2 * lat.determinant
    assert twos > 0


def test_dual_pairing_unit():
    lat = Lattice(A2)
    g = dual_pairing_unit(lat, (1, 0))
    assert sum(gi * ti for gi, ti in zip(lat.gram_times((1, 0)), g)) == 1
    with pytest.raises(LatticeError):
        dual_pairing_unit(lat, (2, 0))


def test_virasoro_shift_rank1():
    g = virasoro_shift(Lattice([[4]]), (1,), 2, 1)
    assert g == (Fraction(1, 4),)
    lat = Lattice([[12]])
    g = virasoro_shift(lat, (1,), 3, 2)
    assert g == (Fraction(1, 12),)
    # weight-1 exponents on both sides
    assert conformal_weight(lat, (Fraction(-1, 3),), g, 0) == 1
    assert conformal_weight(lat, (Fraction(1, 2),), g, 0) == 1
    assert virasoro_shift(Lattice([[2]]), (1,), 1, 1) == (Fraction(0),)


def test_virasoro_shift_errors():
    with pytest.raises(LatticeError):
        virasoro_shift(Lattice([[4]]), (1,), 3, 1)   # norm mismatch
    with pytest.raises(LatticeError):
        virasoro_shift(Lattice([[4, 1], [1, 2]]), (1, 0), 2, 1)  # not a screener


def test_virasoro_shift_is_the_type_i_gamma():
    """For every screener and every split <a,a> = 2pq, the shift vector is
    the type I gamma and pairs to p - q with a.  It always exists: a
    screener x = k y, y in L, has 2 <x,y> / <x,x> = 2/k integral and is not
    in 2L, so k = 1."""
    checked = 0
    for lat in POOL:
        s = all_screeners(lat)
        for a, nrm in zip(s.vectors, s.norms):
            for p in range(1, nrm // 2 + 1):
                q, rem = divmod(nrm // 2, p)
                if rem:
                    continue
                gamma = virasoro_shift(lat, a, p, q)
                assert gamma == make_type_i(lat, a, p, q).gamma
                assert lat.dual_inner(gamma, a) == p - q
                checked += 1
    assert checked > 50


def test_conformal_weight_refuses_a_float_level():
    """A float level gave the float 1.5, not an exact weight."""
    lat = Lattice([[2]])
    with pytest.raises(LatticeError, match="level is 0.5"):
        conformal_weight(lat, (1,), (0,), 0.5)
    assert conformal_weight(lat, (1,), (0,), 1) == 2


def test_central_charge():
    assert central_charge((Fraction(0),), Lattice([[2]])) == 1
    assert central_charge((Fraction(1, 4),), Lattice([[4]])) == -2
    assert central_charge((Fraction(1, 12),), Lattice([[12]])) == 0
    lat = Lattice(A2)
    assert central_charge((Fraction(0), Fraction(0)), lat) == 2
    assert central_charge((0, 0), lat) == 2


def _random_gram(rng, max_rank):
    while True:
        d = rng.randint(1, max_rank)
        g = [[0] * d for _ in range(d)]
        for i in range(d):
            g[i][i] = rng.randint(1, 6)
            for j in range(i + 1, d):
                g[i][j] = g[j][i] = rng.randint(-3, 3)
        if is_positive_definite(g):
            return g


def _orthogonal_sum(g1, g2):
    d1, d2 = len(g1), len(g2)
    return [list(r) + [0] * d2 for r in g1] + [[0] * d1 + list(r) for r in g2]


def _cut_pool():
    """300 seeded Grams: random of rank <= 5, scaled copies of random Grams
    and orthogonal sums of two random Grams."""
    rng = random.Random(3301)
    pool = [Lattice(_random_gram(rng, 5)) for _ in range(150)]
    for _ in range(75):
        s = rng.randint(2, 4)
        pool.append(Lattice([[s * v for v in r] for r in _random_gram(rng, 3)]))
    for _ in range(75):
        g1 = _random_gram(rng, 3)
        pool.append(Lattice(_orthogonal_sum(g1, _random_gram(rng, 5 - len(g1)))))
    return pool


CUT_POOL = _cut_pool()


def _mod_kernel_columns(lat, t):
    """Basis columns of M_t = {x : G x = 0 mod t} straight from the Smith
    form U G V = D: column i of V scaled by t / gcd(d_i, t)."""
    d = lat.rank
    if t == 1:
        return [[1 if i == j else 0 for j in range(d)] for i in range(d)]
    diag, v = smith_normal_form([list(r) for r in lat.gram])
    return [[t // math.gcd(diag[i][i], t) * v[r][i] for r in range(d)] for i in range(d)]


def _shell(lat, t):
    """The norm-2t vectors of M_t up to sign, in the lattice's coordinates
    with first nonzero coordinate positive."""
    cols = _mod_kernel_columns(lat, t)
    sub = Lattice([[lat.inner(a, b) for b in cols] for a in cols])
    out = []
    for z in enumerate_up_to_norm(sub, 2 * t).vectors:
        x = tuple(sum(zi * col[r] for zi, col in zip(z, cols)) for r in range(lat.rank))
        if next(v for v in x if v != 0) < 0:
            x = tuple(-v for v in x)
        if lat.norm(x) == 2 * t:
            out.append(x)
    return out


def _unpruned_screeners(lat):
    """Every screener by walking every divisor shell of det G."""
    pairs = sorted((2 * t, x) for t in divisors(lat.determinant, lat.determinant)
                   for x in _shell(lat, t) if is_screener(lat, x))
    return tuple(x for _, x in pairs), tuple(n for n, _ in pairs)


def _minimum(lat):
    """The least norm of a nonzero vector, by a walk up to the least
    diagonal entry rather than by the walk of all_screeners."""
    return enumerate_up_to_norm(lat, min(lat.gram[i][i] for i in range(lat.rank))).norms[0]


def _gram_schmidt_cap(lat):
    """max_i floor(2 D_{i+1} / D_i) over the minors D_k of the LLL basis:
    2 max_i |b_i*|^2, floored, the dual-side cut of all_screeners."""
    _, minors, _ = lat.lll_reduce()
    return max(2 * minors[i + 1] // minors[i] for i in range(lat.rank))


def test_screener_shells_divide_exponent_and_respect_dual_minimum():
    """A screener of norm 2t has t | d_n, t <= 2 d_n / h_min, t at most the
    Gram-Schmidt cap 2 max_i |b_i*|^2 and 2t at least the minimum of the
    lattice."""
    checked = 0
    for lat in CUT_POOL:
        dn, hmin = oracle.exponent_and_dual_minimum(lat)
        lmin = _minimum(lat)
        cap = _gram_schmidt_cap(lat)
        assert invariant_factors([list(r) for r in lat.gram])[-1] == dn
        for nrm in all_screeners(lat).norms:
            t = nrm // 2
            assert dn % t == 0, (lat.gram, t, dn)
            assert t * hmin <= 2 * dn, (lat.gram, t, dn, hmin)
            assert t <= cap, (lat.gram, t, cap)
            assert 2 * t >= lmin, (lat.gram, t, lmin)
            checked += 1
    assert checked > 300


def test_gram_schmidt_cap_is_never_below_the_exact_dual_cap(monkeypatch):
    """The limit all_screeners hands to divisors is max_i floor(2 D_{i+1} / D_i)
    from one LLL of L, and it is at least 2 d_n / h_min, with h_min the
    minimum of H = d_n G^-1 from the exact Fraction inverse: every nonzero dual
    vector has norm at least 1 / max_i |b_i*|^2 (transference).  The cap is
    strictly above the exact one on some lattice of the pool, and on none
    below it."""
    limits = []

    def recording_divisors(n, limit):
        limits.append(limit)
        return divisors(n, limit)

    monkeypatch.setattr(intlinalg, "divisors", recording_divisors)
    looser = 0
    for lat in CUT_POOL + _skewed_dense_grams(4):
        dn, hmin = oracle.exponent_and_dual_minimum(lat)
        all_screeners(lat)
        cap = limits.pop()
        assert cap == _gram_schmidt_cap(lat) >= 2 * dn // hmin, (lat.gram, cap, dn, hmin)
        looser += cap > 2 * dn // hmin
    assert looser > 0


@st.composite
def _dense_grams(draw, min_rank=1, max_rank=6):
    """A A^T + D of rank min_rank to max_rank, entries of A in [-2, 2] and D
    in [1, 4], with the diagonal made even or left of any parity, then
    scaled by 1-3."""
    d = draw(st.integers(min_rank, max_rank))
    a = [[draw(st.integers(-2, 2)) for _ in range(d)] for _ in range(d)]
    gram = matmul(a, list(zip(*a)))
    even = draw(st.booleans())
    for i in range(d):
        gram[i][i] += draw(st.integers(1, 4))
        if even and gram[i][i] % 2:
            gram[i][i] += 1
    s = draw(st.integers(1, 3))
    return Lattice([[s * v for v in row] for row in gram])


@settings(derandomize=True, database=None, deadline=None, max_examples=200,
          suppress_health_check=[HealthCheck.too_slow])
@given(_dense_grams())
def test_gram_schmidt_cap_bounds_the_dual_minimum(lat):
    """For even, odd and scaled Grams of rank 1-6, 2 max_i |b_i*|^2 on the
    LLL basis is at least 2 / lambda_1(L*), both floored."""
    dn, hmin = oracle.exponent_and_dual_minimum(lat)
    assert _gram_schmidt_cap(lat) >= 2 * dn // hmin, (lat.gram, dn, hmin)


@settings(derandomize=True, database=None, deadline=None, max_examples=200,
          suppress_health_check=[HealthCheck.too_slow])
@given(_dense_grams(1, 5), st.data())
def test_short_vectors_match_the_box_scan(lat, data):
    """For even, odd and scaled Grams of rank 1-5 and a bound up to twice
    the least diagonal entry, short_vectors on the state of lll_reduce
    gives, sorted, the canonical vectors and norms of the box scan."""
    bound = data.draw(st.integers(0, 2 * min(lat.gram[i][i] for i in range(lat.rank))))
    walked = short_vectors(*lat.lll_reduce(), bound)
    assert sorted(walked) == sorted(oracle.box_vectors(lat.gram, bound)), (lat.gram, bound)


@settings(derandomize=True, database=None, deadline=None, max_examples=150,
          suppress_health_check=[HealthCheck.too_slow])
@given(_dense_grams(5, 6))
def test_all_screeners_matches_the_walked_oracle_at_rank_5_6(lat):
    """For even, odd and scaled Grams of rank 5-6, all_screeners equals the
    oracle's plain walk of L up to norm 4 d_n / h_min, filtered by the
    direct screener test, with no Smith form, mod-t kernel or shell cut."""
    expected, _ = oracle.walked_screeners(lat)
    s = all_screeners(lat)
    assert list(zip(s.vectors, s.norms)) == expected, lat.gram


def test_all_screeners_reduces_the_lattice_once(monkeypatch):
    """all_screeners runs intlinalg.lll_reduce once on L, for both of its
    bounds, and once per shell walked through its mod-t kernel, with no dual
    lattice in between; it walks the state of L once, with short_vectors;
    a shell certified empty by its Hermite basis is not reduced."""
    lll_calls = []
    walks = []
    state_walks = []
    reduce, walk, short = intlinalg.lll_reduce, screeners.enumerate_up_to_norm, screeners.short_vectors

    def counting_reduce(minors, lam):
        lll_calls.append(len(lam))
        return reduce(minors, lam)

    def counting_walk(lat, bound):
        walks.append(bound)
        return walk(lat, bound)

    def counting_short(u, minors, lam, bound):
        state_walks.append(bound)
        return short(u, minors, lam, bound)

    monkeypatch.setattr(intlinalg, "lll_reduce", counting_reduce)
    monkeypatch.setattr(screeners, "enumerate_up_to_norm", counting_walk)
    monkeypatch.setattr(screeners, "short_vectors", counting_short)
    walked = off_walk = 0
    lattices = [Lattice(A2), catalog("D", 4), catalog("E", 8), catalog("A", 3, 2)] + CUT_POOL
    for lat in lattices + [Lattice(g) for g in dense_grams(12)]:
        lll_calls.clear()
        walks.clear()
        state_walks.clear()
        s = all_screeners(lat)
        assert len(lll_calls) == 1 + len(walks), (lat.gram, len(lll_calls), len(walks))
        assert len(state_walks) == 1, (lat.gram, state_walks)
        walked += len(walks)
        # shells that hold a screener and were served by the walk of L alone
        off_walk += len(set(s.norms) - set(walks))
    assert walked > 44, walked  # 86
    assert off_walk > 70, off_walk  # 284; the shells with t | d_1 alone give 182


def test_certified_shells_pay_no_lll(monkeypatch):
    """A shell whose Hermite basis certifies it empty is built but neither
    reduced nor walked: on dense Grams of rank 5-8 all_screeners builds
    more shells (`_mod_kernel_basis` calls) than it walks, and never walks
    more than it builds."""
    built, walks = [], []
    basis_of, walk = screeners._mod_kernel_basis, screeners.enumerate_up_to_norm

    def counting_basis(v, invariants, t):
        built.append(t)
        return basis_of(v, invariants, t)

    def counting_walk(lat, bound):
        walks.append(bound)
        return walk(lat, bound)

    monkeypatch.setattr(screeners, "_mod_kernel_basis", counting_basis)
    monkeypatch.setattr(screeners, "enumerate_up_to_norm", counting_walk)
    for gram in dense_grams(12):
        before = len(built), len(walks)
        all_screeners(Lattice(gram))
        assert len(walks) - before[1] <= len(built) - before[0], gram
    assert len(walks) < len(built), (len(walks), len(built))


def _in_place_pool():
    """CUT_POOL and the catalog lattices A1-A10, D4-D10 and E6-E8 at
    scales 1-4."""
    kinds = [("A", n) for n in range(1, 11)] + [("D", n) for n in range(4, 11)] + [("E", n) for n in (6, 7, 8)]
    return CUT_POOL + [catalog(kind, n, scale) for kind, n in kinds for scale in (1, 2, 3, 4)]


def test_mod_kernel_is_the_lattice_exactly_when_t_divides_d1():
    """d_1 is the gcd of G's entries, so G x = 0 mod t for every x exactly
    when t | d_1: then `_mod_kernel_basis` is the identity, and for every
    other divisor t of d_n some G e_j is nonzero mod t and the basis spans
    a proper sublattice."""
    checked = 0
    for lat in _in_place_pool():
        gram = [list(r) for r in lat.gram]
        diag, v = smith_normal_form(gram)
        invariants = [diag[i][i] for i in range(lat.rank)]
        d1 = invariants[0]
        assert d1 == math.gcd(*(x for row in gram for x in row)), gram
        for t in divisors(invariants[-1], invariants[-1]):
            basis = _mod_kernel_basis(v, invariants, t)
            if d1 % t == 0:
                assert basis == intlinalg.identity(lat.rank), (gram, t)
            else:
                assert any(x % t for row in gram for x in row), (gram, t)
                assert abs(determinant(basis)) > 1, (gram, t)
                checked += 1
    assert checked > 900


def test_shells_whose_mod_kernel_is_l_are_walked_on_l(monkeypatch):
    """all_screeners reduces L once and walks that state once, with
    short_vectors on the very rows the reduction returned; the shells with
    t | d_1, where M_t = L, are read off that walk.  enumerate_up_to_norm
    only walks a Lattice rebuilt from the Hermite basis of M_t, never L
    itself, and only for a t that does not divide d_1."""
    reductions, state_walks, shell_walks = [], [], []
    reduce, short, walk = Lattice.lll_reduce, screeners.short_vectors, screeners.enumerate_up_to_norm

    def recording_reduce(sub):
        out = reduce(sub)
        reductions.append((sub, out[0]))
        return out

    def recording_short(u, minors, lam, bound):
        state_walks.append(u)
        return short(u, minors, lam, bound)

    def recording_walk(sub, bound):
        shell_walks.append((sub, bound // 2))
        return walk(sub, bound)

    monkeypatch.setattr(Lattice, "lll_reduce", recording_reduce)
    monkeypatch.setattr(screeners, "short_vectors", recording_short)
    monkeypatch.setattr(screeners, "enumerate_up_to_norm", recording_walk)
    in_place = []
    near_checked = 0
    for lat in _in_place_pool():
        reductions.clear()
        state_walks.clear()
        shell_walks.clear()
        s = all_screeners(lat)
        d1 = invariant_factors([list(r) for r in lat.gram])[0]
        for sub, t in shell_walks:
            assert sub is not lat and d1 % t, (lat.gram, t)
        of_lat = [u for sub, u in reductions if sub is lat]
        assert len(of_lat) == 1 and len(state_walks) == 1, (lat.gram, len(of_lat), len(state_walks))
        assert state_walks[0] is of_lat[0], lat.gram
        in_place += [t for t in {n // 2 for n in s.norms} if d1 % t == 0]
        # a near shell is read off the walk of L, never walked through M_t
        near = _near_shells(lat)
        assert not near & {t for _, t in shell_walks}, (lat.gram, near)
        near_checked += len(near)
    # shells with t | d_1 that hold a screener, 256 of them, 150 with t > 1
    assert len(in_place) > 250
    assert sum(t > 1 for t in in_place) >= 150
    assert near_checked >= 140, near_checked  # 262


def test_walk_of_l_never_meets_2l_at_a_shell_it_serves():
    """A vector of norm 2t with t | d_1 is never in 2L: t <= d_1 <=
    lambda_1(L), and a nonzero 2y has norm 4<y,y> >= 4 lambda_1(L) > 2t.
    So all_screeners keeps every vector of the walk of L at such a norm
    with no x not in 2L test.  Checked on the walk of L up to
    max(b - 1, 2 d_1), which covers every admitted t | d_1, over the
    catalog at scales 1-4, CUT_POOL and dense_grams(12)."""
    checked = 0
    for lat in _in_place_pool() + [Lattice(g) for g in dense_grams(12)]:
        d1 = invariant_factors([list(r) for r in lat.gram])[0]
        u, minors, lam = lat.lll_reduce()
        b = min(map(lat.norm, u))
        for x, nrm in short_vectors(u, minors, lam, max(b - 1, 2 * d1)):
            if nrm % 2 == 0 and d1 % (nrm // 2) == 0:
                assert any(v % 2 for v in x), (lat.gram, x)
                checked += 1
    assert checked > 3000, checked  # 3317


def _near_shells(lat, every=False):
    """The near shells of all_screeners: the admitted t up to its
    Gram-Schmidt cap that do not divide d_1 and whose walk of L up to 2t
    `_walk_is_small` proves small; with every set, also each such t <= b,
    b the least norm of the LLL rows of L, near or not."""
    invariants, _ = _smith_data(lat)
    u, minors, _ = lat.lll_reduce()
    b = min(map(lat.norm, u))
    return {t for t in divisors(invariants[-1], _gram_schmidt_cap(lat))
            if invariants[0] % t and _admits(lat, t)
            and ((every and t <= b) or screeners._walk_is_small(minors, 2 * t))}


def test_near_shells_match_their_mod_kernel_walk():
    """For every admitted t not dividing d_1 that is near or at most b, the
    vectors of norm 2t that the walk of L up to 2t finds with G x = 0 mod t
    and some odd coordinate are the screeners the M_t path gives for that
    t: a walk of the Lattice of the Hermite basis of M_t, mapped by that
    basis, with canonical sign and some odd coordinate.  They are also all_screeners'
    output of norm 2t, over CUT_POOL and the catalog at scales 1-4, so a
    near shell may go either way whatever _NEAR_WALK is."""
    near_hits = hits = 0
    for lat in _in_place_pool():
        diag, v = smith_normal_form([list(r) for r in lat.gram])
        invariants = [diag[i][i] for i in range(lat.rank)]
        u, minors, lam = lat.lll_reduce()
        s = all_screeners(lat)
        near = _near_shells(lat)
        for t in sorted(_near_shells(lat, every=True)):
            walked = sorted(x for x, nrm in short_vectors(u, minors, lam, 2 * t)
                            if nrm == 2 * t and any(c % 2 for c in x)
                            and all(c % t == 0 for c in lat.gram_times(x)))
            basis = _mod_kernel_basis(v, invariants, t)
            found = enumerate_up_to_norm(Lattice(lat.row_gram(basis)), 2 * t)
            shell = [z for z, nrm in zip(found.vectors, found.norms) if nrm == 2 * t]
            through = sorted(x for x in map(canonical, matmul(shell, basis)) if any(c % 2 for c in x))
            assert walked == through, (lat.gram, t)
            assert walked == [x for x, nrm in zip(s.vectors, s.norms) if nrm == 2 * t], (lat.gram, t)
            hits += bool(walked)
            near_hits += bool(walked) and t in near
    # 137 shells that are near or have t <= b hold a screener, 107 of them
    # near at _NEAR_WALK = 128
    assert hits >= 70 and near_hits >= 50, (hits, near_hits)


def test_output_does_not_depend_on_the_near_walk_cap(monkeypatch):
    """_NEAR_WALK only picks which shells the walk of L serves: at 0 no
    walk is proven that small and every t not dividing d_1 goes through
    M_t, at 4096 the walk of L serves more of them than at the default,
    and the ScreenerSets are those at the default over the catalog at
    scales 1-4, CUT_POOL and dense_grams(12).  The upper extreme is
    finite, as an always-True rule would walk L up to twice the
    Gram-Schmidt cap."""
    walks = []
    walk = screeners.enumerate_up_to_norm

    def counting_walk(sub, bound):
        walks.append(bound)
        return walk(sub, bound)

    monkeypatch.setattr(screeners, "enumerate_up_to_norm", counting_walk)
    lattices = _in_place_pool() + [Lattice(g) for g in dense_grams(12)]
    default = [all_screeners(lat) for lat in lattices]
    through_m_t = {"default": len(walks)}
    for cap in (0, 4096):
        monkeypatch.setattr(screeners, "_NEAR_WALK", cap)
        walks.clear()
        assert [all_screeners(lat) for lat in lattices] == default, cap
        through_m_t[cap] = len(walks)
    assert through_m_t[0] > through_m_t["default"] > through_m_t[4096], through_m_t


def _level_count(minors, bound):
    """The product over the levels i of isqrt(4 bound D_i // D_{i+1}) + 1,
    the count `_walk_is_small` compares with _NEAR_WALK."""
    return math.prod(math.isqrt(4 * bound * minors[i] // minors[i + 1]) + 1 for i in range(len(minors) - 1))


# the code object of the level function nested in short_vectors
_LEVEL = next(c for c in short_vectors.__code__.co_consts if getattr(c, "co_name", None) == "level")


def _walk_sizes(state, bound):
    """(leaves, level calls) of short_vectors up to bound on that state,
    the calls counted by a profile hook on the nested level function."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        calls += event == "call" and frame.f_code is _LEVEL

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        leaves = len(short_vectors(*state, bound))
    finally:
        sys.setprofile(previous)
    return leaves, calls


def _check_level_count(lat, bounds):
    """At each bound whose count is at most 4096, so that the walk stays
    small, short_vectors emits at most the count and calls level at most d
    times the count, and `_walk_is_small` is the count against _NEAR_WALK;
    returns how many bounds were checked."""
    state = lat.lll_reduce()
    minors = state[1]
    checked = 0
    for bound in bounds:
        count = _level_count(minors, bound)
        assert screeners._walk_is_small(minors, bound) == (count <= screeners._NEAR_WALK), (lat.gram, bound)
        if count > 4096:
            continue
        leaves, calls = _walk_sizes(state, bound)
        assert leaves <= count and calls <= lat.rank * count, (lat.gram, bound, leaves, calls, count)
        checked += 1
    return checked


def test_level_counts_bound_the_walk():
    """The count of `_walk_is_small` bounds the walk it sizes: over the
    catalog at scales 1-4, CUT_POOL and dense_grams(12), at bounds from 0
    to 8 b, b the least norm of the LLL rows, and at 2t for each divisor t
    of det up to the Gram-Schmidt cap."""
    checked = 0
    for lat in _in_place_pool() + [Lattice(g) for g in dense_grams(12)]:
        b = min(map(lat.norm, lat.lll_reduce()[0]))
        shells = [2 * t for t in divisors(lat.determinant, _gram_schmidt_cap(lat))]
        checked += _check_level_count(lat, sorted({1, b - 1, b, 2 * b, 4 * b, 8 * b, *shells}))
    assert checked > 2500, checked  # 2641


@settings(derandomize=True, database=None, deadline=None, max_examples=150,
          suppress_health_check=[HealthCheck.too_slow])
@given(_dense_grams(1, 6), st.data())
def test_level_counts_bound_the_walk_of_drawn_grams(lat, data):
    """The same bound for even, odd and scaled Grams of rank 1-6 at three
    drawn bounds up to four times the least diagonal entry."""
    top = 4 * min(lat.gram[i][i] for i in range(lat.rank))
    _check_level_count(lat, [data.draw(st.integers(0, top)) for _ in range(3)])


def test_skewed_lattice_walks_only_what_the_count_allows():
    """diag(1, 1, 1, 1, 10^12) has d_1 = 1 and the candidates t | 10^12 up
    to the cap 2 10^12.  The level counts make a t near only while the
    four unit levels stay small, so the walk of L stops far below the norm
    2 10^12 a rule blind to the skew would reach, and the 13 screeners,
    e_i +- e_j of norm 2 and e_5 of norm 10^12, come back well within a
    second."""
    gram = _diag(1, 1, 1, 1, 10 ** 12)
    start = time.perf_counter()
    s = all_screeners(Lattice(gram))
    elapsed = time.perf_counter() - start
    assert len(s) == 13 and s.norms == (2,) * 12 + (10 ** 12,), s.norms
    assert elapsed < 1, elapsed


def test_near_shell_drops_a_walked_vector_of_2l(monkeypatch):
    """[[2, 0], [0, 8]] has d_1 = 2 and b = 2.  t = 4 does not divide d_1,
    and its walk of L is near: the level counts at B = 8 are 5 and 3, 15 in
    all.  That walk holds (2, 0) of norm 8 with G x = (4, 0) = 0 mod 4, a
    vector of 2L that the near filter must drop; (0, 1) of norm 8 is the
    one screener of that norm, and no shell goes through M_t."""
    lat = Lattice([[2, 0], [0, 8]])
    u, minors, lam = lat.lll_reduce()
    assert _level_count(minors, 8) == 15 and screeners._walk_is_small(minors, 8)
    assert ((2, 0), 8) in short_vectors(u, minors, lam, 8)
    walks = []
    walk = screeners.enumerate_up_to_norm
    monkeypatch.setattr(screeners, "enumerate_up_to_norm", lambda sub, bound: walks.append(bound) or walk(sub, bound))
    s = all_screeners(lat)
    assert (s.vectors, s.norms) == (((1, 0), (0, 1)), (2, 8))
    assert walks == []


@pytest.mark.parametrize("lat, through_m_t", [
    (catalog("A", 3, 2), []),
    (Lattice([[4, 1], [1, 4]]), []),
    (catalog("D", 4, 2), [(8, 12)]),
], ids=["A3-scale-2", "4-1-1-4", "D4-scale-2"])
def test_console_script_shell_paths(monkeypatch, lat, through_m_t):
    """The paths the console-script checks of CI name: every screener of
    A3 at scale 2 and of [[4, 1], [1, 4]] comes off the one walk of L, and
    D4 at scale 2 walks one shell through M_4 (t = 4, norm 8), whose 12
    vectors are its 12 screeners of norm 8.  Each entry is (bound, vectors
    of that norm) of one enumerate_up_to_norm call."""
    walks = []
    walk = screeners.enumerate_up_to_norm

    def counting_walk(sub, bound):
        found = walk(sub, bound)
        walks.append((bound, found.norms.count(bound)))
        return found

    monkeypatch.setattr(screeners, "enumerate_up_to_norm", counting_walk)
    s = all_screeners(lat)
    assert walks == through_m_t, walks
    for bound, n in through_m_t:
        assert s.norms.count(bound) == n


def _certified_shells(lat):
    """(certified, shells): over every divisor t of d_n, the number of
    mod-t kernels whose Hermite basis certifies them empty and the number
    of all of them.  Each certified one is walked up to norm 2t here, and
    the walk must find nothing."""
    diag, v = smith_normal_form([list(r) for r in lat.gram])
    invariants = [diag[i][i] for i in range(lat.rank)]
    certified = shells = 0
    for t in divisors(invariants[-1], invariants[-1]):
        sub = Lattice(lat.row_gram(_mod_kernel_basis(v, invariants, t)))
        shells += 1
        if hermite_certified(sub, t):
            certified += 1
            assert enumerate_up_to_norm(sub, 2 * t).vectors == (), (lat.gram, t)
    return certified, shells


def test_hermite_certificate_is_sound_on_every_divisor_shell():
    """On every divisor shell of d_n, not only the walked ones: when the
    Hermite basis of M_t has every D_{k+1} > 2t D_k, M_t holds no nonzero
    vector of norm at most 2t, so skipping its walk loses nothing."""
    certified = shells = 0
    for lat in CUT_POOL + _skewed_dense_grams(4):
        c, n = _certified_shells(lat)
        certified += c
        shells += n
    assert certified >= 550, (certified, shells)


@settings(derandomize=True, database=None, deadline=None, max_examples=150,
          suppress_health_check=[HealthCheck.too_slow])
@given(_dense_grams())
def test_hermite_certificate_never_clears_a_nonempty_shell(lat):
    """For even, odd and scaled Grams of rank 1-6, a divisor shell that the
    Hermite basis certifies empty has no vector of norm at most 2t, and the
    minors that the certificate reads are the leading principal minors."""
    leading = [oracle.det_fraction([r[:k] for r in lat.gram[:k]]) for k in range(1, lat.rank + 1)]
    assert list(lat.minors) == [1] + leading, lat.gram
    _certified_shells(lat)


def _valuation(n, p):
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return k


def _prime_factors(n):
    return [p for p in range(2, n + 1) if n % p == 0 and all(p % q for q in range(2, p))]


def _smith_data(lat):
    """(invariants d_1 | ... | d_n, a = <V_n, V_n> / d_n) of U G V = D."""
    diag, v = smith_normal_form([list(r) for r in lat.gram])
    invariants = [diag[i][i] for i in range(lat.rank)]
    return invariants, lat.norm([row[-1] for row in v]) // invariants[-1]


def _cut_rule(lat, t):
    """The first rule of the shell cut that rejects t, or None: the p-adic
    valuations of the Smith invariants, prime by prime, and the square
    classes mod p by listing the squares."""
    invariants, a = _smith_data(lat)
    for p in _prime_factors(t):
        k = _valuation(t, p)
        vals = [_valuation(di, p) for di in invariants]
        if p == 2:
            if (lat.is_even or k >= 2) and not any(e >= 1 and k - 1 <= e <= k + 1 for e in vals):
                return "2-adic window"
        elif k not in vals:
            return "odd valuation"
        elif sum(e > 0 for e in vals) == 1:
            r = 2 * a * (invariants[-1] // p ** k) * (t // p ** k) % p
            if r not in {x * x % p for x in range(1, p)}:
                return "legendre"
    return None


def _admits(lat, t):
    invariants, a = _smith_data(lat)
    return _discriminant_admits(t, _prime_factors(t), invariants, a, lat.is_even)


def test_all_screeners_matches_unpruned_walk():
    """The output equals the walk of every divisor shell of det G, the
    lattice-minimum cut skips some t under the dual bound, and every rule of
    the discriminant-form cut rejects some t of the pool."""
    fired = dict.fromkeys(("below minimum", "odd valuation", "legendre", "2-adic window"), 0)
    for lat in CUT_POOL:
        s = all_screeners(lat)
        assert (s.vectors, s.norms) == _unpruned_screeners(lat), lat.gram
        dn, hmin = oracle.exponent_and_dual_minimum(lat)
        lmin = _minimum(lat)
        for t in divisors(dn, 2 * dn // hmin):
            fired["below minimum"] += 2 * t < lmin
            rule = _cut_rule(lat, t)
            assert (rule is None) == _admits(lat, t), (lat.gram, t, rule)
            if rule:
                fired[rule] += 1
    assert all(fired.values()), fired


@st.composite
def _block(draw, even):
    """A rank-1 or rank-2 Gram with entries at most 6 (12 for rank 1);
    even diagonal when even is set."""
    diag = st.integers(1, 6).map(lambda n: 2 * n) if even else st.integers(1, 12)
    if draw(st.booleans()):
        return [[draw(diag)]]
    a, c = sorted((draw(diag), draw(diag)))
    b = draw(st.integers(-(a // 2), a // 2))
    return [[a, b], [b, c]]


@st.composite
def _discriminant_grams(draw):
    """Orthogonal sums of 1-3 blocks, even or of any parity, scaled by 1-3
    and put in a basis scrambled by row additions: rank 1-5, cyclic and
    non-cyclic L*/L, det at most 4000 so the oracle can list L*/L."""
    even = draw(st.booleans())
    blocks = draw(st.lists(_block(even), min_size=1, max_size=3))
    gram = blocks[0]
    for b in blocks[1:]:
        gram = _orthogonal_sum(gram, b)
    d = len(gram)
    assume(d <= 5)
    s = draw(st.integers(1, 3))
    gram = [[s * v for v in row] for row in gram]
    for _ in range(draw(st.integers(0, 2 * d))):
        i, j = draw(st.integers(0, d - 1)), draw(st.integers(0, d - 1))
        if i != j:
            f = draw(st.sampled_from((-1, 1)))
            gram[i] = [x + f * y for x, y in zip(gram[i], gram[j])]
            for r in gram:
                r[i] += f * r[j]
    lat = Lattice(gram)
    assume(lat.determinant <= 4000)
    return lat


@settings(derandomize=True, database=None, deadline=None, max_examples=150,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(_discriminant_grams())
def test_shell_cut_is_sound_against_the_discriminant_group(lat):
    """Over every divisor t of d_n: a t the cut rejects has no element of
    order t and norm 2/t in the listed L*/L, and its norm-2t shell of M_t
    holds no screener; so every shell that holds a screener passes the cut."""
    invariants, _ = _smith_data(lat)
    dn = invariants[-1]
    for t in divisors(dn, dn):
        held = any(is_screener(lat, x) for x in _shell(lat, t))
        admitted = _admits(lat, t)
        assert admitted == (_cut_rule(lat, t) is None), (lat.gram, t)
        if held:
            assert admitted and oracle.discriminant_admits(lat, t), (lat.gram, t)
        if not admitted:
            assert not oracle.discriminant_admits(lat, t), (lat.gram, t)


def test_shell_screeners_are_the_vectors_outside_2l():
    """On the norm-2t shell of M_t the norm is even and G x / t is integral,
    so a shell vector is a screener exactly when one of its coordinates is
    odd; over every walked t those vectors are all_screeners' output.  Shell
    vectors in 2L occur, so an even-norm test in its place would fail."""
    kinds = [("A", n) for n in range(1, 8)] + [("D", n) for n in range(4, 8)] + [("E", n) for n in range(6, 9)]
    lattices = CUT_POOL + [catalog(kind, n, scale) for kind, n in kinds for scale in (1, 2, 3)]
    in_2l = 0
    for lat in lattices:
        dn, hmin = oracle.exponent_and_dual_minimum(lat)
        pairs = []
        for t in divisors(dn, 2 * dn // hmin):
            for x in _shell(lat, t):
                odd = any(v % 2 for v in x)
                assert is_screener(lat, x) == odd, (lat.gram, x)
                if odd:
                    pairs.append((2 * t, x))
                in_2l += not odd
        pairs.sort()
        s = all_screeners(lat)
        assert (s.vectors, s.norms) == (tuple(x for _, x in pairs), tuple(n for n, _ in pairs)), lat.gram
    assert in_2l > 0


def test_lambda_1_rule_matches_enumeration():
    """The least norm short_vectors finds on the LLL state of L up to b - 1,
    b the least norm of the reduced rows, or b when it finds nothing, is the
    minimum that a walk up to the least diagonal entry finds."""
    for lat in CUT_POOL[:100]:
        gram = [list(r) for r in lat.gram]
        bound = min(gram[i][i] for i in range(lat.rank))
        u, minors, lam = lat.lll_reduce()
        b = min(map(lat.norm, u))
        lmin = min((nrm for _, nrm in short_vectors(u, minors, lam, b - 1)), default=b)
        assert lmin == enumerate_up_to_norm(lat, bound).norms[0], gram


def test_e8_keeps_its_roots_at_the_cut():
    """E8 is unimodular with minimum 2, so t = 1 is the one divisor of
    d_n = 1; it meets the exact dual cut 2 d_n / h_min = 1 with equality,
    the Gram-Schmidt cap is never below that, and 2t is the minimum."""
    e8 = catalog("E", 8)
    assert oracle.exponent_and_dual_minimum(e8) == (1, 2)
    assert _gram_schmidt_cap(e8) >= 1 and _minimum(e8) == 2
    s = all_screeners(e8)
    assert s.total_count == 240
    assert set(s.norms) == {2}


# known primes; divisors leaves those above 1024, past its trial division,
# to Miller-Rabin, the square test and Brent's rho
_KNOWN_PRIMES = (2, 3, 5, 7, 1009, 1031, 1033, 65537, 999983, 10 ** 6 + 3,
                 10 ** 8 + 7, 10 ** 9 + 7, 10 ** 12 + 39, 10 ** 15 + 37)


@st.composite
def _factored(draw):
    """(n, its prime powers): a square, a semiprime up to 10^24, a prime
    power up to 10^24 or a product of powers of _KNOWN_PRIMES, with n below
    the bound up to which Miller-Rabin is exact; the squares reach
    (10^12 + 39)^2."""
    shape = draw(st.sampled_from(("square", "semiprime", "power", "mixed")))
    if shape == "square":
        p = draw(st.sampled_from([p for p in _KNOWN_PRIMES if p <= 10 ** 12 + 39]))
        powers = {p: 2}
    elif shape == "semiprime":
        p, q = draw(st.lists(st.sampled_from(_KNOWN_PRIMES[:-1]), min_size=2, max_size=2, unique=True))
        big = draw(st.sampled_from((q, 10 ** 15 + 37)))
        powers = {p: 1, big: 1} if p * big <= 10 ** 24 else {p: 1, q: 1}
    elif shape == "power":
        p = draw(st.sampled_from(_KNOWN_PRIMES))
        powers = {p: draw(st.integers(1, max(1, int(24 / math.log10(p)))))}
    else:
        powers = {}
        for p in draw(st.lists(st.sampled_from(_KNOWN_PRIMES[:10]), min_size=1, max_size=5, unique=True)):
            powers[p] = draw(st.integers(1, 4))
    n = math.prod(p ** e for p, e in powers.items())
    assume(n < intlinalg.MR_BOUND)
    return n, powers


@settings(derandomize=True, database=None, deadline=None, max_examples=300,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(_factored(), st.data())
def test_divisors_match_their_factorization(case, data):
    """divisors(n, limit) is every product of the known prime powers of n
    that is at most limit, ascending, for limit 0, 1, n, past n, near
    isqrt(n) or anywhere below n; for n < 10^4 also every k <= limit that
    divides n.  Trial division never tries a k above min(limit, isqrt(n))."""
    n, powers = case
    r = math.isqrt(n)
    limit = data.draw(st.sampled_from((0, 1, n, 2 * n, r, r + 1, max(r - 1, 0), None)))
    if limit is None:
        limit = data.draw(st.integers(0, n))
    expected = [1]
    for p, e in powers.items():
        expected = [x * p ** i for x in expected for i in range(e + 1)]
    expected = sorted(x for x in expected if x <= limit)
    tried = []
    trial = intlinalg._trial_divide

    def recording_trial(rest, k, last, primes):
        out = trial(rest, k, last, primes)
        # the last k tried before the first one not tried, out[1]
        tried.append(out[1] - 1 if out[1] <= 3 else out[1] - 2)
        return out

    with pytest.MonkeyPatch.context() as m:
        m.setattr(intlinalg, "_trial_divide", recording_trial)
        assert divisors(n, limit) == expected, (n, limit)
    assert max(tried) <= max(2, min(limit, r)), (n, limit, tried)
    if n < 10 ** 4:
        assert expected == [k for k in range(1, min(n, limit) + 1) if n % k == 0]


def test_divisors_with_limit_match_brute_force():
    for n in range(1, 200):
        every = [k for k in range(1, n + 1) if n % k == 0]
        assert divisors(n, n) == every
        for limit in range(0, n + 2):
            assert divisors(n, limit) == [k for k in every if k <= limit], (n, limit)
    # the scan stops at the limit, far below isqrt(n)
    assert divisors(3 * 2 ** 60, 10) == [1, 2, 3, 4, 6, 8]
    assert divisors(3 * 2 ** 20, 3 * 2 ** 20)[-3:] == [2 ** 20, 3 * 2 ** 19, 3 * 2 ** 20]
    with pytest.raises(ValueError):
        divisors(0, 1)


def _skewed_dense_grams(count):
    """Seeded dense Grams A A^T + D of rank 6-8, entries of A in [-2, 2] and
    D in [1, 4], kept only when the Smith matrix V has a 60-bit entry."""
    rng = random.Random(4604)
    out = []
    while len(out) < count:
        d = rng.randint(6, 8)
        a = [[rng.randint(-2, 2) for _ in range(d)] for _ in range(d)]
        g = matmul(a, list(zip(*a)))
        for i in range(d):
            g[i][i] += rng.randint(1, 4)
        _, v = smith_normal_form(g)
        if max(abs(x) for row in v for x in row).bit_length() >= 60:
            out.append(Lattice(g))
    return out


def test_smith_form_without_u():
    """For square nonsingular inputs, (d, v) = smith_normal_form(mat) has v
    unimodular, a diagonal d whose entries are positive and each divides
    the next, and column i of mat v divisible by d_i; the quotient columns
    form a matrix Q with mat v = Q d, and det Q = +-1 is exactly
    "u mat v = d for the unimodular u = Q^-1"."""
    rng = random.Random(2511)
    square = [[list(r) for r in lat.gram] for lat in CUT_POOL + _skewed_dense_grams(4)]
    while len(square) < 360:
        n = rng.randint(1, 5)
        mat = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        if determinant(mat):
            square.append(mat)
    for mat in square:
        n = len(mat)
        d, v = smith_normal_form(mat)
        assert abs(determinant(v)) == 1, mat
        diag = [d[i][i] for i in range(n)]
        assert all(d[i][j] == 0 for i in range(n) for j in range(n) if i != j), mat
        assert all(x > 0 for x in diag) and all(b % a == 0 for a, b in zip(diag, diag[1:])), mat
        mv = matmul(mat, v)
        assert all(mv[r][i] % diag[i] == 0 for r in range(n) for i in range(n)), mat
        q = [[mv[r][i] // diag[i] for i in range(n)] for r in range(n)]
        assert abs(determinant(q)) == 1, mat
        assert math.prod(diag) == abs(determinant(mat)), mat


def test_shell_basis_spans_mod_kernel():
    """The Hermite basis mod t spans the same M_t as the Smith columns, lies
    in M_t, has index prod t / gcd(d_i, t) in Z^d, and its entries stay in
    [0, t] with pivots dividing t, however large V is: V goes in raw, as
    all_screeners passes it."""
    for lat in CUT_POOL + _skewed_dense_grams(4):
        gram = [list(r) for r in lat.gram]
        diag, v = smith_normal_form(gram)
        d = lat.rank
        invariants = [diag[i][i] for i in range(d)]
        dn = invariants[-1]
        for t in divisors(dn, dn):
            basis = _mod_kernel_basis(v, invariants, t)
            assert hnf_rows(basis) == hnf_rows(_mod_kernel_columns(lat, t)), (gram, t)
            assert all(y % t == 0 for row in matmul(basis, gram) for y in row), (gram, t)
            index = math.prod(t // math.gcd(di, t) for di in invariants)
            assert abs(determinant(basis)) == index, (gram, t)
            for i, row in enumerate(basis):
                assert t % row[i] == 0 and not any(row[:i]), (gram, t)
                assert all(0 <= row[j] < basis[j][j] for j in range(i + 1, d)), (gram, t)


def _hnf_mod_kernel_basis(v, invariants, t):
    """The reference for `_mod_kernel_basis`: the general hnf_rows of the
    generators s_i V_i mod t, s_i = t / gcd(d_i, t), and the rows of t I."""
    d = len(invariants)
    gens = [[s * v[r][i] % t for r in range(d)]
            for i, s in enumerate(t // math.gcd(di, t) for di in invariants)]
    gens.extend([t if i == j else 0 for j in range(d)] for i in range(d))
    return hnf_rows(gens)


def test_modular_hermite_basis_is_the_hnf_rows_basis():
    """Inserting each generator into the rows of t I with entries reduced
    mod t gives exactly the Hermite basis that hnf_rows gives on all the
    generators at once, on every divisor shell of d_n of 3000 seeded Grams
    A A^T + D of rank 1-6 at scales 1-12."""
    rng = random.Random(3535)
    shells = 0
    for _ in range(3000):
        d = rng.randint(1, 6)
        a = [[rng.randint(-2, 2) for _ in range(d)] for _ in range(d)]
        gram = matmul(a, list(zip(*a)))
        for i in range(d):
            gram[i][i] += rng.randint(1, 4)
        scale = rng.randint(1, 12)
        gram = [[scale * x for x in row] for row in gram]
        diag, v = smith_normal_form(gram)
        invariants = [diag[i][i] for i in range(d)]
        for t in divisors(invariants[-1], invariants[-1]):
            assert _mod_kernel_basis(v, invariants, t) == _hnf_mod_kernel_basis(v, invariants, t), (gram, t)
            shells += 1
    assert shells > 50000, shells  # 59402


def _scrambled(lat):
    """lat in the unimodular basis u with 1 on the diagonal and
    1000 (i - j) + 7 below it."""
    n = lat.rank
    return Lattice(lat.row_gram([[(i == j) + (j < i) * (1000 * (i - j) + 7) for j in range(n)] for i in range(n)]))


def test_smith_form_only_when_a_mod_kernel_shell_is_left(monkeypatch):
    """all_screeners factors G only when the walk of L leaves some t with
    2t >= lambda_1(L) for the M_t path: with smith_normal_form made to
    raise, it still gives the same ScreenerSet on every lattice of the
    pool that needs none, E8 among them, and D9 at scale 3 in a scrambled
    basis still reaches the Smith form."""
    def refuse(mat):
        raise RuntimeError("smith_normal_form called")

    pool = _in_place_pool() + [Lattice(g) for g in dense_grams(30)]
    expected = [all_screeners(lat) for lat in pool]
    monkeypatch.setattr(intlinalg, "smith_normal_form", refuse)
    answered = []
    for lat, s in zip(pool, expected):
        try:
            out = all_screeners(lat)
        except RuntimeError:
            continue
        assert out == s, lat.gram
        answered.append(lat)
    assert catalog("E", 8) in answered
    assert 100 < len(answered) < len(pool), len(answered)  # 269 of 410
    with pytest.raises(RuntimeError, match="smith_normal_form called"):
        all_screeners(_scrambled(catalog("D", 9, 3)))


@contextmanager
def _within(seconds):
    """Fails the block with TimeoutError once it has run that long."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _diag(*entries):
    return [[v if i == j else 0 for j in range(len(entries))] for i, v in enumerate(entries)]


@pytest.mark.parametrize("gram, count", [
    (_diag(1, 10 ** 12 + 39, 10 ** 12 + 39), 2),
    (_diag(1, 10 ** 12 + 39, 10 ** 12 + 39, 10 ** 12 + 39), 6),
    (_diag(1, 2 * 10 ** 12 + 3, 2 * 10 ** 12 + 3), 2),
    ([[2, 1], [1, 10 ** 15 + 37]], 2),
], ids=["diag-1-P-P", "diag-1-P-P-P", "diag-1-Q-Q", "2-1-1-N"])
def test_large_determinants_answer_quickly(gram, count):
    """P = 10^12 + 39 and Q = 2 10^12 + 3 are prime, and d_n = P or Q.
    diag(1, P, P) has e = det / d_1^2 = P^2, below intlinalg.MR_BOUND, and
    its listing factors e.  diag(1, P, P, P) has e = P^3 and diag(1, Q, Q)
    has e = Q^2, both from MR_BOUND on, where a listing of e would
    trial-divide up to min(cap, isqrt(e)) = P or Q; there the divisors of
    d_n are listed, up to isqrt(d_n).  [[2, 1], [1, 10^15 + 37]] has
    d_n = det with cap det, and its listing factors det.  Each gives its
    screeners within 10 s: e_i +- e_j for the pairs of P or Q entries, and
    the two of [[2, 1], [1, 10^15 + 37]]."""
    with _within(10):
        s = all_screeners(Lattice(gram))
    assert len(s) == count
    assert all(is_screener(s.lattice, x) for x in s.vectors)
