import collections
import math
import random
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import oracle
import certificates
from certificates import dense_grams, hermite_certified, within
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
from latscreen.screeners import _discriminant_admits, _local_data, _mod_kernel_basis

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
    """all_screeners runs intlinalg.lll_reduce once on L, for its cap and
    its walk, and once per shell walked through its mod-t kernel, with no
    dual lattice in between; it walks the state of L once, with
    short_vectors, up to the largest norm 2t that the plan routes `whole`
    or `near`; a shell certified empty by its Hermite basis is not
    reduced."""
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
    # D5-D8 and E6-E8 at scales 2-4 walk 25 shells through M_t
    lattices += [catalog(kind, n, scale) for kind, n in [("D", 5), ("D", 6), ("D", 7), ("D", 8),
                                                          ("E", 6), ("E", 7), ("E", 8)] for scale in (2, 3, 4)]
    for lat in lattices + [Lattice(g) for g in dense_grams(12)]:
        served = [2 * t for t, r in screeners._plan(lat)[2].items() if r[0] in ("whole", "near")]
        lll_calls.clear()
        walks.clear()
        state_walks.clear()
        s = all_screeners(lat)
        assert len(lll_calls) == 1 + len(walks), (lat.gram, len(lll_calls), len(walks))
        assert state_walks == [max(served)], (lat.gram, state_walks, served)
        walked += len(walks)
        # shells that hold a screener and were served by the walk of L alone
        off_walk += len(set(s.norms) - set(walks))
    assert walked > 44, walked  # 55
    assert off_walk > 70, off_walk  # 336; the shells with t | d_1 alone give 203


def test_certified_shells_pay_no_lll(monkeypatch):
    """A shell whose Hermite basis certifies it empty is built but gets no
    Lattice, LLL or walk: the plan reads the certificate off
    intlinalg.gram_schmidt of the Gram of each M_t basis, and all_screeners
    builds one Lattice from that state and walks it once up to 2t for each t
    the certificate leaves open, and builds nothing for a t it clears.  The
    first Lattice built is L in its LLL basis u, whose Gram is u G u^T and
    whose state is the LLL state of L; the Hermite bases are in those
    coordinates.  So the other Lattices built are the M_t walks, matched to
    their t and its plan entry by the bound of their walk, over the catalog
    at scales 1-4, CUT_POOL and dense_grams(12), each keeps the state a
    checked Lattice of its Gram over the reduced Gram keeps, and some shell
    is cleared with no Lattice built.  When every route is `whole` or
    `near`, the plan builds no Lattice at all: d_1 is read off G itself."""
    bases, built, walks = [], [], []
    basis_of, walk, from_state = screeners._mod_kernel_basis, screeners.enumerate_up_to_norm, Lattice._from_state

    def recording_basis(local, t):
        basis = basis_of(local, t)
        bases.append((t, basis))
        return basis

    def recording_state(gram, minors, lam):
        sub = from_state(gram, minors, lam)
        built.append(sub)
        return sub

    def recording_walk(sub, bound):
        walks.append((bound // 2, sub))
        return walk(sub, bound)

    monkeypatch.setattr(screeners, "_mod_kernel_basis", recording_basis)
    monkeypatch.setattr(Lattice, "_from_state", recording_state)
    monkeypatch.setattr(screeners, "enumerate_up_to_norm", recording_walk)
    walked = cleared = light = 0
    for lat in _in_place_pool() + [Lattice(g) for g in dense_grams(12)]:
        route = screeners._plan(lat)[2]
        bases.clear()
        built.clear()
        walks.clear()
        all_screeners(lat)
        if all(r[0] in ("whole", "near") for r in route.values()):
            assert built == [] and walks == [] and bases == [], lat.gram
            light += 1
            continue
        red, *shells = built
        u, minors, lam = lat.lll_reduce()
        assert red.gram == tuple(map(tuple, lat.row_gram(u))), lat.gram
        assert (red.minors, red.lll_reduce()[1:]) == (tuple(minors), (minors, lam)), lat.gram
        # one walk per t, each of its own Lattice, and every Lattice walked
        of_t = dict(walks)
        assert len(of_t) == len(walks) and sorted(map(id, of_t.values())) == sorted(map(id, shells)), lat.gram
        assert set(of_t) == {t for t, r in route.items() if r[0] == "walk"}, lat.gram
        assert {t for t, _ in bases} == {t for t, r in route.items() if r[0] in ("empty", "walk")}, lat.gram
        for t, basis in bases:
            checked = Lattice(red.row_gram(basis))
            certified = hermite_certified(checked, t)
            assert route[t][0] == ("empty" if certified else "walk") and certified != (t in of_t), (lat.gram, t)
            cleared += certified
            if not certified:
                sub = of_t[t]
                assert (sub.gram, sub.minors, sub.lll_reduce()) == (checked.gram, checked.minors, checked.lll_reduce())
        walked += len(walks)
    assert cleared > 0 and walked > 0 and light > 0, (cleared, walked, light)  # 16 of 99 shells cleared, 83 walked


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
        invariants = invariant_factors(gram)
        d1 = invariants[0]
        assert d1 == math.gcd(*(x for row in gram for x in row)), gram
        ts = divisors(invariants[-1], invariants[-1])
        local = _local(lat, ts)
        for t in ts:
            basis = _mod_kernel_basis(local, t)
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
    itself, and only for a t that does not divide d_1.  The plan routes
    `whole` exactly the divisors of d_1, and its `near` routes that divide
    d_n and pass the discriminant form, cuts those routes need not run, are
    the near shells `_near_shells` finds."""
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
        routed = {name: {t for t, r in screeners._plan(lat)[2].items() if r[0] == name} for name in ("near", "whole")}
        dn = invariant_factors([list(r) for r in lat.gram])[-1]
        assert {t for t in routed["near"] if dn % t == 0 and _admits(lat, t)} == near, (lat.gram, routed)
        assert routed["whole"] == set(divisors(d1, d1)), (lat.gram, routed)
    # shells with t | d_1 that hold a screener, 256 of them, 150 with t > 1
    assert len(in_place) > 250
    assert sum(t > 1 for t in in_place) >= 150
    assert near_checked >= 140, near_checked  # 337


def test_plan_routes_every_candidate_once():
    """The plan gives one route to each candidate t, the divisors of
    det / d_1^(d-1) up to the Gram-Schmidt cap, found here by trial over
    every t up to the cap; every screener of norm 2t has t routed whole,
    near or walk; each of the five routes occurs over the catalog at
    scales 1-4, CUT_POOL and dense_grams(60); and on CUT_POOL no t routed
    form or empty holds a screener of the walked oracle."""
    seen = collections.Counter()
    for lat in _in_place_pool() + [Lattice(g) for g in dense_grams(60)]:
        route = screeners._plan(lat)[2]
        e = lat.determinant // invariant_factors([list(r) for r in lat.gram])[0] ** (lat.rank - 1)
        assert set(route) == {t for t in range(1, _gram_schmidt_cap(lat) + 1) if e % t == 0}, lat.gram
        assert all(route[n // 2][0] in ("whole", "near", "walk") for n in all_screeners(lat).norms), lat.gram
        seen.update(r[0] for r in route.values())
    assert set(seen) == {"whole", "near", "form", "empty", "walk"}, seen
    for lat in CUT_POOL:
        norms = {nrm for _, nrm in oracle.walked_screeners(lat)[0]}
        route = screeners._plan(lat)[2]
        assert not [t for t, r in route.items() if r[0] in ("form", "empty") and 2 * t in norms], lat.gram


def test_walk_of_l_never_meets_2l_at_a_shell_it_serves():
    """A vector of norm 2t with t | d_1 is never in 2L: t <= d_1 <=
    lambda_1(L), and a nonzero 2y has norm 4<y,y> >= 4 lambda_1(L) > 2t.
    So all_screeners keeps every vector of the walk of L at such a norm
    with no x not in 2L test.  Checked on the walk of L up to 2 d_1, which
    covers every t | d_1, over the catalog at scales 1-4, CUT_POOL and
    dense_grams(12)."""
    checked = 0
    for lat in _in_place_pool() + [Lattice(g) for g in dense_grams(12)]:
        d1 = invariant_factors([list(r) for r in lat.gram])[0]
        for x, nrm in short_vectors(*lat.lll_reduce(), 2 * d1):
            if nrm % 2 == 0 and d1 % (nrm // 2) == 0:
                assert any(v % 2 for v in x), (lat.gram, x)
                checked += 1
    assert checked > 3000, checked  # 3317


def _near_shells(lat, every=False):
    """The near shells of all_screeners: the admitted t up to its
    Gram-Schmidt cap that do not divide d_1 and are at most the largest
    candidate t that divides d_1 or whose walk of L up to 2t
    `_walk_is_small` proves small; with every set, also each such t <= b,
    b the least norm of the LLL rows of L, near or not."""
    invariants = invariant_factors([list(r) for r in lat.gram])
    u, minors, _ = lat.lll_reduce()
    b = min(map(lat.norm, u))
    cap = _gram_schmidt_cap(lat)
    e = lat.determinant // invariants[0] ** (lat.rank - 1)
    top = max(t for t in divisors(e, cap) if invariants[0] % t == 0 or screeners._walk_is_small(minors, 2 * t))
    return {t for t in divisors(invariants[-1], cap)
            if invariants[0] % t and _admits(lat, t) and ((every and t <= b) or t <= top)}


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
        u, minors, lam = lat.lll_reduce()
        s = all_screeners(lat)
        near = _near_shells(lat)
        every = sorted(_near_shells(lat, every=True))
        local = _local(lat, every)
        for t in every:
            walked = sorted(x for x, nrm in short_vectors(u, minors, lam, 2 * t)
                            if nrm == 2 * t and any(c % 2 for c in x)
                            and all(c % t == 0 for c in lat.gram_times(x)))
            basis = _mod_kernel_basis(local, t)
            found = enumerate_up_to_norm(Lattice(lat.row_gram(basis)), 2 * t)
            shell = [z for z, nrm in zip(found.vectors, found.norms) if nrm == 2 * t]
            through = sorted(x for x in map(canonical, matmul(shell, basis)) if any(c % 2 for c in x))
            assert walked == through, (lat.gram, t)
            assert walked == [x for x, nrm in zip(s.vectors, s.norms) if nrm == 2 * t], (lat.gram, t)
            hits += bool(walked)
            near_hits += bool(walked) and t in near
    # 161 shells that are near or have t <= b hold a screener, 137 of them
    # near at _NEAR_WALK = 1024
    assert hits >= 70 and near_hits >= 50, (hits, near_hits)


def test_output_does_not_depend_on_the_near_walk_cap(monkeypatch):
    """_NEAR_WALK only picks which shells the walk of L serves: at 0 no
    walk is proven that small and every t above the largest divisor of
    d_1 goes through M_t, at 4096 the walk of L serves more of them than
    at the default, and the ScreenerSets are those at the default over the
    catalog at scales 1-4, CUT_POOL and dense_grams(12).  The upper
    extreme is finite, as an always-True rule would walk L up to twice the
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


@settings(derandomize=True, database=None, deadline=None, max_examples=150,
          suppress_health_check=[HealthCheck.too_slow])
@given(_dense_grams(1, 6))
def test_output_does_not_depend_on_the_near_walk_cap_on_drawn_grams(lat):
    """For even, odd and scaled Grams of rank 1-6, all_screeners gives the
    same ScreenerSet with _NEAR_WALK at 0, where every t above the largest
    divisor of d_1 goes through M_t, at 128, at the default 1024 and at 4096."""
    out = {}
    for cap in (0, 128, 1024, 4096):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(screeners, "_NEAR_WALK", cap)
            out[cap] = all_screeners(lat)
    assert out[0] == out[128] == out[1024] == out[4096], (lat.gram, out)


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
    assert checked > 2500, checked  # 2703


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


# the unimodular basis of the console-script checks of CI, entries in the thousands
_SCRAMBLE = [[(i == j) + (j < i) * (1000 * (i - j) + 7) for j in range(6)] for i in range(6)]


@pytest.mark.parametrize("lat, through_m_t", [
    (catalog("A", 3, 2), []),
    (Lattice([[4, 1], [1, 4]]), []),
    (catalog("D", 4, 2), []),
    (catalog("D", 6, 2), [(8, 6)]),
    (Lattice(catalog("D", 6, 2).row_gram(_SCRAMBLE)), [(8, 6)]),
], ids=["A3-scale-2", "4-1-1-4", "D4-scale-2", "D6-scale-2", "D6-scale-2-scrambled"])
def test_console_script_shell_paths(monkeypatch, lat, through_m_t):
    """The paths the console-script checks of CI name: every screener of
    A3 at scale 2, of [[4, 1], [1, 4]] and of D4 at scale 2 comes off the
    one walk of L, and D6 at scale 2 walks one shell through M_4 (t = 4,
    norm 8), whose 6 vectors are its 6 screeners of norm 8, also in the
    scrambled basis, Gram entries up to 8 10^7, where they map through the
    Hermite basis and the LLL basis.  Each entry is (bound, vectors of that
    norm) of one enumerate_up_to_norm call."""
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
    dn = invariant_factors([list(r) for r in lat.gram])[-1]
    local = _local(lat, divisors(dn, dn))
    certified = shells = 0
    for t in divisors(dn, dn):
        sub = Lattice(lat.row_gram(_mod_kernel_basis(local, t)))
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


def _smith_data(lat):
    """(invariants d_1 | ... | d_n, a = <V_n, V_n> / d_n) of U G V = D."""
    invariants, _, a = oracle.smith_data([list(r) for r in lat.gram])
    return invariants, a


def _local(lat, ts):
    """The local data `_plan` would build for the t in ts, but of lat's own
    Gram: at every prime of those t, to its largest exponent in them."""
    exps = {}
    for t in ts:
        for p in oracle.prime_factors(t):
            exps[p] = max(exps.get(p, 0), _valuation(t, p))
    gram = [list(r) for r in lat.gram]
    return _local_data(gram, math.gcd(*(x for row in gram for x in row)), exps)


def _cut_rule(lat, t):
    """The first rule of the shell cut that rejects t, or None: the p-adic
    valuations of the Smith invariants, prime by prime, and the square
    classes mod p by listing the squares."""
    invariants, a = _smith_data(lat)
    for p in oracle.prime_factors(t):
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
    return _discriminant_admits(t, _local(lat, [t]), lat.is_even)


def test_all_screeners_matches_unpruned_walk():
    """The output equals the walk of every divisor shell of det G, and every
    rule of the discriminant-form cut rejects some t of the pool."""
    fired = dict.fromkeys(("odd valuation", "legendre", "2-adic window"), 0)
    for lat in CUT_POOL:
        s = all_screeners(lat)
        assert (s.vectors, s.norms) == _unpruned_screeners(lat), lat.gram
        dn, hmin = oracle.exponent_and_dual_minimum(lat)
        for t in divisors(dn, 2 * dn // hmin):
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


def test_discriminant_form_rejects_every_t_not_dividing_d_n():
    """An element of order t in L*/L needs t | d_n, the exponent of L*/L,
    so _discriminant_admits rejects every t that does not divide d_n, with
    the primes of t given.  The prime-by-prime tests alone admit t = 2 on
    the invariants [1, 3] of an odd lattice and t = 4 on [2, 2]; the plan's
    candidates t that do not divide d_n are checked over the catalog at
    scales 1-4, CUT_POOL and dense_grams(60)."""
    for gram, t in (([[1, 0], [0, 3]], 2), ([[2, 0], [0, 2]], 4)):
        lat = Lattice(gram)
        assert not _discriminant_admits(t, _local(lat, [t]), lat.is_even), (gram, t)
    checked = 0
    for lat in _in_place_pool() + [Lattice(g) for g in dense_grams(60)]:
        dn = invariant_factors([list(r) for r in lat.gram])[-1]
        ts = list(screeners._plan(lat)[2])
        local = _local(lat, ts)
        for t in ts:
            if dn % t:
                assert not _discriminant_admits(t, local, lat.is_even), (lat.gram, t)
                checked += 1
    assert checked >= 80, checked  # 88


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
# to Miller-Rabin, the perfect-power test and Brent's rho
_KNOWN_PRIMES = (2, 3, 5, 7, 1009, 1031, 1033, 65537, 999983, 10 ** 6 + 3,
                 10 ** 8 + 7, 10 ** 9 + 7, 10 ** 12 + 39, 10 ** 15 + 37)


def _products(powers, limit):
    """Every product of the prime powers p^e, e from powers[p], up to limit,
    ascending."""
    out = [1]
    for p, e in powers.items():
        out = [x * p ** i for x in out for i in range(e + 1)]
    return sorted(x for x in out if x <= limit)


@st.composite
def _factored(draw):
    """(n, its prime powers): a square, a semiprime up to 10^24, a prime
    power up to 10^24 or a product of powers of _KNOWN_PRIMES, which can
    pass the bound up to which Miller-Rabin's "prime" is proven; the
    squares reach (10^12 + 39)^2."""
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
    expected = _products(powers, limit)
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
    """The Hermite basis the local pass gives spans the same M_t as the
    Smith columns, lies in M_t, has index prod t / gcd(d_i, t) in Z^d, and
    its entries stay in [0, t] with pivots dividing t, also on the Grams
    whose Smith matrix V has 60-bit entries."""
    for lat in CUT_POOL + _skewed_dense_grams(4):
        gram = [list(r) for r in lat.gram]
        d = lat.rank
        invariants = invariant_factors(gram)
        dn = invariants[-1]
        local = _local(lat, divisors(dn, dn))
        for t in divisors(dn, dn):
            basis = _mod_kernel_basis(local, t)
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
    """Inserting each generator of the local pass into the rows of t' I,
    t' = t / gcd(t, d_1), with entries reduced mod t' gives exactly the
    Hermite basis that hnf_rows gives on all the Smith generators s_i V_i
    and t I at once, on every divisor shell of d_n of 3000 seeded Grams
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
        ts = divisors(invariants[-1], invariants[-1])
        local = _local(Lattice(gram), ts)
        for t in ts:
            assert _mod_kernel_basis(local, t) == _hnf_mod_kernel_basis(v, invariants, t), (gram, t)
            shells += 1
    assert shells > 50000, shells  # 59402


def _scrambled(lat):
    """lat in the unimodular basis u with 1 on the diagonal and
    1000 (i - j) + 7 below it."""
    n = lat.rank
    return Lattice(lat.row_gram([[(i == j) + (j < i) * (1000 * (i - j) + 7) for j in range(n)] for i in range(n)]))


def test_local_pass_only_when_a_mod_kernel_shell_is_left(monkeypatch):
    """all_screeners puts no Gram in Smith form: with smith_normal_form made
    to raise, it gives the same ScreenerSet on every lattice of the pool.
    It runs the local pass only when the walk of L leaves some t for the M_t
    path: with `_local_data` made to raise, it still gives the same
    ScreenerSet on every lattice of the pool that needs none, E8 among
    them, and D9 at scale 3 in a scrambled basis still reaches the pass."""
    def refuse(*args):
        raise RuntimeError("refused")

    pool = _in_place_pool() + [Lattice(g) for g in dense_grams(30)]
    expected = [all_screeners(lat) for lat in pool]
    with monkeypatch.context() as mp:
        mp.setattr(intlinalg, "smith_normal_form", refuse)
        assert [all_screeners(lat) for lat in pool] == expected
    monkeypatch.setattr(screeners, "_local_data", refuse)
    answered = []
    for lat, s in zip(pool, expected):
        try:
            out = all_screeners(lat)
        except RuntimeError:
            continue
        assert out == s, lat.gram
        answered.append(lat)
    assert catalog("E", 8) in answered
    assert 100 < len(answered) < len(pool), len(answered)  # 313 of 410
    with pytest.raises(RuntimeError, match="refused"):
        all_screeners(_scrambled(catalog("D", 9, 3)))


@st.composite
def _local_grams(draw):
    """A A^T + D of rank 1-8, entries of A in [-2, 2] and of D in [1, 4],
    or a block sum of rank 2-6: diagonal entries from 1, 2, 3, 4, 6, 8, 9,
    12, 18 and 27, the first two joined into a 2 x 2 block when there are
    more than two.  The entries share the primes 2 and 3, so the 2- and
    3-parts of L*/L are often not cyclic.  Either is scaled by 1-4."""
    if draw(st.booleans()):
        d = draw(st.integers(1, 8))
        a = [[draw(st.integers(-2, 2)) for _ in range(d)] for _ in range(d)]
        gram = matmul(a, [list(c) for c in zip(*a)])
        for i in range(d):
            gram[i][i] += draw(st.integers(1, 4))
    else:
        entries = draw(st.lists(st.sampled_from((1, 2, 3, 4, 6, 8, 9, 12, 18, 27)), min_size=2, max_size=6))
        gram = [[v if i == j else 0 for j in range(len(entries))] for i, v in enumerate(entries)]
        if len(entries) > 2:
            gram[0][1] = gram[1][0] = draw(st.integers(0, (min(entries[:2]) - 1) // 2))
    scale = draw(st.integers(1, 4))
    return Lattice([[scale * x for x in row] for row in gram])


@settings(derandomize=True, database=None, deadline=None, max_examples=200,
          suppress_health_check=[HealthCheck.too_slow])
@given(_local_grams(), st.data())
def test_local_pass_matches_the_smith_form(lat, data):
    """At each prime p of a set of t, to an exponent K_p at least that of p
    in each, the local pass gives min(v_p(d_i), v_p(d_1) + K_p + 2) for
    every Smith invariant d_i of `invariant_factors`, and for each t the
    Hermite basis of M_t and the verdict of the discriminant-form cut that
    the Smith form gives (`oracle.smith_mod_kernel_basis`,
    `oracle.smith_discriminant_admits`)."""
    gram = [list(r) for r in lat.gram]
    invariants, v, a = oracle.smith_data(gram)
    d1, dn = invariants[0], invariants[-1]
    ts = data.draw(st.lists(st.sampled_from(divisors(dn * 4, dn * 4)), min_size=1, max_size=4))
    local = _local(lat, ts)
    for p, (vals, _, _) in local.primes.items():
        cap = _valuation(d1, p) + max(_valuation(t, p) for t in ts) + 2
        assert vals == [min(_valuation(di, p), cap) for di in invariants], (gram, p, vals)
    assert local.rank == lat.rank and local.d1 == d1
    for t in ts:
        assert _mod_kernel_basis(local, t) == oracle.smith_mod_kernel_basis(v, invariants, t), (gram, t)
        assert _discriminant_admits(t, local, lat.is_even) == oracle.smith_discriminant_admits(
            t, invariants, a, lat.is_even), (gram, t)


def test_plan_matches_the_smith_routes():
    """Every t the walk of L leaves gets from `_plan` the route, Hermite
    basis, Gram and gram_schmidt state that the Smith form of the reduced
    Gram gives (`oracle.smith_routes`), over the catalog at scales 1-4,
    CUT_POOL and dense_grams(60); each of form, empty and walk occurs."""
    seen = collections.Counter()
    for lat in _in_place_pool() + [Lattice(g) for g in dense_grams(60)]:
        route = screeners._plan(lat)[2]
        rest = {t: r for t, r in route.items() if r[0] not in ("whole", "near")}
        assert rest == oracle.smith_routes(lat, rest), lat.gram
        seen.update(r[0] for r in rest.values())
    assert set(seen) == {"form", "empty", "walk"}, seen


def _diag(*entries):
    return [[v if i == j else 0 for j in range(len(entries))] for i, v in enumerate(entries)]


# P and Q prime, and N the product of three primes near 10^9, past the
# bound 3.3 10^24 from which Miller-Rabin's "prime" is not proven; its
# "composite" is proven at any size
_P, _Q = 10 ** 12 + 39, 2 * 10 ** 12 + 3
_N_PRIMES = (10 ** 9 + 7, 10 ** 9 + 9, 10 ** 9 + 21)
_N = math.prod(_N_PRIMES)


@pytest.mark.parametrize("gram, count", [
    (_diag(1, _P, _P), 2),
    (_diag(1, _P, _P, _P), 6),
    (_diag(1, _Q, _Q), 2),
    ([[2, 1], [1, 10 ** 15 + 37]], 2),
    ([[1, 0], [0, _N]], 0),
    ([[2, 0], [0, 2 * _N]], 2),
    (_diag(1, _N, _N), 2),
], ids=["diag-1-P-P", "diag-1-P-P-P", "diag-1-Q-Q", "2-1-1-N", "1-0-0-N", "2-0-0-2N", "diag-1-N-N"])
def test_large_determinants_answer_quickly(gram, count):
    """d_n is P, Q, 10^15 + 37, N or 2N.  diag(1, P, P) has
    e = det / d_1^2 = P^2, diag(1, P, P, P) has e = P^3 and diag(1, Q, Q)
    has e = Q^2: their listing splits e as a perfect power, and
    Miller-Rabin proves P and Q prime.  [[2, 1], [1, 10^15 + 37]] has
    d_n = det with cap det, and its listing factors det.  [[1, 0], [0, N]],
    [[2, 0], [0, 2N]] and diag(1, N, N) have e = N, 2N and N^2, each past
    the bound, where rho splits N, once Miller-Rabin proves it composite.
    Each gives its screeners within 10 s: e_i +- e_j for the pairs of P, Q
    or N entries, the two of [[2, 1], [1, 10^15 + 37]], e_1 and e_2 of
    [[2, 0], [0, 2N]], and none of [[1, 0], [0, N]]."""
    with within(10):
        s = all_screeners(Lattice(gram))
    assert len(s) == count
    assert all(is_screener(s.lattice, x) for x in s.vectors)


@pytest.mark.parametrize("powers, root", [
    (dict.fromkeys(_N_PRIMES, 1), 0),
    (dict.fromkeys(_N_PRIMES, 2), _N),
    ({_P: 3}, _P),
    ({_P: 5}, _P),
    ({_P: 2, _Q: 1}, 0),
], ids=["N", "N^2", "P^3", "P^5", "P^2-Q"])
def test_divisors_past_the_bound_answer_quickly(powers, root):
    """Each n lies past the bound 3.3 10^24, and no prime of it is below
    10^9.  Within 10 s, divisors(n, n) and
    divisors(n, 8 10^6) are the products of its known prime powers up to
    the limit, and the perfect-power test gives the r of n = r^j, or 0 on
    N and P^2 Q, which rho splits."""
    n = math.prod(p ** e for p, e in powers.items())
    assert n >= intlinalg._MR_BOUND
    with within(10):
        assert intlinalg._power_root(n, intlinalg._TRIAL + 1) == root
        for limit in (n, 8 * 10 ** 6):
            assert divisors(n, limit) == _products(powers, limit), limit
