import math
import random
from fractions import Fraction

import pytest

from latscreen import (
    Lattice,
    LatticeError,
    all_screeners,
    box_enumerate,
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
from latscreen.enumeration import enumerate_up_to_norm, form_minimum
from latscreen.intlinalg import (
    determinant, divisors, hnf_rows, invariant_factors, matmul, rank, smith_normal_form,
    solve_linear_system,
)
from latscreen.screeners import _mod_kernel_basis

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
        lat = Lattice(g)
        fast = all_screeners(lat).vectors
        boxed = box_enumerate(lat, 2 * lat.determinant)
        slow = tuple(v for v in boxed.vectors if is_screener(lat, v))
        assert fast == slow


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


def _exponent_and_dual_minimum(lat):
    """(d_n, h_min): the exponent of L*/L and the minimum of H = d_n G^-1,
    with G^-1 from exact column solves rather than the Smith form."""
    d = lat.rank
    gram = [list(r) for r in lat.gram]
    inv_cols = [solve_linear_system(gram, [int(i == j) for i in range(d)]) for j in range(d)]
    dn = math.lcm(*(v.denominator for col in inv_cols for v in col))
    h = [[dn * inv_cols[j][i] for j in range(d)] for i in range(d)]
    assert all(v.denominator == 1 for row in h for v in row)
    h = [[v.numerator for v in row] for row in h]
    res = enumerate_up_to_norm(Lattice(h), min(h[i][i] for i in range(d)))
    return dn, res.norms[0]


def _mod_kernel_columns(lat, t):
    """Basis columns of M_t = {x : G x = 0 mod t} straight from the Smith
    form U G V = D: column i of V scaled by t / gcd(d_i, t)."""
    d = lat.rank
    if t == 1:
        return [[1 if i == j else 0 for j in range(d)] for i in range(d)]
    _, diag, v = smith_normal_form([list(r) for r in lat.gram])
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


def test_screener_shells_divide_exponent_and_respect_dual_minimum():
    """A screener of norm 2t has t | d_n and t <= 2 d_n / h_min."""
    checked = 0
    for lat in CUT_POOL:
        dn, hmin = _exponent_and_dual_minimum(lat)
        assert invariant_factors([list(r) for r in lat.gram])[-1] == dn
        for nrm in all_screeners(lat).norms:
            t = nrm // 2
            assert dn % t == 0, (lat.gram, t, dn)
            assert t * hmin <= 2 * dn, (lat.gram, t, dn, hmin)
            checked += 1
    assert checked > 300


def test_all_screeners_matches_unpruned_walk():
    for lat in CUT_POOL:
        s = all_screeners(lat)
        assert (s.vectors, s.norms) == _unpruned_screeners(lat), lat.gram


def test_shell_screeners_are_the_vectors_outside_2l():
    """On the norm-2t shell of M_t the norm is even and G x / t is integral,
    so a shell vector is a screener exactly when one of its coordinates is
    odd; over every walked t those vectors are all_screeners' output.  Shell
    vectors in 2L occur, so an even-norm test in its place would fail."""
    kinds = [("A", n) for n in range(1, 8)] + [("D", n) for n in range(4, 8)] + [("E", n) for n in range(6, 9)]
    lattices = CUT_POOL + [catalog(kind, n, scale) for kind, n in kinds for scale in (1, 2, 3)]
    in_2l = 0
    for lat in lattices:
        dn, hmin = _exponent_and_dual_minimum(lat)
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


def test_form_minimum_matches_enumeration():
    for lat in CUT_POOL[:100]:
        gram = [list(r) for r in lat.gram]
        bound = min(gram[i][i] for i in range(lat.rank))
        assert form_minimum(lat) == enumerate_up_to_norm(lat, bound).norms[0]


def test_e8_keeps_its_roots_at_the_cut():
    """E8 is unimodular with minimum 2, so t = 2 d_n / h_min = 1 is the one
    shell, reached with equality."""
    e8 = catalog("E", 8)
    assert _exponent_and_dual_minimum(e8) == (1, 2)
    s = all_screeners(e8)
    assert s.total_count == 240
    assert set(s.norms) == {2}


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
        _, _, v = smith_normal_form(g)
        if max(abs(x) for row in v for x in row).bit_length() >= 60:
            out.append(Lattice(g))
    return out


def test_shell_basis_spans_mod_kernel():
    """The Hermite basis mod t spans the same M_t as the Smith columns, lies
    in M_t, has index prod t / gcd(d_i, t) in Z^d, and its entries stay in
    [0, t] with pivots dividing t, however large V is: V goes in raw, as
    all_screeners passes it."""
    for lat in CUT_POOL + _skewed_dense_grams(4):
        gram = [list(r) for r in lat.gram]
        _, diag, v = smith_normal_form(gram)
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
