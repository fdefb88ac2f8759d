import math
import random
import re
from fractions import Fraction

import pytest

from latscreen import (
    EnumerationResult,
    Lattice,
    LatticeError,
    catalog,
    enumerate_exact_norm,
    enumerate_up_to_norm,
)
from latscreen.core import canonical
from latscreen.enumeration import short_vectors
from latscreen.intlinalg import (
    bareiss,
    gram_schmidt,
    identity,
    lll_reduce,
    lll_rows,
    matmul,
    solve_linear_system,
)

from certificates import random_gram
from oracle import adjugate, box_limits, box_vectors, det_fraction

A2 = [[2, -1], [-1, 2]]


def random_lattice(rng, max_rank, max_entry, min_rank=1):
    return Lattice(random_gram(rng, max_rank, max_entry, min_rank))


def test_a2_small_bounds():
    lat = Lattice(A2)
    res = enumerate_up_to_norm(lat, 2)
    assert res.vectors == ((0, 1), (1, 0), (1, 1))
    assert res.norms == (2, 2, 2)
    res = enumerate_up_to_norm(lat, 6)
    assert res.vectors == ((0, 1), (1, 0), (1, 1), (1, -1), (1, 2), (2, 1))
    assert res.norms == (2, 2, 2, 6, 6, 6)


def test_rank1():
    res = enumerate_up_to_norm(Lattice([[2]]), 8)
    assert list(zip(res.vectors, res.norms)) == [((1,), 2), ((2,), 8)]
    assert len(enumerate_up_to_norm(Lattice([[2]]), 1)) == 0


def test_exact_norm():
    lat = Lattice(A2)
    assert enumerate_exact_norm(lat, 2).vectors == ((0, 1), (1, 0), (1, 1))
    assert len(enumerate_exact_norm(lat, 4)) == 0
    assert enumerate_exact_norm(lat, 6).vectors == ((1, -1), (1, 2), (2, 1))


def test_matches_box_oracle():
    rng = random.Random(101)
    for _ in range(200):
        lat = random_lattice(rng, 4, 10)
        bound = rng.randint(1, 20)
        res = enumerate_up_to_norm(lat, bound)
        expected = box_vectors([list(r) for r in lat.gram], bound)
        assert [(v, n) for v, n in zip(res.vectors, res.norms)] == expected


def test_matches_box_oracle_where_coordinate_limits_are_zero():
    """Bounds small enough that the box limit of some coordinate is 0, at
    every position: the box scan's half box starts past those zeros."""
    rng = random.Random(31)
    cases = [(random_lattice(rng, 3, 8), rng.randint(1, 15)) for _ in range(60)]
    cases += [(random_lattice(rng, 4, 8, min_rank=3), rng.randint(1, 4)) for _ in range(40)]
    zero_limits = set()
    for lat, bound in cases:
        res = enumerate_up_to_norm(lat, bound)
        gram = [list(r) for r in lat.gram]
        assert list(zip(res.vectors, res.norms)) == box_vectors(gram, bound)
        zero_limits.update(j for j, m in enumerate(box_limits(gram, bound)) if m == 0)
    assert zero_limits == {0, 1, 2, 3}


def test_coordinate_limits_are_the_exact_box():
    """The box scan's limit m_j is the largest m with m^2 det G <=
    bound * (adj G)_jj, so the box holds every vector of norm <= bound and
    no wider coordinate: on Grams of rank 1-6, a third of them scaled by
    10^18, at bounds 0, 1, 2 and random bounds up to 10^6 and 10^40."""
    rng = random.Random(2204)
    for case in range(300):
        d = rng.randint(1, 6)
        gram = _dense_gram(rng, d)
        if case % 3 == 0:
            gram = [[10**18 * v for v in row] for row in gram]
        det, adj = int(det_fraction(gram)), adjugate(gram)
        for bound in (0, 1, 2, rng.randint(0, 10**6), rng.randint(0, 10**40)):
            for j, m in enumerate(box_limits(gram, bound)):
                assert m * m * det <= bound * adj[j][j] < (m + 1) ** 2 * det, (gram, bound, j)


def _dense_gram(rng, d):
    """A A^T + D with entries of A in [-1, 1] and of D in [1, 3]: definite,
    with (G^-1)_jj <= 1, so the box scan stays small up to rank 6."""
    a = [[rng.randint(-1, 1) for _ in range(d)] for _ in range(d)]
    g = matmul(a, list(zip(*a)))
    for i in range(d):
        g[i][i] += rng.randint(1, 3)
    return g


def bareiss_levels(gram):
    """The minors D_k and lam[j][i] = row i of D_i S_i, read off the matrix
    a fraction-free Bareiss pass returns: the levels short_vectors walks on,
    with the identity for u."""
    d = len(gram)
    a, _ = bareiss(gram)
    minors = [1] + [a[i][i] for i in range(d)]
    lam = [[a[i][j] if i < j else 0 for i in range(d)] for j in range(d)]
    return minors, lam


def test_depth_first_walks_one_vector_of_each_pair():
    """The walker on the Bareiss levels of Grams of rank 1-6 as drawn (not
    LLL reduced), with the identity for u, a third of them scaled by 10^18:
    exactly one vector of each +-pair of the box scan, with canonical sign
    and its norm, and never the zero vector."""
    rng = random.Random(907)
    for case in range(120):
        d = 1 + case % 6
        gram = _dense_gram(rng, d)
        bound = rng.randint(0, 2 * d + 2)
        s = 10**18 if case // 6 % 3 == 0 else 1
        walked = short_vectors(identity(d), *bareiss_levels([[s * v for v in row] for row in gram]), s * bound)
        for x, _ in walked:
            assert any(x) and canonical(x) == x, (gram, bound, x)
        expected = [(n * s, x) for x, n in box_vectors(gram, bound)]
        assert sorted((n, x) for x, n in walked) == sorted(expected), (gram, bound)


# forms whose minimum lies one below the shortest LLL diagonal b
BELOW_LLL_DIAGONAL = [
    [[14, -8, 9], [-8, 13, -1], [9, -1, 14]],
    [[4, 2, 4, -2], [2, 18, -7, 2], [4, -7, 10, 1], [-2, 2, 1, 19]],
]


def lambda_1(lat, u, minors, lam):
    """lambda_1(L) by the rule of all_screeners: the least norm short_vectors
    finds on the state u, minors, lam = lat.lll_reduce() up to b - 1, b the
    shortest LLL diagonal, or b when it finds nothing."""
    b = min(map(lat.norm, u))
    return min((nrm for _, nrm in short_vectors(u, minors, lam, b - 1)), default=b)


def test_lambda_1_rule_matches_the_box_minimum():
    """The walk of short_vectors up to b - 1, b the shortest LLL diagonal,
    falling back to b, gives the minimum.  Rank 1, Z^n, A2 and the catalog
    have minimum b and their walk to b - 1 is empty; the fixed forms have
    minimum b - 1; seeded forms of rank 1-4 are checked against the box scan
    too."""
    rng = random.Random(419)
    at_diagonal = [[[k]] for k in (1, 2, 7)] + [identity(n) for n in range(1, 6)] + [A2]
    seeded = [[list(r) for r in random_lattice(rng, 4, 6).gram] for _ in range(40)]
    one_below = 0
    for gram in at_diagonal + BELOW_LLL_DIAGONAL + seeded:
        u, minors, lam = Lattice(gram).lll_reduce()
        red = matmul(matmul(u, gram), list(zip(*u)))
        b = min(red[i][i] for i in range(len(red)))
        minimum = box_vectors(gram, b)[0][1]
        assert lambda_1(Lattice(gram), u, minors, lam) == minimum, gram
        one_below += minimum == b - 1
        if gram in at_diagonal:
            assert minimum == b and short_vectors(identity(len(gram)), *bareiss_levels(red), b - 1) == [], gram
    assert one_below >= len(BELOW_LLL_DIAGONAL)
    for kind, n in [("A", 1), ("A", 5), ("D", 4), ("D", 6), ("E", 6), ("E", 7), ("E", 8)]:
        for scale in (1, 3):
            lat = catalog(kind, n, scale)
            assert lambda_1(lat, *lat.lll_reduce()) == 2 * scale


def test_canonical_and_sorted():
    rng = random.Random(7)
    for _ in range(50):
        lat = random_lattice(rng, 4, 8)
        res = enumerate_up_to_norm(lat, 12)
        seen = set()
        prev = None
        for v, n in zip(res.vectors, res.norms):
            nz = next((t for t in v if t != 0), None)
            assert nz is not None and nz > 0  # canonical sign
            assert tuple(-t for t in v) not in seen
            seen.add(v)
            assert lat.norm(v) == n <= 12
            key = (n, v)
            assert prev is None or prev < key
            prev = key


def test_coordinate_bound():
    """Every solution obeys the dual-diagonal box bound |x_j|^2 <= B (G^-1)_jj."""
    rng = random.Random(53)
    for _ in range(40):
        lat = random_lattice(rng, 4, 8)
        d = lat.rank
        rows = [list(r) for r in lat.gram]
        inv_diag = []
        for j in range(d):
            rhs = [Fraction(1 if i == j else 0) for i in range(d)]
            col = solve_linear_system(rows, rhs)
            inv_diag.append(col[j])
        bound = rng.randint(1, 16)
        res = enumerate_up_to_norm(lat, bound)
        for v in res.vectors:
            for j, t in enumerate(v):
                assert Fraction(t * t) <= bound * inv_diag[j]


def test_object_path_for_huge_entries():
    big = 10**9
    lat = Lattice([[2 * big, -big], [-big, 2 * big]])
    res = enumerate_up_to_norm(lat, 2 * big)
    assert res.vectors == ((0, 1), (1, 0), (1, 1))


def test_scaling_by_huge_factor_matches_oracle():
    """Scaling G and the bound by 10^18 keeps the vectors and scales the norms;
    at this size every product leaves int64, including in the box scan."""
    s = 10**18
    rng = random.Random(211)
    for _ in range(40):
        lat = random_lattice(rng, 4, 10)
        bound = rng.randint(1, 20)
        expected = [(v, s * n) for v, n in box_vectors([list(r) for r in lat.gram], bound)]
        scaled = Lattice([[s * v for v in row] for row in lat.gram])
        res = enumerate_up_to_norm(scaled, s * bound)
        assert list(zip(res.vectors, res.norms)) == expected


def test_empty_and_degenerate_bounds():
    lat = Lattice(A2)
    for bounded in (lat, Lattice([[2]])):
        empty = EnumerationResult(lattice=bounded, bound=0, vectors=(), norms=())
        assert enumerate_up_to_norm(bounded, 0) == empty
        assert box_vectors([list(r) for r in bounded.gram], 0) == []
    assert len(enumerate_up_to_norm(lat, 1)) == 0
    with pytest.raises(ValueError):
        enumerate_up_to_norm(lat, -1)


def test_enumerate_up_to_norm_rejects_a_non_integer_bound():
    """A float, str or Fraction bound is refused, not truncated, as a Gram
    entry is."""
    lat = Lattice(A2)
    for bound in (2.5, "8", Fraction(5, 2), Fraction(2)):
        with pytest.raises(LatticeError, match=f"norm bound is {re.escape(repr(bound))}, not an integer"):
            enumerate_up_to_norm(lat, bound)
    assert len(enumerate_up_to_norm(lat, 2)) == 3


def test_enumerate_exact_norm_rejects_a_non_integer_norm():
    """Truncating 2.5 used to return the norm-2 vector of [[2]]."""
    lat = Lattice([[2]])
    with pytest.raises(LatticeError, match="norm is 2.5, not an integer"):
        enumerate_exact_norm(lat, 2.5)
    assert enumerate_exact_norm(lat, 2).vectors == ((1,),)


def test_root_counts_of_standard_lattices():
    # full root systems, counted with both signs
    assert 2 * len(enumerate_exact_norm(catalog("A", 4), 2)) == 20
    assert 2 * len(enumerate_exact_norm(catalog("D", 5), 2)) == 40
    assert 2 * len(enumerate_exact_norm(catalog("E", 6), 2)) == 72
    assert 2 * len(enumerate_exact_norm(catalog("E", 7), 2)) == 126
    assert 2 * len(enumerate_exact_norm(catalog("E", 8), 2)) == 240


def skewed_gram(rng, d, scaled):
    """The Gram of a random nonsingular basis of rank d, sheared so that LLL
    has work to do, times 10^18 when scaled."""
    while True:
        b = [[rng.randint(-9, 9) for _ in range(d)] for _ in range(d)]
        if det_fraction(b) != 0:
            break
    for _ in range(2 * d):
        i, j = rng.sample(range(d), 2) if d > 1 else (0, 0)
        if i != j:
            f = rng.randint(-6, 6)
            b[i] = [x + f * y for x, y in zip(b[i], b[j])]
    s = 10**18 if scaled else 1
    return [[s * v for v in row] for row in matmul(b, list(zip(*b)))]


def test_lll_reduce_is_unimodular_and_reduced():
    """The rows every walk runs on: unimodular, size reduced (|mu_ij| <= 1/2)
    and Lovasz reduced with delta = 3/4, checked by fraction Gram-Schmidt on
    the reduced Gram, on skewed Grams of rank 1-8, some scaled by 10^18;
    lll_rows gives the same rows."""
    rng = random.Random(61)
    moved = 0
    for case in range(120):
        d = 1 + case % 8
        gram = skewed_gram(rng, d, case % 3 == 0)
        u = lll_reduce(*gram_schmidt(gram))[0]
        assert lll_rows(gram) == u
        assert abs(det_fraction(u)) == 1, gram
        red = matmul(matmul(u, gram), list(zip(*u)))
        mu = [[Fraction(0)] * d for _ in range(d)]
        bstar = []
        for i in range(d):
            for j in range(i):
                mu[i][j] = (red[i][j] - sum(mu[j][t] * mu[i][t] * bstar[t] for t in range(j))) / bstar[j]
                assert abs(mu[i][j]) <= Fraction(1, 2), (gram, i, j)
            bstar.append(red[i][i] - sum(mu[i][t] ** 2 * bstar[t] for t in range(i)))
        for k in range(1, d):
            assert bstar[k] >= (Fraction(3, 4) - mu[k][k - 1] ** 2) * bstar[k - 1], (gram, k)
        moved += any(u[i][j] != (i == j) for i in range(d) for j in range(d))
    assert moved > 60


def test_lll_state_is_the_bareiss_levels_of_the_reduced_gram():
    """What the walker reads off lll_reduce: its minors and lam are the
    pivots and the rows right of the diagonal of a Bareiss pass on
    u G u^T, on skewed Grams of rank 1-8, a third of them scaled by 10^18.
    The state LLL starts from, gram_schmidt of G, is the same Bareiss
    reading of G itself, and it is the state a Lattice keeps."""
    rng = random.Random(173)
    for case in range(240):
        d = 1 + case % 8
        gram = skewed_gram(rng, d, case // 8 % 3 == 0)
        assert gram_schmidt(gram) == bareiss_levels(gram), gram
        u, minors, lam = lll_reduce(*gram_schmidt(gram))
        assert Lattice(gram).lll_reduce() == (u, minors, lam), gram
        red = matmul(matmul(u, gram), list(zip(*u)))
        assert (minors, lam) == bareiss_levels(red), gram


def test_walking_a_lattice_leaves_its_state_unchanged():
    """Every walk starts LLL from the state the Lattice keeps, so a second
    walk of the same Lattice gives the same vectors, and the
    lattice's attributes are unchanged after both, also when a caller
    edits the lists one lll_reduce call returned."""
    rng = random.Random(887)
    for case in range(40):
        d = 1 + case % 6
        lat = Lattice(skewed_gram(rng, d, False))
        state = dict(vars(lat))
        first = lat.lll_reduce()
        u, minors, lam = lat.lll_reduce()
        u[0][0] += 1
        minors[-1] += 1
        lam[-1][0] += 1
        bound = 2 * first[1][1]  # twice the norm of the first reduced vector
        walks = [(enumerate_up_to_norm(lat, bound), short_vectors(*lat.lll_reduce(), bound)) for _ in range(2)]
        assert walks[0] == walks[1], lat
        assert vars(lat) == state and lat.lll_reduce() == first, lat
