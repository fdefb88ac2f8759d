"""Metamorphic properties under a change of basis, searched by hypothesis.

A unimodular U takes the basis rows B to U B and the Gram matrix G to
U G U^T; a vector with coordinates x in the old basis has coordinates
y = x U^-1 in the new one, so x = y U.  Screeners are defined by the lattice alone, so the
screener set must move exactly that way, and the extended type must not
move at all.  Rescaling G by p keeps every screener of G, with p times
its norm, and adds new ones only when p is even and G is odd.  derandomize
keeps every run on the same examples.
"""

from functools import lru_cache

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from latscreen import (
    Lattice,
    all_screeners,
    analyze_screener,
    catalog,
    identify_extended_type,
    is_positive_definite,
    is_screener,
)
from latscreen.core import canonical
from latscreen.enumeration import short_vectors
from latscreen.intlinalg import identity, matmul

SETTINGS = settings(
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)

# lattices with non-root screeners, several scales and an orthogonal sum
KNOWN = [
    [[2, -1], [-1, 3]],
    [[4, -2], [-2, 2]],
    [[2, 0], [0, 4]],
    [[4, 0], [0, 3]],
    [[4, 1], [1, 4]],
    [[12, 0], [0, 2]],
    [[2, 0, 0], [0, 2, -1], [0, -1, 2]],
]


@st.composite
def unimodular(draw, d, reach=3):
    """A product of row additions (at most reach times a row), swaps and
    sign flips."""
    u = identity(d)
    for _ in range(draw(st.integers(0, 3 * d))):
        i, j = draw(st.integers(0, d - 1)), draw(st.integers(0, d - 1))
        op = draw(st.sampled_from(("add", "swap", "neg")))
        if op == "add" and i != j:
            f = draw(st.integers(-reach, reach))
            u[i] = [x + f * y for x, y in zip(u[i], u[j])]
        elif op == "swap":
            u[i], u[j] = u[j], u[i]
        else:
            u[i] = [-x for x in u[i]]
    return u


@st.composite
def random_gram(draw):
    d = draw(st.integers(1, 4))
    g = [[0] * d for _ in range(d)]
    for i in range(d):
        g[i][i] = draw(st.integers(1, 12))
        for j in range(i + 1, d):
            g[i][j] = g[j][i] = draw(st.integers(-4, 4))
    assume(is_positive_definite(g))
    return g


def _transform(gram, u):
    return matmul(matmul(u, gram), [list(c) for c in zip(*u)])


@SETTINGS
@given(st.one_of(st.sampled_from(KNOWN), random_gram()).flatmap(
    lambda g: st.tuples(st.just(g), unimodular(len(g)))))
def test_screeners_move_with_a_unimodular_basis_change(case):
    gram, u = case
    before = all_screeners(Lattice(gram))
    after = all_screeners(Lattice(_transform(gram, u)))
    moved = sorted(zip(after.norms, map(canonical, matmul(after.vectors, u))))
    assert list(zip(before.norms, before.vectors)) == moved


@SETTINGS
@given(st.one_of(st.sampled_from(KNOWN), random_gram()).flatmap(
    lambda g: st.tuples(st.just(g), unimodular(len(g), reach=2000),
                        st.integers(0, 3 * max(g[i][i] for i in range(len(g)))))))
def test_short_vectors_move_with_a_unimodular_basis_change(case):
    """The walk of U G U^T on its LLL state is the walk of G carried through
    U^-T: mapped back by y -> y U, its vectors and norms are those of G.
    Row additions of up to 2000 times a row give the images entries in the
    thousands, and bounds up to three times G's largest diagonal entry let
    LLL coordinates reach +-2 and beyond.  Every vector walked has
    canonical sign."""
    gram, u, bound = case
    walk = short_vectors(*Lattice(gram).lll_reduce(), bound)
    moved = short_vectors(*Lattice(_transform(gram, u)).lll_reduce(), bound)
    assert all(canonical(y) == y for y, _ in moved)
    back = map(canonical, matmul([y for y, _ in moved], u))
    assert sorted(zip((n for _, n in moved), back)) == sorted((n, x) for x, n in walk)


@SETTINGS
@given(st.one_of(st.sampled_from(KNOWN), random_gram()), st.integers(2, 5))
def test_scaling_keeps_the_screeners(gram, p):
    """With n = <x,x>_G, x is a screener of pG exactly when p n is even,
    x is not in 2L and n divides 2Gx.  For odd p or even G that is the
    condition on G, so the sets agree; for even p and odd G the vectors of
    odd n can join, and only those."""
    lat = Lattice(gram)
    scaled = Lattice([[p * v for v in row] for row in gram])
    before = all_screeners(lat)
    after = all_screeners(scaled)
    if p % 2 or lat.is_even:
        assert after.vectors == before.vectors
        assert after.norms == tuple(p * n for n in before.norms)
    else:
        norms = dict(zip(after.vectors, after.norms))
        assert all(norms.get(v) == p * n for v, n in zip(before.vectors, before.norms))
        for v in set(after.vectors) - set(before.vectors):
            assert lat.norm(v) % 2 == 1
            assert is_screener(scaled, v)


def _pair_invariants(lat, a):
    """The part of analyze_screener that the basis cannot move, after
    checking <gamma, alpha> = p - p' for every type I pair."""
    rep = analyze_screener(lat, a)
    entries = []
    for e in rep["entries"]:
        spec = e.get("type_i")
        if spec is not None:
            assert lat.dual_inner(spec.gamma, rep["alpha_used"]) == e["p"] - e["p_prime"]
        entries.append((e["p"], e["p_prime"], spec is not None, e["type_iv"]))
    return rep["norm"], rep["substituted"], rep["decompositions"], entries


@SETTINGS
@given(st.one_of(st.sampled_from(KNOWN), random_gram()).flatmap(
    lambda g: st.tuples(st.just(g), unimodular(len(g)))))
def test_pair_data_moves_with_a_unimodular_basis_change(case):
    """alpha in the new basis is x U^-1, so each screener and unit vector y
    of U G U^T is compared with x = y U of G: the splits, the norm, the
    odd-parity substitution, whether type I succeeds, <gamma, alpha> = p - p'
    and the type IV solutions stay.  gamma itself does not: it is folded
    from alpha's coordinates in index order, so c and the type II and III
    verdicts can change with the basis."""
    gram, u = case
    lat, moved = Lattice(gram), Lattice(_transform(gram, u))
    units = [tuple(int(i == j) for j in range(moved.rank)) for i in range(moved.rank)]
    for y in list(all_screeners(moved).vectors) + units:
        assert _pair_invariants(moved, y) == _pair_invariants(lat, matmul([y], u)[0])


CATALOG = [(kind, n, scale) for kind, ns in (("A", range(1, 6)), ("D", (4, 5)), ("E", (6,)))
           for n in ns for scale in (1, 2, 3)]


@lru_cache(maxsize=None)
def _type_of(gram):
    groups, sset = identify_extended_type(Lattice(gram))
    return [(g.label, g.scale, g.expected_count, g.actual_count) for g in groups], sset.total_count


@settings(SETTINGS, max_examples=40)
@given(st.sampled_from(CATALOG).flatmap(
    lambda c: st.tuples(st.just(c), unimodular(c[1]))))
def test_extended_type_ignores_the_basis(case):
    (kind, n, scale), u = case
    gram = catalog(kind, n, scale).gram
    scrambled = tuple(tuple(r) for r in _transform(gram, u))
    assert _type_of(scrambled) == _type_of(gram)


@settings(SETTINGS, max_examples=300)
@given(st.one_of(st.sampled_from(KNOWN), random_gram(),
                 st.sampled_from(CATALOG).map(lambda c: catalog(*c).gram)))
def test_screeners_are_closed_under_their_reflections(gram):
    """For screeners a and b, k = 2<a, b>/<a, a> is an integer and the
    reflection s_a(b) = b - k a is a screener again: the screeners form a
    root system, which the simple-root walk of recognition relies on."""
    lat = Lattice(gram)
    sset = all_screeners(lat)
    members = set(sset.vectors)
    for a, na in zip(sset.vectors, sset.norms):
        for b in sset.vectors:
            k, rest = divmod(2 * lat.inner(a, b), na)
            assert rest == 0
            assert canonical(tuple(y - k * x for x, y in zip(a, b))) in members
