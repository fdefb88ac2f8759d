import hashlib
import random
import re
from collections import Counter

import pytest

from latscreen import (
    ClassificationError,
    Decomposition,
    Lattice,
    LatticeError,
    NoScreener,
    NotGeneratedError,
    ScreenerSet,
    WARN_2B_ODD,
    all_screeners,
    catalog,
    decompose,
    identify_extended_type,
    is_positive_definite,
    is_screener,
    rank2_normal_form,
    rank2_predicted_in_lattice,
    recognize_components,
    reduce_screener_basis,
)
from certificates import orthogonal_sum, scrambled, ternary_forms
from latscreen import intlinalg, recognition
from latscreen.intlinalg import determinant

A2 = [[2, -1], [-1, 2]]


# ---------------------------------------------------------------- reduction

def test_reduce_identity_on_orthogonal_basis():
    lat = Lattice([[2, 0], [0, 4]])
    assert reduce_screener_basis(lat, [(1, 0), (0, 1)]) == [(1, 0), (0, 1)]


def test_reduce_two_a1():
    lat = Lattice([[2, -2], [-2, 4]])
    out = reduce_screener_basis(lat, [(1, 0), (0, 1)])
    assert out == [(1, 0), (1, 1)]
    assert lat.inner(out[0], out[1]) == 0
    assert [lat.norm(v) for v in out] == [2, 2]


def test_reduce_requires_even():
    with pytest.raises(LatticeError, match="even"):
        reduce_screener_basis(Lattice([[1, 0], [0, 2]]), [(1, 0), (0, 1)])


def test_reduce_requires_basis_of_screeners():
    lat = Lattice(A2)
    with pytest.raises(LatticeError, match="not a basis"):
        reduce_screener_basis(lat, [(1, 0), (2, 0)])
    lat2 = Lattice([[2, 0], [0, 6]])
    # (1, 1) has norm 8 and fails the divisibility test
    with pytest.raises(LatticeError, match="not a screening vector"):
        reduce_screener_basis(lat2, [(1, 0), (1, 1)])


def test_reduce_refuses_a_float_basis_vector():
    """(1.7, 0) was truncated to (1, 0), not refused."""
    with pytest.raises(LatticeError, match=r"basis vector \(1.7, 0\) has an entry that is not an integer"):
        reduce_screener_basis(Lattice([[2, 0], [0, 2]]), [(1.7, 0), (0, 1)])


def test_reduce_output_invariants():
    """Reduced vectors stay screeners, span the same lattice, and vectors of
    different norms end up orthogonal."""
    for lat in [Lattice(A2), catalog("A", 3), catalog("A", 4), catalog("D", 4),
                catalog("D", 5), catalog("E", 6), Lattice([[2, -2], [-2, 4]])]:
        out = reduce_screener_basis(lat, decompose(lat).simple_roots)
        assert determinant([list(v) for v in out]) in (1, -1)
        for v in out:
            assert is_screener(lat, v)
        for i, u in enumerate(out):
            for w in out[i + 1:]:
                if lat.norm(u) != lat.norm(w):
                    assert lat.inner(u, w) == 0


# ------------------------------------------------------------- recognition

def test_recognize_single_root_lattices():
    for name, n in (("A", 2), ("A", 3), ("A", 4), ("D", 4), ("D", 5), ("E", 6)):
        comps = recognize_components(catalog(name, n)).components
        assert len(comps) == 1
        c = comps[0]
        assert (c.kind, c.n, c.scale) == (name, n, 1)
        assert c.label == f"{name}{n}"


def test_recognize_root_counts():
    assert recognize_components(catalog("D", 4)).components[0].root_count == 24
    assert recognize_components(catalog("E", 6)).components[0].root_count == 72


def test_recognize_mixed_scales():
    dec = recognize_components(Lattice([[2, 0], [0, 4]]))
    assert [(c.kind, c.n, c.scale) for c in dec.components] == [("A", 1, 1), ("A", 1, 2)]
    assert dec.simple_roots == ((0, 1), (1, 0))


def test_screener_basis_not_generated():
    """The screeners of [[4, 0], [0, 3]] (only (1, 0)) hold no basis of L."""
    lat = Lattice([[4, 0], [0, 3]])
    assert recognize_components(lat).simple_roots == ((1, 0),)
    with pytest.raises(NotGeneratedError, match="do not generate"):
        decompose(lat)


def test_generation_check_agrees_with_the_determinant():
    """decompose accepts a lattice exactly when its screeners generate it,
    that is when their Hermite form has rank d and determinant +-1.  Both
    tests must agree on generating sets, on rank-deficient ones and on
    spans of index 2."""
    rng = random.Random(2031)
    grams = [[[4, 1], [1, 4]], [[4, 0], [0, 3]], [[2, 0], [0, 4]]]
    grams += [scrambled(orthogonal_sum(parts), rng)
              for parts in ([("A", 2, 1)], [("D", 4, 2)], [("A", 1, 1), ("A", 3, 2)])]
    while len(grams) < 80:
        d = rng.randint(1, 4)
        g = [[0] * d for _ in range(d)]
        for i in range(d):
            g[i][i] = rng.randint(1, 10)
            for j in range(i + 1, d):
                g[i][j] = g[j][i] = rng.randint(-3, 3)
        if is_positive_definite(g):
            grams.append(g)
    indices = set()
    for gram in grams:
        lat = Lattice(gram)
        sset = all_screeners(lat)
        span = intlinalg.hnf_rows([list(v) for v in sset.vectors])
        index = abs(determinant(span)) if len(span) == lat.rank else 0
        indices.add(index)
        if index == 1:
            assert decompose(lat).screeners == sset, gram
        else:
            with pytest.raises(NotGeneratedError, match="do not generate"):
                decompose(lat)
    assert {0, 1, 2} <= indices


# ------------------------------------------------------- extended matching

def test_extended_types_of_standard_lattices():
    cases = [
        ([[2]], [("A", 1, 1, 2)]),
        (A2, [("G", 2, 1, 12)]),
        (catalog("A", 3), [("C", 3, 1, 18)]),
        (catalog("A", 4), [("A", 4, 1, 20)]),
        (catalog("D", 4), [("F", 4, 1, 48)]),
        (catalog("D", 5), [("C", 5, 1, 50)]),
        (catalog("D", 6), [("C", 6, 1, 72)]),
        (catalog("E", 6), [("E", 6, 1, 72)]),
        (catalog("E", 8), [("E", 8, 1, 240)]),
        ([[4, -2], [-2, 2]], [("B", 2, 1, 8)]),
        ([[2, 0], [0, 2]], [("B", 2, 1, 8)]),
        ([[2, 0, 0], [0, 2, 0], [0, 0, 2]], [("B", 3, 1, 18)]),
        ([[2, 0], [0, 4]], [("A", 1, 1, 2), ("A", 1, 2, 2)]),
    ]
    for gram, expected in cases:
        lat = gram if isinstance(gram, Lattice) else Lattice(gram)
        groups, sset = identify_extended_type(lat)
        got = [(g.name, g.n, g.scale, g.actual_count) for g in groups]
        assert got == expected, lat.gram
        for g in groups:
            assert g.actual_count == g.expected_count
        assert sum(g.actual_count for g in groups) == sset.total_count


def test_extended_preconditions():
    with pytest.raises(NotGeneratedError, match="not even"):
        identify_extended_type(Lattice([[1, 0], [0, 1]]))
    with pytest.raises(NotGeneratedError, match="not even"):
        identify_extended_type(Lattice([[4, 0], [0, 3]]))
    # screeners (1,1), (1,-1) only span an index-2 sublattice here
    with pytest.raises(NotGeneratedError, match="do not generate"):
        identify_extended_type(Lattice([[4, 1], [1, 4]]))


def test_rescaled_lattice_keeps_group_shape():
    for scale in (2, 3):
        groups, _ = identify_extended_type(catalog("A", 2, scale=scale))
        assert [(g.name, g.n, g.scale) for g in groups] == [("G", 2, scale)]
        groups, _ = identify_extended_type(catalog("D", 4, scale=scale))
        assert [(g.name, g.n, g.scale) for g in groups] == [("F", 4, scale)]


def test_f4_merge_witness():
    """The norm-4 screeners of D4 supply the long roots of the F4 merge."""
    lat = catalog("D", 4)
    s = all_screeners(lat)
    by_norm = {}
    for v, n in zip(s.vectors, s.norms):
        by_norm.setdefault(n, []).append(v)
    assert len(by_norm[2]) == 12
    assert len(by_norm[4]) == 12
    signed = set(by_norm[4]) | {tuple(-t for t in v) for v in by_norm[4]}
    assert (-1, 0, 0, 1) in signed
    assert (1, -1, 0, 0) in signed


# ------------------------------------------------------------ rank-2 forms

def test_rank2_requires_rank2():
    with pytest.raises(LatticeError):
        rank2_normal_form(Lattice([[2]]))


def test_rank2_no_screener():
    assert isinstance(rank2_normal_form(Lattice([[3, 0], [0, 5]])), NoScreener)


def test_rank2_type1():
    f = rank2_normal_form(Lattice([[4, 0], [0, 3]]))
    assert (f.kind, f.p, f.m, f.subtype) == ("type1", 2, 3, None)
    assert f.gram.gram == ((4, 0), (0, 3))
    assert rank2_predicted_in_lattice(f) == ((1, 0),)

    f = rank2_normal_form(Lattice([[2, 0], [0, 4]]))
    assert (f.kind, f.p, f.m, f.subtype) == ("type1", 1, 4, None)
    assert rank2_predicted_in_lattice(f) == ((0, 1), (1, 0))

    f = rank2_normal_form(Lattice([[12, 0], [0, 2]]))
    assert (f.kind, f.p, f.m, f.subtype) == ("type1", 1, 12, None)


def test_rank2_type2_subtypes():
    f = rank2_normal_form(Lattice(A2))
    assert (f.kind, f.p, f.m, f.subtype) == ("type2", 1, 2, "2c")
    assert f.warnings == ()

    f = rank2_normal_form(Lattice([[2, 1], [1, 3]]))
    assert (f.kind, f.p, f.m, f.subtype) == ("type2", 1, 3, "2a")
    assert f.gram.gram == ((2, -1), (-1, 3))

    f = rank2_normal_form(Lattice([[5, 1], [1, 5]]))
    assert (f.kind, f.p, f.m, f.subtype) == ("type2", 4, 5, "2a")

    # diag(2,2) converts from the m = 2p corner into subtype 2b
    f = rank2_normal_form(Lattice([[2, 0], [0, 2]]))
    assert (f.kind, f.p, f.m, f.subtype) == ("type2", 2, 2, "2b")
    assert f.gram.gram == ((4, -2), (-2, 2))
    assert f.warnings == ()

    f = rank2_normal_form(Lattice([[4, -2], [-2, 2]]))
    assert (f.kind, f.p, f.m, f.subtype) == ("type2", 2, 2, "2b")


def test_rank2_odd_2b_flag():
    """Odd scale in subtype 2b: the nominal list contains non-screeners, the
    discrepancy is flagged instead of silently adopted."""
    for gram in ([[1, 0], [0, 1]], [[3, 0], [0, 3]]):
        lat = Lattice(gram)
        f = rank2_normal_form(lat)
        assert f.subtype == "2b"
        assert f.p % 2 == 1
        assert f.warnings == (WARN_2B_ODD,)
        predicted = set(rank2_predicted_in_lattice(f))
        actual = set(all_screeners(lat).vectors)
        assert actual < predicted
        for v in predicted - actual:
            assert not is_screener(lat, v)


def test_rank2_random_agreement():
    """Unflagged normal forms predict the screener set exactly; flagged ones
    over-predict and every extra fails the definition."""
    rng = random.Random(4177)
    done = 0
    while done < 200:
        a = rng.randint(1, 20)
        c = rng.randint(1, 20)
        b = rng.randint(-20, 20)
        g = [[a, b], [b, c]]
        if not is_positive_definite(g):
            continue
        done += 1
        lat = Lattice(g)
        f = rank2_normal_form(lat)
        actual = set(all_screeners(lat).vectors)
        if isinstance(f, NoScreener):
            assert not actual
            continue
        predicted = set(rank2_predicted_in_lattice(f))
        if f.warnings:
            assert actual < predicted
            for v in predicted - actual:
                assert not is_screener(lat, v)
        else:
            assert predicted == actual, (g, sorted(predicted), sorted(actual))
        # basis change really is unimodular and reproduces the normal form
        cols = f.basis_change
        assert determinant([list(r) for r in cols]) in (1, -1)
        assert lat.row_gram(list(zip(*cols))) == [list(r) for r in f.gram.gram]


RANK2_SHA256 = "5efdecc0e2f56a952d60967d18f334ee9cb75c83fe5abb72ad47910cc96fde06"


def test_rank2_normal_form_is_pinned():
    """One sha256 over repr(rank2_normal_form(Lattice(g))) for every
    positive definite [[a, b], [b, c]] with 1 <= a <= c <= 15 and |b| <= a,
    as is, with a and c swapped and with b negated: 4350 forms of every kind
    and subtype, 39 of them from the diag(2p, 2p) corner and 48 warned.  Any
    move of a basis change, a scale or a warning moves it."""
    h = hashlib.sha256()
    kinds = Counter()
    for a in range(1, 16):
        for c in range(a, 16):
            for b in range(-a, a + 1):
                if a * c > b * b:
                    for g in ([[a, b], [b, c]], [[c, b], [b, a]], [[a, -b], [-b, c]]):
                        f = rank2_normal_form(Lattice(g))
                        h.update(repr(f).encode())
                        kinds[None if isinstance(f, NoScreener) else (f.subtype or f.kind, bool(f.warnings))] += 1
    assert kinds == {
        None: 2538, ("type1", False): 675, ("2a", False): 1008,
        ("2b", False): 39, ("2b", True): 48, ("2c", False): 42,
    }
    assert h.hexdigest() == RANK2_SHA256


# ---------------------------------------------------------------- catalogs

def test_catalog_a():
    assert catalog("A", 1).gram == ((2,),)
    assert catalog("A", 2).gram == ((2, -1), (-1, 2))
    assert catalog("A", 3).gram == ((2, -1, 0), (-1, 2, -1), (0, -1, 2))
    assert catalog("A", 3).determinant == 4


def test_catalog_d():
    assert catalog("D", 2).gram == ((2, 0), (0, 2))
    d4 = catalog("D", 4)
    assert d4.determinant == 4
    assert 2 * len(all_screeners(d4)) == 48
    assert catalog("D", 5).determinant == 4


def test_catalog_e():
    assert catalog("E", 6).determinant == 3
    assert catalog("E", 7).determinant == 2
    assert catalog("E", 8).determinant == 1


def test_catalog_grams_are_pinned():
    """One digest over every catalog Gram matrix A1-A12, D2-D12 and E6-E8
    at scales 1-3, computed with one hand-written Gram function per family,
    so a new construction must give every matrix entry for entry."""
    names = ([("A", n) for n in range(1, 13)] + [("D", n) for n in range(2, 13)]
             + [("E", n) for n in (6, 7, 8)])
    grams = [(k, n, s, catalog(k, n, s).gram) for k, n in names for s in (1, 2, 3)]
    digest = hashlib.sha256(repr(grams).encode()).hexdigest()
    assert digest == "38da08316410d8b09a3b15424c2d1223972362b83e0570389ce69ae2b3d57e02"


def test_catalog_scale_and_errors():
    assert catalog("A", 2, scale=3).gram == ((6, -3), (-3, 6))
    with pytest.raises(LatticeError):
        catalog("E", 5)
    with pytest.raises(LatticeError):
        catalog("A", 0)
    with pytest.raises(LatticeError):
        catalog("D", 1)
    with pytest.raises(LatticeError):
        catalog("A", 2, scale=0)
    # n = 2.0 raised a bare TypeError from range, and scale 2.5 was blamed
    # as "Gram entry (0, 0) is 5.0"; the refusal names the values given
    for n, scale, shown in [(2.0, 1, "2.0 at scale 1"), (2, 2.5, "2 at scale 2.5"),
                            ("2", 1, "'2' at scale 1"), (2, None, "2 at scale None")]:
        with pytest.raises(LatticeError, match=f"^catalog A {shown}: n and scale must be integers$"):
            catalog("A", n, scale)


def test_screener_norms_live_in_three_shells():
    """All screener norms sit in {2p, 4p, 6p} for the lattice scale p."""
    for lat in [Lattice(A2), catalog("A", 3), catalog("D", 4), catalog("D", 5),
                catalog("D", 6), catalog("E", 6), catalog("A", 3, scale=2),
                Lattice([[2, 0], [0, 2]]), Lattice([[4, -2], [-2, 2]])]:
        s = all_screeners(lat)
        p = s.min_norm // 2
        assert set(s.norms) <= {2 * p, 4 * p, 6 * p}


# --------------------------------------------------------------- roundtrip

def _roundtrip_sums():
    """50 block sums of rescaled root lattices, each in a scrambled basis."""
    pool = [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("D", 4), ("D", 5)]
    rng = random.Random(2029)
    for _ in range(50):
        k = rng.randint(1, 3)
        parts = []
        for _ in range(k):
            name, n = rng.choice(pool)
            scale = rng.choice((1, 1, 2))
            parts.append((name, n, scale))
        parts.sort()
        yield parts, scrambled(orthogonal_sum(parts), rng)


def test_roundtrip_scrambled_orthogonal_sums():
    """Block sums of rescaled root lattices survive a unimodular scramble:
    the recognized component multiset equals the construction."""
    for parts, gram in _roundtrip_sums():
        got = sorted((c.kind, c.n, c.scale) for c in decompose(Lattice(gram)).components)
        assert got == parts, (parts, gram)


# --------------------------------------- recognition against the root count

def _type_by_root_count(rank, count, short):
    """The irreducible root system with this rank, number of roots and
    number of roots of the shortest norm."""
    if short == count:
        if count == rank * (rank + 1):
            return "A"
        if rank >= 4 and count == 2 * rank * (rank - 1):
            return "D"
        if {6: 72, 7: 126, 8: 240}.get(rank) == count:
            return "E"
    elif count == 2 * rank * rank and short in (2 * rank, 2 * rank * (rank - 1)):
        return "B" if short == 2 * rank else "C"
    elif (rank, count, short) in ((4, 48, 24), (2, 12, 6)):
        return "F" if rank == 4 else "G"
    raise ValueError(f"no root system of rank {rank} has {count} roots, {short} of them short")


def _components_by_root_count(lat, vectors):
    """The reference recognition, which needs no simple roots: a union-find
    over the nonzero inner products of all the vectors, each class typed by
    its rank, root count and short-root count.  Gives (type, rank, scale,
    root count, short vectors) per class."""
    vecs = list(vectors)
    ips = lat.row_gram(vecs)
    parent = list(range(len(vecs)))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i in range(len(vecs)):
        for j in range(i + 1, len(vecs)):
            if ips[i][j] and find(i) != find(j):
                parent[find(i)] = find(j)
    classes = {}
    for k in range(len(vecs)):
        classes.setdefault(find(k), []).append(k)
    out = []
    for members in classes.values():
        shortest = min(ips[k][k] for k in members)
        short = [vecs[k] for k in members if ips[k][k] == shortest]
        rank = intlinalg.rank([list(vecs[k]) for k in members])
        count = 2 * len(members)
        out.append((_type_by_root_count(rank, count, 2 * len(short)), rank, shortest // 2, count, short))
    return out


def _nonnegative_coefficients(lat, basis, vectors):
    """Assert that every vector is a combination of the basis with
    nonnegative integer coefficients (so basis is the base of the positive
    system holding the vectors: Humphreys §10.1) and return how many there
    are."""
    gram = lat.row_gram(basis)
    n = len(basis)
    cols = [intlinalg.solve_linear_system(gram, [int(i == j) for i in range(n)]) for j in range(n)]
    pairings = intlinalg.matmul(vectors, intlinalg.matmul(lat.gram, list(zip(*basis))))
    for v, row in zip(vectors, pairings):
        coeffs = [sum(p * c[j] for p, c in zip(row, cols)) for j in range(n)]
        assert all(c.denominator == 1 and c >= 0 for c in coeffs), (basis, v, coeffs)
        assert tuple(sum(int(c) * b[i] for c, b in zip(coeffs, basis)) for i in range(lat.rank)) == v
    return len(vectors)


def _assert_recognition_matches_reference(gram):
    """Every ExtendedGroup field equals the root-count reference's; the
    simple roots and every component's basis are bases of their roots; and
    `decompose` returns what `recognize_components` returns."""
    lat = Lattice(gram)
    sset = all_screeners(lat)
    dec = recognize_components(lat, sset)
    got = sorted(
        (g.name, g.n, g.scale, g.expected_count, g.actual_count,
         sorted((c.kind, c.n, c.scale, c.root_count) for c in g.components))
        for g in dec.groups
    )
    want = sorted(
        (name, n, scale, count, count,
         sorted((kind, m, scale, c) for kind, m, _, c, _ in _components_by_root_count(lat, short)))
        for name, n, scale, count, short in _components_by_root_count(lat, sset.vectors)
    )
    assert got == want, gram
    assert [(g.scale, g.n, g.name) for g in dec.groups] == sorted((g.scale, g.n, g.name) for g in dec.groups)
    assert dec.simple_roots == tuple(sorted(dec.simple_roots))
    assert _nonnegative_coefficients(lat, dec.simple_roots, sset.vectors) == len(sset)
    for c in dec.components:
        roots = [v for v, nrm in zip(sset.vectors, sset.norms)
                 if nrm == 2 * c.scale and any(lat.inner(v, b) for b in c.basis)]
        assert 2 * _nonnegative_coefficients(lat, c.basis, roots) == c.root_count, (gram, c)
    assert decompose(lat) == dec == recognize_components(lat), gram


def test_recognition_matches_the_root_count_on_the_catalog():
    """A1-A10, D4-D10, E6-E8 at scales 1-4, in their own basis and in a
    seeded scrambled one."""
    rng = random.Random(4410)
    for scale in (1, 2, 3, 4):
        for kind, ns in (("A", range(1, 11)), ("D", range(4, 11)), ("E", (6, 7, 8))):
            for n in ns:
                gram = [list(r) for r in catalog(kind, n, scale=scale).gram]
                _assert_recognition_matches_reference(gram)
                _assert_recognition_matches_reference(scrambled(gram, rng))


def test_recognition_matches_the_root_count_on_orthogonal_sums():
    for _, gram in _roundtrip_sums():
        _assert_recognition_matches_reference(gram)


def test_recognize_rejects_a_foreign_screener_set():
    lat = Lattice([[2, 0], [0, 2]])
    with pytest.raises(LatticeError, match="another lattice"):
        recognize_components(lat, all_screeners(Lattice(A2)))


def test_decomposition_carries_the_simple_roots_and_groups():
    lat = catalog("D", 4)
    dec = decompose(lat)
    assert isinstance(dec, Decomposition)
    assert [lat.norm(r) for r in dec.simple_roots] == [2, 2, 4, 4]
    assert [g.label for g in dec.groups] == ["F4"]
    assert dec.components == dec.groups[0].components
    assert [c.label for c in dec.components] == ["D4"]


def test_non_generated_lattices_still_get_a_root_system():
    """recognize_components types the screeners of any lattice; only
    decompose insists that they generate it."""
    dec = recognize_components(Lattice([[4, 1], [1, 4]]))
    assert [(g.label, g.scale) for g in dec.groups] == [("A1", 3), ("A1", 5)]
    assert recognize_components(Lattice([[1]])).groups == ()
    dec = recognize_components(Lattice([[1, 0], [0, 1]]))
    assert [(g.label, g.scale) for g in dec.groups] == [("A1", 1), ("A1", 1)]


RECOGNITION_SHA256 = "0052ba1ca331ee2cefbbb6b98b298eea7dfbe89f6f41e616478cdcf926cbaccf"


def test_recognize_components_is_pinned():
    """One sha256 over repr(recognize_components(lat)) for 2596 lattices:
    every positive definite [[a, f12, f13], [f12, b, f23], [f13, f23, c]]
    with 1 <= a <= b <= c <= 6, |f12|, |f13| <= a // 2 and |f23| <= b // 2,
    then catalog A1-A8, D4-D8 and E6-E8 at scales 1-3.  Most of them are
    not generated by their screeners.  Any move of a simple root, a group,
    a component or a count moves it."""
    lats = [Lattice(g) for g in ternary_forms(6)]
    for kind, ns in (("A", range(1, 9)), ("D", range(4, 9)), ("E", (6, 7, 8))):
        lats += [catalog(kind, n, scale) for n in ns for scale in (1, 2, 3)]
    h = hashlib.sha256()
    labels = Counter()
    for lat in lats:
        dec = recognize_components(lat)
        h.update(repr(dec).encode())
        labels.update(g.label for g in dec.groups)
    assert len(lats) == 2596
    assert labels == {
        "A1": 2590, "A2": 120, **{f"A{n}": 3 for n in range(3, 9)}, "B2": 99, "B3": 11,
        "C3": 51, **{f"C{n}": 3 for n in range(5, 9)}, "E6": 3, "E7": 3, "E8": 3, "F4": 3, "G2": 75,
    }
    assert h.hexdigest() == RECOGNITION_SHA256


def test_one_dynkin_pass_per_simply_laced_group(monkeypatch):
    """A simply laced group is its own one short-root component, so it is
    typed from the first `_dynkin_components` pass alone; a B, C, F or G
    group takes a second pass on its short roots."""
    calls = []
    dynkin = recognition._dynkin_components

    def counting(lat, roots, norms):
        calls.append(len(roots))
        return dynkin(lat, roots, norms)

    monkeypatch.setattr(recognition, "_dynkin_components", counting)
    cases = [
        (catalog("E", 8), "E8", "E8", 1),
        (catalog("A", 4, 3), "A4", "A4", 1),
        (catalog("D", 4), "F4", "D4", 2),
        (catalog("A", 3, 2), "C3", "A3", 2),
    ]
    for lat, group, component, passes in cases:
        calls.clear()
        dec = recognize_components(lat)
        assert [g.label for g in dec.groups] == [group], lat.gram
        assert [c.label for c in dec.components] == [component], lat.gram
        assert len(calls) == passes, (lat.gram, calls)


def test_recognition_refuses_a_forged_screener_set():
    """No lattice's screeners reach the two consistency checks, so hand-built
    sets do: (1, 1) = (1, 0) + (0, 1) joins two orthogonal components, and
    two simple roots of A2 without their sum are too few for A2.  A set
    holding the zero vector, a vector twice or one with negative first
    nonzero coordinate is no positive system and is refused."""
    lat = Lattice([[2, 0], [0, 2]])
    forged = ScreenerSet(lattice=lat, vectors=((0, 1), (1, 0), (1, 1)), norms=(2, 2, 4))
    with pytest.raises(ClassificationError, match=r"^screener \(1, 1\) spreads over 2 component groups$"):
        recognize_components(lat, forged)
    lat = Lattice(A2)
    forged = ScreenerSet(lattice=lat, vectors=((1, 0), (0, 1)), norms=(2, 2))
    with pytest.raises(ClassificationError, match="^group A2 at scale 1 expects 6 screeners, found 4$"):
        recognize_components(lat, forged)
    s = all_screeners(lat)
    refused = r"^screener set must hold distinct nonzero vectors with first nonzero coordinate positive; got "
    for vectors, norms in [
        (((0, 0),) + s.vectors, (0,) + s.norms),
        (s.vectors[:1] + s.vectors, s.norms[:1] + s.norms),
        (((-1, 0),) + s.vectors[1:], s.norms),
    ]:
        with pytest.raises(LatticeError, match=refused + re.escape(str(vectors)) + "$"):
            recognize_components(lat, ScreenerSet(lattice=lat, vectors=vectors, norms=norms))


def test_classification_certificate_up_to_rank_6_scale_2():
    """Every orthogonal sum of catalog components with rank <= 6 and scales
    <= 2 classifies as the merge rules predict; CI runs rank 8, scale 3.
    The sum count pins the enumeration so the checked set cannot shrink."""
    from certificates import classification_certificate

    assert classification_certificate(6, 2) == {"max_rank": 6, "max_scale": 2, "sums": 164}


def test_rank2_normal_form_on_every_reduced_form_up_to_det_150():
    """The exhaustive rank-2 certificate at det <= 150, with the normal form
    and identify_extended_type agreeing on every form; CI runs it at 1000.
    The counts pin the enumeration so the checked set cannot shrink."""
    from certificates import rank2_certificate

    assert rank2_certificate(150) == {
        "max_det": 150, "forms": 902, "no_screener": 438, "warned": 6, "generated": 81,
    }


def test_rank2_normal_form_rejects_a_foreign_screener_set():
    lat = Lattice([[4, -2], [-2, 6]])
    assert rank2_normal_form(lat, all_screeners(lat)) == rank2_normal_form(lat)
    with pytest.raises(LatticeError, match="another lattice"):
        rank2_normal_form(lat, all_screeners(Lattice([[2, -1], [-1, 2]])))
