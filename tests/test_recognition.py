import random

import pytest

from latscreen import (
    ClassificationError,
    Decomposition,
    Lattice,
    LatticeError,
    NoScreener,
    NotGeneratedError,
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
from certificates import orthogonal_sum, scrambled
from latscreen import intlinalg
from latscreen.core import sublattice_gram
from latscreen.enumeration import enumerate_exact_norm
from latscreen.intlinalg import determinant
from latscreen.recognition import Component, _component_kind, screener_basis

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


def test_reduce_output_invariants():
    """Reduced vectors stay screeners, span the same lattice, and vectors of
    different norms end up orthogonal."""
    for lat in [Lattice(A2), catalog("A", 3), catalog("A", 4), catalog("D", 4),
                catalog("D", 5), catalog("E", 6), Lattice([[2, -2], [-2, 4]])]:
        basis = screener_basis(lat, all_screeners(lat))
        out = reduce_screener_basis(lat, basis)
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
        lat = catalog(name, n)
        basis = screener_basis(lat, all_screeners(lat))
        comps = recognize_components(lat, reduce_screener_basis(lat, basis))
        assert len(comps) == 1
        c = comps[0]
        assert (c.kind, c.n, c.scale) == (name, n, 1)
        assert c.label == f"{name}{n}"


def test_recognize_root_counts():
    lat = catalog("D", 4)
    basis = screener_basis(lat, all_screeners(lat))
    comps = recognize_components(lat, reduce_screener_basis(lat, basis))
    assert comps[0].root_count == 24

    lat = catalog("E", 6)
    basis = screener_basis(lat, all_screeners(lat))
    comps = recognize_components(lat, reduce_screener_basis(lat, basis))
    assert comps[0].root_count == 72


def test_recognize_mixed_scales():
    lat = Lattice([[2, 0], [0, 4]])
    comps = recognize_components(lat, [(1, 0), (0, 1)])
    assert [(c.kind, c.n, c.scale) for c in comps] == [("A", 1, 1), ("A", 1, 2)]


def test_screener_basis_not_generated():
    with pytest.raises(NotGeneratedError):
        screener_basis(Lattice([[4, 0], [0, 3]]),
                        all_screeners(Lattice([[4, 0], [0, 3]])))


def test_generation_check_agrees_with_the_determinant():
    """screener_basis compares the Hermite form of the screeners with I_d;
    the screeners generate L exactly when that form has rank d and
    determinant +-1, so both tests must agree on generating sets, on
    rank-deficient ones and on spans of index 2."""
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
            try:
                screener_basis(lat, sset)
            except NotGeneratedError as e:
                assert "do not generate" not in str(e), gram
        else:
            with pytest.raises(NotGeneratedError, match="do not generate"):
                screener_basis(lat, sset)
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
        ([[4, -2], [-2, 2]], [("B", 2, 1, 8)]),
        ([[2, 0], [0, 2]], [("B", 2, 1, 8)]),
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
        lat = Lattice(gram)
        basis = screener_basis(lat, all_screeners(lat))
        comps = recognize_components(lat, reduce_screener_basis(lat, basis))
        got = sorted((c.kind, c.n, c.scale) for c in comps)
        assert got == parts, (parts, gram)


# ------------------------------------- recognition against the block walk

def _components_by_block_enumeration(lat, reduced):
    """The recognition that enumerated each norm block a second time, kept as
    the reference: the exact-norm vectors of the block sublattice, a
    union-find over their nonzero inner products, and the basis vectors
    found among each class."""
    rows = [tuple(int(v) for v in u) for u in reduced]
    by_norm = {}
    for pos, u in enumerate(rows):
        by_norm.setdefault(lat.norm(u), []).append(pos)
    comps = []
    for nrm in sorted(by_norm):
        positions = by_norm[nrm]
        block_vecs = [rows[pos] for pos in positions]
        block = sublattice_gram(lat, block_vecs)
        reps = enumerate_exact_norm(block, nrm).vectors
        ips = intlinalg.matmul(intlinalg.matmul(reps, block.gram), list(zip(*reps)))
        parent = list(range(len(reps)))

        def find(i):
            while parent[i] != i:
                i = parent[i]
            return i

        for i in range(len(reps)):
            for j in range(i + 1, len(reps)):
                if ips[i][j] != 0 and find(i) != find(j):
                    parent[find(i)] = find(j)
        classes = {}
        for k in range(len(reps)):
            classes.setdefault(find(k), []).append(k)
        for members in classes.values():
            units = [j for j in range(len(block_vecs))
                     if tuple(int(t == j) for t in range(len(block_vecs))) in {reps[k] for k in members}]
            rank = intlinalg.rank([list(reps[k]) for k in members])
            assert units and rank == len(units)
            comps.append(Component(
                kind=_component_kind(rank, 2 * len(members)),
                n=rank,
                scale=nrm // 2,
                basis=tuple(block_vecs[j] for j in units),
                positions=tuple(positions[j] for j in units),
                root_count=2 * len(members),
            ))
    comps.sort(key=lambda c: (c.scale, c.n, c.kind, c.basis))
    return comps


def _assert_recognition_matches_reference(gram):
    """Recognition equals the block walk, and `decompose` returns what the
    step-by-step calls return."""
    lat = Lattice(gram)
    sset = all_screeners(lat)
    basis = screener_basis(lat, sset)
    reduced = reduce_screener_basis(lat, basis)
    got = recognize_components(lat, reduced, sset)
    assert got == _components_by_block_enumeration(lat, reduced), gram
    assert recognize_components(lat, reduced) == got
    coords = intlinalg.matmul(sset.vectors, intlinalg.invert_unimodular(reduced))
    assert decompose(lat) == Decomposition(
        screeners=sset,
        basis=tuple(basis),
        reduced=tuple(reduced),
        components=tuple(got),
        supports=tuple(tuple(j for j, c in enumerate(row) if c) for row in coords),
    ), gram


def test_recognition_matches_block_enumeration_on_the_catalog():
    """A1-A10, D4-D10, E6-E8 at scales 1-4, in their own basis and in a
    seeded scrambled one: every Component field equals the reference's."""
    rng = random.Random(4410)
    for scale in (1, 2, 3, 4):
        for kind, ns in (("A", range(1, 11)), ("D", range(4, 11)), ("E", (6, 7, 8))):
            for n in ns:
                gram = [list(r) for r in catalog(kind, n, scale=scale).gram]
                _assert_recognition_matches_reference(gram)
                _assert_recognition_matches_reference(scrambled(gram, rng))


def test_recognition_matches_block_enumeration_on_orthogonal_sums():
    for _, gram in _roundtrip_sums():
        _assert_recognition_matches_reference(gram)


def test_recognize_rejects_rows_that_are_not_a_basis():
    lat = Lattice(A2)
    sset = all_screeners(lat)
    for rows in ([(1, 0), (2, 0)], [(1, 0), (1, 2)], [(1, 0)]):
        with pytest.raises(LatticeError, match="not a basis|does not match"):
            recognize_components(lat, rows, sset)


def test_recognize_rejects_distinct_norms_that_are_not_orthogonal():
    # (1, 0) and (0, 1) are screeners of norms 2 and 4 with inner product -2
    lat = Lattice([[2, -2], [-2, 4]])
    with pytest.raises(LatticeError, match="not orthogonal"):
        recognize_components(lat, [(1, 0), (0, 1)], all_screeners(lat))


def test_recognize_rejects_rows_that_are_not_screeners():
    # norm 4 with inner product 1: neither basis vector is a screener
    lat = Lattice([[4, 1], [1, 4]])
    with pytest.raises(LatticeError, match="not a screening vector"):
        recognize_components(lat, [(1, 0), (0, 1)], all_screeners(lat))


def test_recognize_rejects_a_foreign_screener_set():
    lat = Lattice([[2, 0], [0, 2]])
    with pytest.raises(LatticeError, match="another lattice"):
        recognize_components(lat, [(1, 0), (0, 1)], all_screeners(Lattice(A2)))


def test_classification_certificate_up_to_rank_6_scale_2():
    """Every orthogonal sum of catalog components with rank <= 6 and scales
    <= 2 classifies as the merge rules predict; CI runs rank 8, scale 3.
    The sum count pins the enumeration so the checked set cannot shrink."""
    from certificates import classification_certificate

    assert classification_certificate(6, 2) == {"max_rank": 6, "max_scale": 2, "sums": 164}


def test_rank2_normal_form_on_every_reduced_form_up_to_det_150():
    """The exhaustive rank-2 certificate at det <= 150; CI runs it at 1000.
    The form count pins the enumeration so the checked set cannot shrink."""
    from certificates import rank2_certificate

    assert rank2_certificate(150) == {"max_det": 150, "forms": 902, "no_screener": 438, "warned": 6}


def test_rank2_normal_form_rejects_a_foreign_screener_set():
    lat = Lattice([[4, -2], [-2, 6]])
    assert rank2_normal_form(lat, all_screeners(lat)) == rank2_normal_form(lat)
    with pytest.raises(LatticeError, match="another lattice"):
        rank2_normal_form(lat, all_screeners(Lattice([[2, -1], [-1, 2]])))
