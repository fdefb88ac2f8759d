"""Acceptance gate: the checks the package must pass before a release.

Each test prints one PASS line (visible with -s); pytest -v gives the
one-line-per-check summary either way.  Values are frozen from the
independent box oracle and from hand-derived normal forms, never from the
code under test.
"""

import math
import random
import time
from fractions import Fraction

from certificates import oracle_check
from oracle import brute_screeners

from latscreen import (
    Lattice,
    all_screeners,
    catalog,
    decompose,
    enumerate_exact_norm,
    identify_extended_type,
    in_dual,
    in_scaled_lattice,
    is_positive_definite,
    is_screener,
    make_type_i,
    rank1_central_charge,
    rank2_normal_form,
    rank2_predicted_in_lattice,
    recognize_components,
    solve_weight_quadratic,
    type_iv_search,
)
from latscreen.intlinalg import invariant_factors
from latscreen.recognition import NoScreener


def _ok(label: str, detail: str, t0: float) -> None:
    print(f"PASS {label}: {detail} ({time.perf_counter() - t0:.2f}s)")


def _rank2_pool(count=200, max_entry=20, seed=60601):
    rng = random.Random(seed)
    pool = []
    while len(pool) < count:
        g = [[rng.randint(1, max_entry), 0], [0, rng.randint(1, max_entry)]]
        g[0][1] = g[1][0] = rng.randint(-max_entry, max_entry)
        if is_positive_definite(g):
            pool.append(Lattice(g))
    return pool


def test_01_a_series_screeners_are_exactly_the_roots():
    t0 = time.perf_counter()
    for n in (4, 5, 6):
        lat = catalog("A", n)
        t1 = time.perf_counter()
        s = all_screeners(lat)
        dt = time.perf_counter() - t1
        assert dt < 5.0, f"A{n} took {dt:.1f}s"
        assert s.total_count == n * (n + 1)
        assert set(s.norms) == {2}
        ref = brute_screeners([list(r) for r in lat.gram])
        assert list(zip(s.vectors, s.norms)) == ref
    _ok("a-series", "A4/A5/A6 screeners are the n(n+1) roots, oracle-equal", t0)


def test_02_a2_and_a3_nonroots_and_types():
    t0 = time.perf_counter()
    a2 = catalog("A", 2)
    s2 = all_screeners(a2)
    assert s2.total_count == 12
    groups, _ = identify_extended_type(a2)
    assert [(g.name, g.n) for g in groups] == [("G", 2)]

    a3 = catalog("A", 3)
    s3 = all_screeners(a3)
    assert s3.total_count == 18
    nonroot = {v for v, n in zip(s3.vectors, s3.norms) if n > 2}
    assert nonroot == {(1, 0, 1), (1, 0, -1), (1, 2, 1)}
    groups, _ = identify_extended_type(a3)
    assert [(g.name, g.n) for g in groups] == [("C", 3)]
    _ok("rank-2/3 chains", "A2 -> G2 (12), A3 -> C3 (18) with the exact nonroot triple", t0)


def test_03_d_series_nonroot_families():
    t0 = time.perf_counter()
    d4 = catalog("D", 4)
    s4 = all_screeners(d4)
    assert s4.total_count == 48
    nonroot4 = {v for v, n in zip(s4.vectors, s4.norms) if n > 2}
    # center node third: pairwise sums/differences of the three outer nodes,
    # the same with the doubled center added, and one doubled outer node
    assert nonroot4 == {
        (1, 1, 0, 0), (1, -1, 0, 0), (1, 0, 0, 1), (1, 0, 0, -1),
        (0, 1, 0, 1), (0, 1, 0, -1),
        (1, 1, 2, 0), (1, 0, 2, 1), (0, 1, 2, 1),
        (1, 1, 2, 2), (1, 2, 2, 1), (2, 1, 2, 1),
    }
    groups, _ = identify_extended_type(d4)
    assert [(g.name, g.n, g.expected_count, g.actual_count) for g in groups] == [("F", 4, 48, 48)]

    d5 = catalog("D", 5)
    s5 = all_screeners(d5)
    assert s5.total_count == 50
    nonroot5 = {v for v, n in zip(s5.vectors, s5.norms) if n > 2}
    assert nonroot5 == {
        (1, 1, 0, 0, 0), (1, -1, 0, 0, 0),
        (1, 1, 2, 0, 0), (1, 1, 2, 2, 0), (1, 1, 2, 2, 2),
    }
    groups, _ = identify_extended_type(d5)
    assert [(g.name, g.n) for g in groups] == [("C", 5)]

    d6 = catalog("D", 6)
    s6 = all_screeners(d6)
    assert s6.total_count == 72
    assert sum(1 for n in s6.norms if n > 2) == 6  # 12 with signs
    groups, _ = identify_extended_type(d6)
    assert [(g.name, g.n) for g in groups] == [("C", 6)]
    _ok("d-series", "D4 -> F4 (48), D5 -> C5 (50), D6 -> C6 (72), exact families", t0)


def test_04_e_series_roots_only():
    t0 = time.perf_counter()
    expected = {6: 72, 7: 126, 8: 240}
    for n, count in expected.items():
        lat = catalog("E", n)
        t1 = time.perf_counter()
        s = all_screeners(lat)
        dt = time.perf_counter() - t1
        if n in (7, 8):
            assert dt < 30.0, f"E{n} took {dt:.1f}s"
        assert s.total_count == count
        assert set(s.norms) == {2}
    # the higher-norm windows are empty
    e6 = catalog("E", 6)
    assert not any(is_screener(e6, v) for v in enumerate_exact_norm(e6, 6).vectors)
    e7 = catalog("E", 7)
    assert not any(is_screener(e7, v) for v in enumerate_exact_norm(e7, 4).vectors)
    assert 2 * catalog("E", 8).determinant == 2
    _ok("e-series", "E6/E7/E8 give 72/126/240 roots, empty higher-norm windows", t0)


def test_05_rescaling_bijection():
    t0 = time.perf_counter()
    for name, n in (("A", 2), ("A", 3), ("D", 4)):
        base = all_screeners(catalog(name, n))
        for p in (2, 3):
            scaled = all_screeners(catalog(name, n, scale=p))
            assert scaled.vectors == base.vectors
            assert scaled.total_count == base.total_count
            assert scaled.norms == tuple(p * t for t in base.norms)
    _ok("rescaling", "scale-2/3 copies of A2/A3/D4 keep identical coordinates", t0)


def test_06_rank2_normal_form_regression():
    t0 = time.perf_counter()
    flagged = 0
    silent = []
    pool = _rank2_pool()
    assert len(pool) >= 200
    for lat in pool:
        form = rank2_normal_form(lat)
        actual = set(all_screeners(lat).vectors)
        if isinstance(form, NoScreener):
            if actual:
                silent.append((lat.gram, "missed screeners"))
            continue
        if form.warnings:
            flagged += 1
            if actual != {x for x, _ in brute_screeners(lat.gram)}:
                silent.append((lat.gram, "flagged case fails the predicate oracle"))
            continue
        predicted = set(rank2_predicted_in_lattice(form))
        if predicted != actual:
            silent.append((lat.gram, f"predicted {sorted(predicted)} != actual {sorted(actual)}"))
    assert not silent, silent
    _ok("rank-2 regression", f"{len(pool)} seeded grams, {flagged} flagged, zero silent mismatches", t0)


def _named_lattices():
    out = [catalog("A", n) for n in (2, 3, 4, 5, 6)]
    out += [catalog("D", n) for n in (4, 5, 6)]
    out += [catalog("E", n) for n in (6, 7, 8)]
    for name, n in (("A", 2), ("A", 3), ("D", 4)):
        for p in (2, 3):
            out.append(catalog(name, n, scale=p))
    return out


def test_07_structural_properties_on_every_computed_set():
    t0 = time.perf_counter()
    lattices = _named_lattices() + _rank2_pool()
    checked = 0
    for lat in lattices:
        s = all_screeners(lat)
        vs = s.vectors
        checked += len(vs)
        # angle trichotomy
        for i, a in enumerate(vs):
            na = s.norms[i]
            for j in range(i + 1, len(vs)):
                hi = max(na, s.norms[j])
                assert 2 * abs(lat.inner(a, vs[j])) in (0, hi, 2 * hi)
        # norm-2 vectors always qualify; higher multiples never do
        for v in enumerate_exact_norm(lat, 2).vectors:
            assert is_screener(lat, v)
        for v in vs:
            for n in (2, 3, -2):
                assert not is_screener(lat, tuple(n * t for t in v))
        # closure under the half-norm sum rule
        signed = list(vs) + [tuple(-t for t in v) for v in vs]
        for a in signed:
            for b in signed:
                if lat.inner(a, b) == -lat.norm(b) // 2 and lat.norm(a) <= lat.norm(b):
                    c = tuple(x + y for x, y in zip(a, b))
                    if any(c):
                        assert is_screener(lat, c)
        # orthogonal sums qualify exactly under norm equality plus divisibility
        for i, a in enumerate(vs):
            for b in vs[i + 1:]:
                if lat.inner(a, b) != 0:
                    continue
                for sign in (1, -1):
                    c = tuple(x + sign * y for x, y in zip(a, b))
                    expected = (
                        lat.norm(a) == lat.norm(b)
                        and in_dual(lat, c, lat.norm(a))
                        and not in_scaled_lattice(c, 2)
                    )
                    assert is_screener(lat, c) == expected
        # half-norm lcm divides the determinant
        acc = 1
        for n in s.norms:
            acc = acc * (n // 2) // math.gcd(acc, n // 2)
        if vs:
            assert lat.determinant % acc == 0
        # the span chain 2L in R + C in L, with R the screener lattice and C a
        # complement of its saturation: every invariant factor of R is 1 or 2
        simple = recognize_components(lat, s).simple_roots
        factors = invariant_factors(simple)
        assert len(factors) == len(simple) and set(factors) <= {1, 2}
        if len(simple) == lat.rank:
            assert Lattice(lat.row_gram(simple)).determinant == math.prod(factors) ** 2 * lat.determinant
    _ok("properties", f"{len(lattices)} lattices, {checked} screeners, all structural laws hold", t0)


def test_08_scrambled_orthogonal_sums_round_trip():
    t0 = time.perf_counter()
    pool = [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("D", 4), ("D", 5)]
    rng = random.Random(2029)

    def random_unimodular(d, max_entry=3):
        u = [[1 if i == j else 0 for j in range(d)] for i in range(d)]
        for _ in range(6 * d):
            i, j = rng.randrange(d), rng.randrange(d)
            if i == j:
                continue
            c = rng.choice((-1, 1))
            trial = [row[:] for row in u]
            for k in range(d):
                trial[i][k] += c * trial[j][k]
            if all(abs(v) <= max_entry for row in trial for v in row):
                u = trial
        return u

    cases = 50
    for case in range(cases):
        k = rng.randint(1, 3)
        parts = []
        for _ in range(k):
            name, n = rng.choice(pool)
            parts.append((name, n, rng.choice((1, 1, 2))))
        parts.sort()
        d = sum(n for _, n, _ in parts)
        gram = [[0] * d for _ in range(d)]
        ofs = 0
        for name, n, scale in parts:
            block = catalog(name, n, scale=scale).gram
            for i in range(n):
                for j in range(n):
                    gram[ofs + i][ofs + j] = block[i][j]
            ofs += n
        u = random_unimodular(d)
        scr = [[sum(u[a][i] * gram[a][b] * u[b][j] for a in range(d) for b in range(d))
                for j in range(d)] for i in range(d)]
        got = sorted((c.kind, c.n, c.scale) for c in decompose(Lattice(scr)).components)
        assert got == parts, (case, parts, got)
    _ok("round-trip", f"{cases} scrambled orthogonal sums fully recovered", t0)


def test_09_pair_numerics():
    t0 = time.perf_counter()
    assert rank1_central_charge(2, 1) == -2
    assert rank1_central_charge(3, 2) == 0
    for p in range(1, 13):
        for q in range(1, 13):
            c = rank1_central_charge(p, q)
            assert c == 1 - Fraction(6 * (p - q) ** 2, p * q)
            assert make_type_i(Lattice([[2 * p * q]]), (1,), p, q).c == c
            # level-0/level-0 solves to the doubled first factor
            assert solve_weight_quadratic(p, q, 0, 0) == (2 * p,)
            # level-0 against level-1 solves to the doubled gap when positive
            expect = (2 * (p - q),) if p > q else ()
            assert solve_weight_quadratic(p, q, 0, 1) == expect
    assert solve_weight_quadratic(2, 1, 1, 0) == (2,)
    sols = type_iv_search(6, 1, 10)
    assert [(s.branch, s.r2, s.m_values) for s in sols] == [("A", 2, (4, 6))]
    _ok("pair numerics", "c grid to 12, quadratic families, sporadic (6,1) branch", t0)


def test_10_oracle_harness():
    t0 = time.perf_counter()
    counts = oracle_check(4, 200, 20250822)
    assert counts["mismatches"] == 0
    assert sum(counts["ranks"].values()) == 200
    _ok("oracle harness", "200 seeded lattices, zero discrepancies", t0)
