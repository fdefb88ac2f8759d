import math
import random
import re
import types
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latscreen import (
    Lattice,
    LatticeError,
    analyze_screener,
    catalog,
    central_charge,
    conformal_weight,
    dual_pairing_unit,
    in_dual,
    in_scaled_lattice,
    is_positive_definite,
    is_screener,
    make_type_i,
    pair_decompositions,
    reduce_screener_basis,
    type_ii_feasible,
    type_iii_feasible,
    virasoro_shift,
)

from latscreen.core import over_common_denominator
from latscreen.intlinalg import hnf_rows, lll_rows
from oracle import det_fraction, hnf_reference

A2 = [[2, -1], [-1, 2]]


def test_lattice_rejects_non_integer_entries():
    """A float, str or Fraction entry is refused with its position, not
    truncated to an int."""
    for gram, where, shown in (([[2.5, 1], [1, 2.9]], "(0, 0)", "2.5"),
                               ([[2, -1], ["-1", 2]], "(1, 0)", "'-1'"),
                               ([[2, Fraction(1, 2)], [Fraction(1, 2), 2]], "(0, 1)", "Fraction(1, 2)")):
        with pytest.raises(LatticeError, match=re.escape(f"entry {where} is {shown}")):
            Lattice(gram)
    with pytest.raises(LatticeError, match="not an integer"):
        Lattice([[Fraction(2)]])


def test_lattice_rejects_non_square():
    with pytest.raises(LatticeError):
        Lattice([[2, -1]])
    with pytest.raises(LatticeError):
        Lattice([[2, -1], [-1]])
    with pytest.raises(LatticeError):
        Lattice([])
    # not a list of rows: a LatticeError, not a bare TypeError
    with pytest.raises(LatticeError, match="square and nonempty"):
        Lattice([1, 2])
    with pytest.raises(LatticeError, match="square and nonempty"):
        Lattice(None)


def test_lattice_rejects_non_symmetric():
    with pytest.raises(LatticeError, match=r"not symmetric at \(0, 1\)"):
        Lattice([[2, -1], [1, 2]])


def test_lattice_rejects_indefinite():
    with pytest.raises(LatticeError, match="minor 2 is -3"):
        Lattice([[1, 2], [2, 1]])
    with pytest.raises(LatticeError, match="minor 1 is 0"):
        Lattice([[0, 0], [0, 2]])
    with pytest.raises(LatticeError, match="minor 1 is -2"):
        Lattice([[-2, 0], [0, 2]])
    # LLL started from a minor that is not positive would never stop
    for g in ([[1, 2], [2, 1]], [[0, 0], [0, 2]], [[-1]]):
        with pytest.raises(ValueError, match="not positive definite"):
            lll_rows(g)


def test_is_positive_definite():
    assert is_positive_definite(A2)
    assert not is_positive_definite([[1, 2], [2, 1]])
    assert not is_positive_definite([[2, -1], [1, 2]])
    assert is_positive_definite([[1]])
    assert not is_positive_definite([])
    assert not is_positive_definite([[2, -1], [-1]])
    assert not is_positive_definite([[2, -1]])
    assert not is_positive_definite([1, 2])
    assert not is_positive_definite(None)
    # positive leading minors do not make an asymmetric matrix definite
    assert not is_positive_definite([[2, 0], [1, 2]])


def test_basic_accessors():
    lat = Lattice(A2)
    assert lat.rank == 2
    assert lat.determinant == 3
    assert lat.inner((1, 0), (0, 1)) == -1
    assert lat.norm((1, 1)) == 2
    assert lat.norm((1, -1)) == 6
    assert tuple(lat.gram_times((1, 2))) == (0, 3)


def test_is_even():
    assert Lattice(A2).is_even
    assert not Lattice([[1, 0], [0, 1]]).is_even
    assert not Lattice([[2, 1], [1, 3]]).is_even
    assert catalog("E", 8).is_even


def test_determinant_matches_fraction_elimination():
    rng = random.Random(11)
    for _ in range(200):
        d = rng.randint(1, 5)
        g = [[0] * d for _ in range(d)]
        for i in range(d):
            g[i][i] = rng.randint(1, 12)
            for j in range(i + 1, d):
                g[i][j] = g[j][i] = rng.randint(-4, 4)
        if not is_positive_definite(g):
            continue
        lat = Lattice(g)
        assert Fraction(lat.determinant) == det_fraction(g)


def _solve_by_fractions(m, rhs):
    """x with m x = rhs by Cramer's rule over the oracle's fraction
    determinant, or None when m is singular."""
    det = det_fraction(m)
    if det == 0:
        return None
    return [det_fraction([row[:j] + [b] + row[j + 1:] for row, b in zip(m, rhs)]) / det
            for j in range(len(m))]


def test_determinant_with_vanishing_leading_minors():
    """Row pivoting: non-symmetric matrices whose leading minors vanish,
    singular ones included, against fraction elimination, for determinant,
    leading_minors and solve_linear_system with int and Fraction
    right-hand sides."""
    from latscreen.intlinalg import determinant, leading_minors, solve_linear_system

    rng = random.Random(31)
    rhs_rng = random.Random(59)
    singular = 0
    for _ in range(400):
        d = rng.randint(1, 6)
        m = [[rng.randint(-3, 3) for _ in range(d)] for _ in range(d)]
        if rng.random() < 0.4:
            i, j = rng.randrange(d), rng.randrange(d)
            m[i] = [0] * d if i == j else list(m[j])
        k = rng.randint(1, d)
        if k == 1:
            m[0][0] = 0
        else:
            m[k - 1][:k] = m[0][:k]
        assert 0 in leading_minors(m)
        assert Fraction(determinant(m)) == det_fraction(m), m
        assert leading_minors(m) == [int(det_fraction([r[:t] for r in m[:t]])) for t in range(1, d + 1)]
        rhs = [rhs_rng.randint(-9, 9) if rhs_rng.random() < 0.4
               else Fraction(rhs_rng.randint(-9, 9), rhs_rng.randint(1, 12)) for _ in range(d)]
        want = _solve_by_fractions(m, rhs)
        if want is None:
            with pytest.raises(ValueError, match="matrix is singular"):
                solve_linear_system(m, rhs)
        else:
            got = solve_linear_system(m, rhs)
            assert all(type(v) is Fraction for v in got)
            assert got == want, (m, rhs)
        singular += determinant(m) == 0
    assert 50 < singular < 350
    assert determinant([]) == 1
    assert determinant([[0, 1], [1, 0]]) == -1
    assert solve_linear_system([], []) == []
    assert solve_linear_system([[0, 2], [3, 0]], [Fraction(1, 2), 6]) == [2, Fraction(1, 4)]


def _scaled_schur_by_fractions(m, k):
    """(D_k, D_k * S_k) by plain fraction elimination of the first k columns;
    needs the first k pivots nonzero."""
    a = [[Fraction(v) for v in row] for row in m]
    n = len(a)
    dk = Fraction(1)
    for t in range(k):
        dk *= a[t][t]
        for i in range(t + 1, n):
            f = a[i][t] / a[t][t]
            a[i] = [x - f * y for x, y in zip(a[i], a[t])]
    return dk, [[dk * v for v in row[k:]] for row in a[k:]]


def test_bareiss_rows_are_scaled_schur_complements():
    """Below the first vanishing leading minor, row k of the matrix the
    Bareiss pass returns is the first row of D_k * S_k from column k on, on
    symmetric and non-symmetric matrices; at that minor the pass pivots
    exactly when a lower row of D_k * S_k is nonzero in its first column,
    and stops otherwise with the block left as it was; the pivot it returns
    is the determinant.  On a symmetric matrix gram_schmidt gives the
    leading minors up to the first that is not positive, the one a Lattice
    names when it refuses the matrix."""
    from latscreen.intlinalg import bareiss, gram_schmidt, leading_minors

    rng = random.Random(47)
    pivoted = singular = symmetric = 0
    for case in range(300):
        d = rng.randint(0, 6)
        m = [[rng.randint(-4, 4) for _ in range(d)] for _ in range(d)]
        if case % 2:
            m = [[m[min(i, j)][max(i, j)] for j in range(d)] for i in range(d)]
        if d and rng.random() < 0.3:
            k = rng.randint(1, d)
            if k == 1:
                m[0][0] = 0
            else:
                m[k - 1][:k] = m[0][:k]
        if d and rng.random() < 0.15:
            c = rng.randrange(d)
            for r in m:
                r[c] = 0
        minors = [det_fraction([r[:t] for r in m[:t]]) for t in range(1, d + 1)]
        if m == [list(c) for c in zip(*m)]:
            symmetric += 1
            lead = leading_minors(m)
            last_kept = next((t for t, mn in enumerate(lead) if mn <= 0), d - 1)
            assert gram_schmidt(m)[0] == [1] + lead[:last_kept + 1], m
        first_zero = next((t for t, mn in enumerate(minors) if mn == 0), d)
        a, det = bareiss(m)
        for k in range(first_zero):
            dk, block = _scaled_schur_by_fractions(m, k)
            assert dk == (minors[k - 1] if k else 1)
            assert a[k][k:] == block[0], (m, k)
        if first_zero < d:
            block = _scaled_schur_by_fractions(m, first_zero)[1]
            if any(r[0] for r in block[1:]):
                pivoted += 1
            else:
                assert [r[first_zero:] for r in a[first_zero:]] == block, m
        assert det == det_fraction(m), m
        singular += det_fraction(m) == 0
    assert pivoted > 20 and singular > 10 and symmetric > 80, (pivoted, singular, symmetric)


def test_in_dual():
    lat = Lattice(A2)
    assert in_dual(lat, (1, 2), 3)
    assert not in_dual(lat, (1, 1), 3)
    assert in_dual(lat, (0, 0), 5)
    assert in_dual(Lattice([[4]]), (1,), 4)
    assert not in_dual(Lattice([[4]]), (1,), 3)


def test_in_dual_refuses_what_is_not_a_lattice_vector_over_a_positive_integer():
    """A non-integer entry or denominator is refused, not reduced mod k:
    both calls below used to return True on [[2]]."""
    lat = Lattice([[2]])
    with pytest.raises(LatticeError, match=re.escape("vector (1.5,) has an entry that is not an integer")):
        in_dual(lat, (1.5,), 1)
    with pytest.raises(LatticeError, match="denominator is 0.5, not an integer"):
        in_dual(lat, (1,), 0.5)
    with pytest.raises(LatticeError, match="length 2"):
        in_dual(lat, (1, 0), 1)
    for k in (0, -2):
        with pytest.raises(LatticeError, match="denominator must be positive"):
            in_dual(lat, (1,), k)


def test_in_scaled_lattice():
    assert in_scaled_lattice((2, 4), 2)
    assert not in_scaled_lattice((2, 3), 2)
    assert in_scaled_lattice((0, 0), 7)


def _random_rational(rng, ints_only=False):
    """An int, or a Fraction with a small, large or negative denominator."""
    num = rng.randint(-10**6, 10**6) if rng.random() < 0.2 else rng.randint(-9, 9)
    if ints_only or rng.random() < 0.3:
        return num
    den = rng.choice((1, 2, 3, 6, 7, 12, 10**9 + 7, 2**61 - 1, rng.randint(1, 10**12)))
    return Fraction(num, -den if rng.random() < 0.5 else den)


def _dual_inner_reference(lat, v, w):
    """The double sum of Fraction products that dual_inner replaced."""
    d = lat.rank
    return sum(
        (Fraction(v[i]) * lat.gram[i][j] * Fraction(w[j]) for i in range(d) for j in range(d)),
        Fraction(0),
    )


def _random_gram(rng, d):
    while True:
        g = [[0] * d for _ in range(d)]
        for i in range(d):
            g[i][i] = rng.randint(1, 30)
            for j in range(i + 1, d):
                g[i][j] = g[j][i] = rng.randint(-8, 8)
        if is_positive_definite(g):
            return Lattice(g)


def test_dual_inner_matches_the_fraction_double_sum():
    rng = random.Random(606)
    checked = 0
    for d in range(1, 7):
        for _ in range(60):
            lat = _random_gram(rng, d)
            ints = rng.random() < 0.25
            v = [_random_rational(rng, ints) for _ in range(d)]
            w = [_random_rational(rng, ints) for _ in range(d)]
            got = lat.dual_inner(v, w)
            assert type(got) is Fraction
            assert got == _dual_inner_reference(lat, v, w)
            assert lat.dual_inner(v, v) == _dual_inner_reference(lat, v, v)
            checked += 1
    assert checked == 360
    lat = Lattice(A2)
    with pytest.raises(LatticeError, match="length 3"):
        lat.dual_inner((Fraction(1, 2), 0, 1), (1, 0))
    with pytest.raises(LatticeError, match="length 1"):
        lat.dual_inner((1, 0), (Fraction(1, 3),))


def test_a_float_in_a_dual_vector_is_refused_by_name():
    """A float reaching over_common_denominator through dual_inner,
    conformal_weight or central_charge raises a LatticeError naming the
    vector, not a bare AttributeError."""
    from latscreen import central_charge, conformal_weight

    lat = Lattice([[2]])
    shown = re.escape("dual vector (0.5,) has an entry that is not an int or a Fraction")
    for call in (lambda: lat.dual_inner((0.5,), (1,)),
                 lambda: lat.dual_inner((1,), (0.5,)),
                 lambda: conformal_weight(lat, (0.5,), (0,), 0),
                 lambda: central_charge((0.5,), lat),
                 lambda: over_common_denominator((0.5,))):
        with pytest.raises(LatticeError, match=shown):
            call()


def test_a_vector_that_is_not_a_sequence_is_refused_by_name():
    """5 or None in place of a vector raises a LatticeError that names the
    argument, not the bare TypeError of tuple(x) or len(x); an iterable
    with a bad entry keeps its message, a one-shot iterator included, and a
    wrong length is refused by the same name (it used to say "vector", for
    a dual vector too).
    Every call that takes a lattice vector reads it through Lattice.vector,
    so each refuses a float entry: norm, gram_times and inner used to
    return 6.5, (1.0, 2.5) and 3.0 for (1.5, 2)."""
    lat = catalog("A", 2)
    lattice_vector = (lambda x: is_screener(lat, x), lambda x: in_dual(lat, x, 1), lambda x: lat.gram_times(x),
                      lambda x: lat.norm(x), lambda x: lat.inner(x, (1, 0)), lambda x: lat.inner((1, 0), x))
    calls = {
        "vector": lattice_vector,
        "dual vector": (lambda x: central_charge(x, lat), lambda x: conformal_weight(lat, x, (0, 0), 0),
                        lambda x: lat.dual_inner(x, (0, 0)), lambda x: lat.dual_inner((0, 0), x)),
        "alpha": (lambda x: virasoro_shift(lat, x, 1, 1), lambda x: analyze_screener(lat, x),
                  lambda x: make_type_i(lat, x, 1, 1), lambda x: pair_decompositions(lat, x),
                  lambda x: dual_pairing_unit(lat, x), lambda x: type_ii_feasible(lat, x, 1, 1),
                  lambda x: type_iii_feasible(lat, x, 1, 1)),
        "basis vector": (lambda x: reduce_screener_basis(lat, [x, x]),),
    }
    for what, fns in calls.items():
        for x in (5, None):
            for call in fns:
                with pytest.raises(LatticeError, match=f"^{what} is {x!r}, not a sequence"):
                    call(x)
        for call in fns:
            with pytest.raises(LatticeError, match=f"^{what} has length 3, lattice rank is 2$"):
                call((1, 2, 3))
    for what, fns in (("vector", lattice_vector), ("alpha", calls["alpha"]), ("basis vector", calls["basis vector"])):
        for call in fns:
            with pytest.raises(LatticeError, match=re.escape(f"{what} (1.5, 2) has an entry that is not an integer")):
                call((1.5, 2))
    for alpha in ((1, "a"), (v for v in (1, "a"))):
        with pytest.raises(LatticeError, match=re.escape("alpha (1, 'a') has an entry that is not an integer")):
            make_type_i(lat, alpha, 1, 1)


def test_intlinalg_refuses_non_integer_entries():
    """copy_matrix reads each entry with operator.index, so a float is
    refused, not truncated: these gave 2, [[2, 1]] and diagonal [[2]]."""
    from latscreen.intlinalg import copy_matrix, determinant, hnf_rows, smith_normal_form

    for call in (lambda: determinant([[2.5]]),
                 lambda: hnf_rows([[2.5, 1]]),
                 lambda: smith_normal_form([[2.7]]),
                 lambda: copy_matrix([[1, Fraction(1, 2)]])):
        with pytest.raises(TypeError):
            call()
    assert copy_matrix(((True, 2), (3, 4))) == [[1, 2], [3, 4]]


def test_over_common_denominator():
    """It reads its argument once, so a generator gives the numerators and
    the dual_inner value of the tuple; it used to give ([], 2), the
    generator spent by the lcm."""
    f = Fraction
    v = (f(1, 2), 1)
    assert over_common_denominator(x for x in v) == over_common_denominator(v) == ([1, 2], 2)
    lat = Lattice(A2)
    assert lat.dual_inner((x for x in v), (0, 1)) == lat.dual_inner((0, 1), (x for x in v)) == f(3, 2)
    assert over_common_denominator((f(1, 2), f(-1, 3), 4)) == ([3, -2, 24], 6)
    assert over_common_denominator((f(3, -4), f(5, 6))) == ([-9, 10], 12)
    assert over_common_denominator((0, 7)) == ([0, 7], 1)
    rng = random.Random(7)
    for _ in range(300):
        v = [_random_rational(rng) for _ in range(rng.randint(1, 6))]
        nums, q = over_common_denominator(v)
        assert q > 0 and all(type(n) is int for n in nums)
        assert [Fraction(n, q) for n in nums] == [Fraction(t) for t in v]
        # q is the least such denominator exactly when no prime divides q and every numerator
        assert gcd(q, *nums) == 1


def test_quotient_invariants():
    """The Smith invariants of G are the elementary divisors of L*/L and
    multiply to det G."""
    from latscreen.intlinalg import invariant_factors

    for lat, want in ((Lattice(A2), [1, 3]), (Lattice([[1, 0], [0, 1]]), [1, 1]),
                      (Lattice([[2, 0], [0, 2]]), [2, 2]), (catalog("D", 4), [1, 1, 2, 2]),
                      (catalog("E", 8), [1] * 8)):
        got = invariant_factors([list(r) for r in lat.gram])
        assert got == want
        assert math.prod(got) == lat.determinant


def test_kernel_rows_of_no_row_a_zero_row_and_one_row():
    """The Smith-form path covers the edge cases: no rows give no kernel
    rows, and a zero row gives the unit vectors in order."""
    from latscreen.intlinalg import invariant_factors, kernel_rows

    assert kernel_rows([]) == []
    assert kernel_rows([[0, 0, 0]]) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    rows = kernel_rows([[2, 3, 4]])
    assert len(rows) == 2
    assert all(2 * x + 3 * y + 4 * z == 0 for x, y, z in rows)
    assert invariant_factors(rows) == [1, 1]  # saturated


def test_row_gram_takes_dependent_rows():
    lat = Lattice(A2)
    assert lat.row_gram([(1, -1), (1, 2)]) == [[6, -3], [-3, 6]]
    assert lat.row_gram([(1, 1), (2, 2)]) == [[2, 4], [4, 8]]


def test_package_has_no_assert_statements():
    """Checks that guard results must survive python -O, which strips assert."""
    import ast
    from pathlib import Path

    import latscreen

    found = []
    for path in sorted(Path(latscreen.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found


def test_no_module_imports_a_private_name_of_another():
    """A name with a leading underscore stays inside its module: anything
    another module needs is public under one name."""
    import ast
    from pathlib import Path

    import latscreen

    found = []
    for path in sorted(Path(latscreen.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and not (node.module or "").startswith("latscreen"):
                continue
            found += [f"{path.name}:{node.lineno} {a.name}" for a in node.names if a.name.startswith("_")]
    assert not found, found


def test_all_is_the_public_api():
    """__all__ names exactly the package's public non-module attributes,
    and each of them resolves."""
    import latscreen

    public = {name for name, value in vars(latscreen).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert len(set(latscreen.__all__)) == len(latscreen.__all__)
    assert set(latscreen.__all__) == public
    star: dict = {}
    exec("from latscreen import *", star)
    assert all(star[name] is getattr(latscreen, name) for name in latscreen.__all__)


@st.composite
def _hnf_inputs(draw):
    """0-8 rows of 1-8 columns, entries in [-50, 50] and often 0, with
    zero rows, repeated rows and integer combinations of earlier rows
    mixed in, so that many inputs are rank-deficient."""
    n = draw(st.integers(1, 8))
    entry = st.one_of(st.just(0), st.integers(-50, 50))
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(("random", "random", "zero", "repeat", "combination")))
        if kind == "zero":
            rows.append([0] * n)
        elif kind == "repeat" and rows:
            rows.append(list(draw(st.sampled_from(rows))))
        elif kind == "combination" and rows:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            s, t = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
            rows.append([s * x + t * y for x, y in zip(a, b)])
        else:
            rows.append(draw(st.lists(entry, min_size=n, max_size=n)))
    return rows


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(_hnf_inputs(), st.randoms(use_true_random=False))
def test_hnf_rows_is_the_reference_hermite_form(rows, rnd):
    """hnf_rows, the column insertion, gives the Hermite form of
    `oracle.hnf_reference`, the column-by-column elimination, and the same
    form for any order of the rows."""
    expected = hnf_reference(rows)
    assert hnf_rows(rows) == expected
    shuffled = list(rows)
    rnd.shuffle(shuffled)
    assert hnf_rows(shuffled) == expected
