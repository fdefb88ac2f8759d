"""Exhaustive certificates for the classification theorems.

Every positive definite binary form is equivalent to exactly one
Gauss-reduced form [[a, b], [b, c]] with 0 <= 2b <= a <= c, so checking all
of them up to a determinant bound checks the normal-form theorem on every
rank-2 lattice of that determinant.  The classification of lattices
generated by screeners is checked on every orthogonal sum of scaled A/D/E
components up to a rank and a scale, each in a scrambled basis.  The cuts
of the divisor-shell walk are checked on every shell of every small ternary
form, `all_screeners` against a plain walk of L on seeded dense Grams of
rank 5-8, and against the box scan of `oracle.brute_screeners` on seeded
small Grams of rank 1-4.  From the repository root:

    PYTHONPATH=src:tests python -c "import certificates; print(certificates.rank2_certificate(1000))"
    PYTHONPATH=src:tests python -c "import certificates; print(certificates.classification_certificate(8, 3))"
    PYTHONPATH=src:tests python -c "import certificates; print(certificates.shell_cut_certificate())"
    PYTHONPATH=src:tests python -c "import certificates; print(certificates.dense_certificate(120))"
    PYTHONPATH=src:tests python -c "import certificates; print(certificates.oracle_check(4, 200, 7))"

prints the counts, or raises CertificateFailure with the first mismatches.
"""

from __future__ import annotations

import random

from latscreen import (
    WARN_2B_ODD,
    Lattice,
    NoScreener,
    NotGeneratedError,
    all_screeners,
    catalog,
    enumerate_up_to_norm,
    identify_extended_type,
    is_positive_definite,
    is_screener,
    rank2_normal_form,
    rank2_predicted_in_lattice,
)
from latscreen.intlinalg import divisors, matmul, smith_normal_form
from latscreen.screeners import _discriminant_admits, _mod_kernel_basis
from oracle import brute_screeners, walked_screeners


class CertificateFailure(Exception):
    pass


def reduced_binary_forms(max_det: int):
    """Every (a, b, c) with 0 <= 2b <= a <= c and 0 < ac - b^2 <= max_det.

    Reduction gives det >= a*a - (a/2)^2 = 3a^2/4, which bounds a.
    """
    a = 1
    while 3 * a * a <= 4 * max_det:
        for b in range(a // 2 + 1):
            c = a
            while a * c - b * b <= max_det:
                yield a, b, c
                c += 1
        a += 1


def rank2_groups(form) -> list[tuple[str, int, int]] | None:
    """The extended groups that a rank-2 normal form predicts, or None when
    the lattice is odd or not generated by its screeners: type 1 with even m
    is A1 at scale p plus A1 at scale m/2, type 2b with even p is B2 at
    scale p/2, type 2c is G2 at scale p."""
    if isinstance(form, NoScreener):
        return None
    if form.kind == "type1":
        if form.m % 2:
            return None
        return sorted([("A", 1, form.p), ("A", 1, form.m // 2)], key=lambda g: g[2])
    if form.subtype == "2b" and form.p % 2 == 0:
        return [("B", 2, form.p // 2)]
    return [("G", 2, form.p)] if form.subtype == "2c" else None


def rank2_certificate(max_det: int) -> dict:
    """Check the rank-2 normal form on every reduced form with det <= max_det.

    For each form L: with no screener the normal form is NoScreener; else the
    normal form's predicted screeners, mapped back to L, equal the screener
    set of L exactly when the form carries no WARN_2B_ODD warning (the odd
    scale type 2b prediction overcounts, as documented).  The screener set is
    walked once and handed to `rank2_normal_form`.

    The two classification theorems must also agree: `identify_extended_type`
    gives the groups of `rank2_groups`, and raises NotGeneratedError exactly
    where those are None.  `generated` counts the forms it classifies.
    """
    counts = {"max_det": max_det, "forms": 0, "no_screener": 0, "warned": 0, "generated": 0}
    bad = []
    for a, b, c in reduced_binary_forms(max_det):
        counts["forms"] += 1
        lat = Lattice([[a, b], [b, c]])
        sset = all_screeners(lat)
        form = rank2_normal_form(lat, sset)
        try:
            groups = [(g.name, g.n, g.scale) for g in identify_extended_type(lat)[0]]
            counts["generated"] += 1
        except NotGeneratedError:
            groups = None
        if groups != rank2_groups(form):
            bad.append(((a, b, c), f"normal form {form} but groups {groups}", sset.vectors))
        if isinstance(form, NoScreener):
            counts["no_screener"] += 1
            if sset.vectors:
                bad.append(((a, b, c), "NoScreener but screeners exist", sset.vectors))
            continue
        predicted = rank2_predicted_in_lattice(form)
        agrees = predicted == tuple(sorted(sset.vectors))
        if form.warnings:
            counts["warned"] += 1
            if form.warnings != (WARN_2B_ODD,) or agrees:
                bad.append(((a, b, c), f"warned {form.warnings} but agrees={agrees}", predicted))
        elif not agrees:
            bad.append(((a, b, c), f"predicted {predicted}", sset.vectors))
    if bad:
        raise CertificateFailure(f"{len(bad)} of {counts['forms']} forms disagree: {bad[:5]}")
    return counts


def random_unimodular(rng: random.Random, d: int, max_entry: int = 3) -> list[list[int]]:
    """A d x d unimodular matrix from 6d random row additions, keeping every
    entry within max_entry."""
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


def orthogonal_sum(parts) -> list[list[int]]:
    """Block-diagonal Gram of the catalog components (kind, n, scale)."""
    d = sum(n for _, n, _ in parts)
    gram = [[0] * d for _ in range(d)]
    ofs = 0
    for kind, n, scale in parts:
        block = catalog(kind, n, scale=scale).gram
        for i in range(n):
            gram[ofs + i][ofs:ofs + n] = block[i]
        ofs += n
    return gram


def scrambled(gram, rng: random.Random) -> list[list[int]]:
    """U^T G U for a random unimodular U: the same lattice in another basis."""
    d = len(gram)
    u = random_unimodular(rng, d)
    return [[sum(u[a][i] * gram[a][b] * u[b][j] for a in range(d) for b in range(d))
             for j in range(d)] for i in range(d)]


def component_multisets(max_rank: int, max_scale: int):
    """Every nonempty multiset of components (kind, n, scale), A_n (n >= 1),
    D_n (n >= 4) and E_6..E_8 at scales 1..max_scale, with total rank at most
    max_rank; each as a sorted tuple."""
    kinds = [("A", n) for n in range(1, max_rank + 1)]
    kinds += [("D", n) for n in range(4, max_rank + 1)]
    kinds += [("E", n) for n in (6, 7, 8) if n <= max_rank]
    pool = sorted((k, n, s) for k, n in kinds for s in range(1, max_scale + 1))

    def extend(start, parts, rank):
        if parts:
            yield tuple(parts)
        for i in range(start, len(pool)):
            n = pool[i][1]
            if rank + n <= max_rank:
                yield from extend(i, parts + [pool[i]], rank + n)

    yield from extend(0, [], 0)


def merged_groups(parts) -> list[tuple[str, int, int]]:
    """The extended groups the merge rules predict, sorted by (scale, n, name):
    per scale, k >= 2 A_1 merge to B_k, A_2 -> G_2, A_3 -> C_3, D_4 -> F_4,
    D_n -> C_n for n > 4, and every other component keeps its type."""
    out = []
    for scale in {s for _, _, s in parts}:
        a1 = sum(1 for k, n, s in parts if (k, n, s) == ("A", 1, scale))
        if a1:
            out.append(("B", a1, scale) if a1 >= 2 else ("A", 1, scale))
        for kind, n, s in parts:
            if s != scale or (kind, n) == ("A", 1):
                continue
            if kind == "A" and n in (2, 3):
                out.append(("G" if n == 2 else "C", n, scale))
            elif kind == "D":
                out.append(("F" if n == 4 else "C", n, scale))
            else:
                out.append((kind, n, scale))
    return sorted(out, key=lambda g: (g[2], g[1], g[0]))


def classification_certificate(max_rank: int, max_scale: int, seed: int = 0) -> dict:
    """Check `identify_extended_type` on every orthogonal sum of catalog
    components with total rank <= max_rank and scales <= max_scale.

    Each sum is classified once, in a basis scrambled by a unimodular matrix
    drawn from one generator seeded with seed, and must give exactly the
    groups of `merged_groups`.
    """
    rng = random.Random(seed)
    counts = {"max_rank": max_rank, "max_scale": max_scale, "sums": 0}
    bad = []
    for parts in component_multisets(max_rank, max_scale):
        counts["sums"] += 1
        gram = scrambled(orthogonal_sum(parts), rng)
        try:
            groups, _ = identify_extended_type(Lattice(gram))
            got = [(g.name, g.n, g.scale) for g in groups]
        except ValueError as e:
            got = f"{type(e).__name__}: {e}"
        if got != merged_groups(parts):
            bad.append((parts, gram, got))
    if bad:
        raise CertificateFailure(f"{len(bad)} of {counts['sums']} sums disagree: {bad[:5]}")
    return counts


def ternary_forms(max_entry: int):
    """Every positive definite [[a, f, g], [f, b, h], [g, h, c]] with
    1 <= a <= b <= c <= max_entry, |f|, |g| <= a // 2 and |h| <= b // 2."""
    for a in range(1, max_entry + 1):
        for b in range(a, max_entry + 1):
            for c in range(b, max_entry + 1):
                for f in range(-(a // 2), a // 2 + 1):
                    for g in range(-(a // 2), a // 2 + 1):
                        for h in range(-(b // 2), b // 2 + 1):
                            gram = [[a, f, g], [f, b, h], [g, h, c]]
                            if is_positive_definite(gram):
                                yield gram


def hermite_certified(sub: Lattice, t: int) -> bool:
    """Whether every Gram-Schmidt norm D_{k+1} / D_k of the basis of sub
    exceeds 2t, so that no nonzero vector of sub has norm 2t or less."""
    m = sub.minors
    return all(m[k + 1] > 2 * t * m[k] for k in range(sub.rank))


def shell_cut_certificate() -> dict:
    """Check the discriminant-form cut, the lattice-minimum cut, the
    Gram-Schmidt cap and the Hermite-basis certificate of `all_screeners` on
    every ternary form of `ternary_forms(6)` at scales 1-3.

    Every divisor t of the exponent d_n is walked, past the minimum and the
    cap too: the norm-2t shell of M_t is enumerated and its vectors are
    tested with `is_screener`.  A shell that the discriminant form rejects, that lies
    below the minimum of the lattice (2t < lambda_1(L), counted in
    below_minimum whatever the discriminant form says) or above the cap
    (t > max_i floor(2 D_{i+1} / D_i) on the LLL basis, counted in
    above_cap whatever the other cuts say) or that the Hermite basis of M_t
    certifies empty (D_{k+1} > 2t D_k for every Gram-Schmidt minor D_k of
    that basis, counted in hermite_empty whatever the other cuts say) is
    unsound when it holds a screener, and any unsound shell fails the
    certificate.
    """
    counts = {"lattices": 0, "shells": 0, "with_screener": 0, "rejected": 0,
              "below_minimum": 0, "above_cap": 0, "hermite_empty": 0, "unsound": 0}
    bad = []
    for form in ternary_forms(6):
        for scale in range(1, 4):
            lat = Lattice([[scale * x for x in row] for row in form])
            lmin = enumerate_up_to_norm(lat, min(lat.gram[i][i] for i in range(3))).norms[0]
            _, minors, _ = lat.lll_reduce()
            cap = max(2 * minors[i + 1] // minors[i] for i in range(3))
            counts["lattices"] += 1
            diag, v = smith_normal_form(lat.gram)
            invariants = [diag[i][i] for i in range(lat.rank)]
            dn = invariants[-1]
            a = lat.norm([row[-1] for row in v]) // dn
            primes: list[int] = []
            for t in divisors(dn, dn):
                if t > 1 and all(t % p for p in primes):
                    primes.append(t)
                basis = _mod_kernel_basis(v, invariants, t)
                sub = Lattice(lat.row_gram(basis))
                found = enumerate_up_to_norm(sub, 2 * t)
                shell = [z for z, nrm in zip(found.vectors, found.norms) if nrm == 2 * t]
                held = any(is_screener(lat, x) for x in matmul(shell, basis))
                rejected = not _discriminant_admits(t, primes, invariants, a, lat.is_even)
                below = 2 * t < lmin
                above = t > cap
                hermite = hermite_certified(sub, t)
                counts["shells"] += 1
                counts["with_screener"] += held
                counts["rejected"] += rejected
                counts["below_minimum"] += below
                counts["above_cap"] += above
                counts["hermite_empty"] += hermite
                if held and (rejected or below or above or hermite):
                    bad.append((lat.gram, t))
    counts["unsound"] = len(bad)
    if bad:
        raise CertificateFailure(f"{len(bad)} cut shells hold a screener: {bad[:5]}")
    return counts


def _dense_gram(rng: random.Random, d: int) -> list[list[int]]:
    """A A^T + D of rank d, the entries of A in [-2, 2] and of D in [1, 4]."""
    a = [[rng.randint(-2, 2) for _ in range(d)] for _ in range(d)]
    gram = matmul(a, [list(col) for col in zip(*a)])
    for i in range(d):
        gram[i][i] += rng.randint(1, 4)
    return gram


def dense_grams(count: int, seed: int = 0) -> list[list[list[int]]]:
    """count seeded Grams of rank 5-8.  Two of every three are dense,
    A A^T + D; the third is a dense Gram of rank d - 2 plus the rank-2 block
    [[2s, ks], [ks, c]], put in a basis scrambled by a unimodular matrix.
    The block's (1, 0) has norm 2s and pairs to (2s, ks), divisible by s,
    with the block and to 0 with the rest, so it is a screener of the sum."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        d = rng.randint(5, 8)
        if len(out) % 3 < 2:
            out.append(_dense_gram(rng, d))
            continue
        s, k = rng.randint(1, 3), rng.randint(-1, 1)
        c = rng.randint(max(1, s * k * k // 2 + 1), 4 * s)
        dense = _dense_gram(rng, d - 2)
        gram = [row + [0, 0] for row in dense] + [[0] * (d - 2) + [2 * s, k * s], [0] * (d - 2) + [k * s, c]]
        out.append(scrambled(gram, rng))
    return out


def dense_certificate(count: int, seed: int = 0) -> dict:
    """Check `all_screeners` against `oracle.walked_screeners` on the Grams
    of `dense_grams(count, seed)`: every vector of L up to norm
    4 d_n / h_min, walked with no Smith form, mod-t kernel or shell cut and
    kept when `oracle.is_screener_ref` accepts it.  Both lists must agree
    exactly, coordinates and norms, and any lattice where they differ is a
    mismatch."""
    counts = {"lattices": 0, "with_screener": 0, "screeners": 0, "walked": 0, "mismatches": 0}
    bad = []
    for gram in dense_grams(count, seed):
        lat = Lattice(gram)
        expected, walked = walked_screeners(lat)
        s = all_screeners(lat)
        counts["lattices"] += 1
        counts["with_screener"] += bool(expected)
        counts["screeners"] += len(expected)
        counts["walked"] += walked
        if list(zip(s.vectors, s.norms)) != expected:
            bad.append((gram, expected[:5], s.vectors[:5]))
    counts["mismatches"] = len(bad)
    if bad:
        raise CertificateFailure(f"{len(bad)} of {counts['lattices']} lattices disagree: {bad[:5]}")
    return counts


def random_gram(rng: random.Random, max_rank: int, max_entry: int, min_rank: int = 1) -> list[list[int]]:
    """A positive definite Gram whose rank is drawn evenly from
    min_rank..max_rank, with diagonal entries in 1..max_entry and the others
    in -max_entry..max_entry.  The rank is drawn once and only the entries
    are redrawn until the Gram is definite, so the rejection does not thin
    out the high ranks."""
    d = rng.randint(min_rank, max_rank)
    while True:
        gram = [[0] * d for _ in range(d)]
        for i in range(d):
            gram[i][i] = rng.randint(1, max_entry)
            for j in range(i + 1, d):
                gram[i][j] = gram[j][i] = rng.randint(-max_entry, max_entry)
        if is_positive_definite(gram):
            return gram


def oracle_check(rank: int, cases: int, seed: int, max_entry: int = 8) -> dict:
    """Check `all_screeners` against `oracle.brute_screeners`, the plain
    scan of the coordinate box up to norm 2 det filtered by the direct
    screener test, on cases Grams of `random_gram(rng, rank, max_entry)`
    drawn from one generator seeded with seed.  Both lists must agree
    exactly, coordinates and norms, and any lattice where they differ is a
    mismatch.  A rank or max_entry below 1, or a negative number of cases,
    raises ValueError rather than certify an empty run."""
    for name, value, least in (("rank", rank, 1), ("cases", cases, 0), ("max_entry", max_entry, 1)):
        if value < least:
            raise ValueError(f"{name} must be at least {least}, got {value}")
    rng = random.Random(seed)
    counts = {"cases": cases, "ranks": dict.fromkeys(range(1, rank + 1), 0),
              "with_screener": 0, "screeners": 0, "mismatches": 0}
    bad = []
    for _ in range(cases):
        gram = random_gram(rng, rank, max_entry)
        expected = brute_screeners(gram)
        s = all_screeners(Lattice(gram))
        counts["ranks"][len(gram)] += 1
        counts["with_screener"] += bool(expected)
        counts["screeners"] += len(expected)
        if list(zip(s.vectors, s.norms)) != expected:
            bad.append((gram, expected[:5], s.vectors[:5]))
    counts["mismatches"] = len(bad)
    if bad:
        raise CertificateFailure(f"{len(bad)} of {cases} lattices disagree: {bad[:5]}")
    return counts
