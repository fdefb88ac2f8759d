"""Root-system structure of screener sets.

For an even lattice generated by its screeners, the screeners of minimal
norm in each scale form root systems; recognizing the components and merging
the non-root screeners on top yields an extended type (B/C/F/G alongside the
simply laced A/D/E) whose root count must equal the actual screener count.
The rank-2 case additionally has a complete normal-form classification.

The lattice is walked once, by `all_screeners`; everything after works on
that set, and `decompose` is the one function that runs the pipeline.  A
reduced screener basis splits L into orthogonal norm blocks, the roots of
each block are the screeners of its norm supported in it, and the
components are the classes of a union-find over those supports, so
recognition and the per-group count both read the screeners' coordinates in
the reduced basis and enumerate nothing (proofs in recognize_components).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

from . import intlinalg
from .core import Lattice, LatticeError, Vec, canonical
from .screeners import ScreenerSet, all_screeners, is_screener


class ClassificationError(LatticeError):
    """Predicted and actual screener structure disagree; never auto-corrected."""


class NotGeneratedError(LatticeError):
    """The lattice is not generated by a screening system."""


@dataclass(frozen=True)
class Component:
    """One indecomposable root-lattice component at a single scale."""

    kind: str  # 'A', 'D' or 'E'
    n: int
    scale: int
    basis: tuple[Vec, ...]
    positions: tuple[int, ...]  # indices into the reduced basis
    root_count: int

    @property
    def label(self) -> str:
        return f"{self.kind}{self.n}"


@dataclass(frozen=True)
class ExtendedGroup:
    """A merged component group with its extended type and screener counts."""

    name: str  # 'A'..'G'
    n: int
    scale: int
    expected_count: int
    actual_count: int
    components: tuple[Component, ...]

    @property
    def label(self) -> str:
        return f"{self.name}{self.n}"


_E_ROOTS = {6: 72, 7: 126, 8: 240}


def _component_kind(rank: int, root_count: int) -> str | None:
    if root_count == rank * (rank + 1):
        return "A"
    if rank >= 4 and root_count == 2 * rank * (rank - 1):
        return "D"
    if rank in _E_ROOTS and root_count == _E_ROOTS[rank]:
        return "E"
    return None


def _extended_count(name: str, n: int) -> int:
    if name == "A":
        return n * (n + 1)
    if name in ("B", "C"):
        return 2 * n * n
    if name == "G":
        return 12
    if name == "F":
        return 48
    return _E_ROOTS[n]


def reduce_screener_basis(lat: Lattice, basis: Sequence[Sequence[int]]) -> list[Vec]:
    """Shrink a screener basis until no vector pairs at half the norm of a
    strictly longer one.

    Each replacement u_l -> u_l -+ u_i (sign matching <u_i, u_l> = +-n_l/2)
    lowers the norm of u_l to that of u_i, so the procedure terminates with
    every pair of distinct norms orthogonal.  Inner products outside
    {0, +-n/2, +-n} contradict the screener trichotomy and raise.

    Each pass builds the Gram matrix of the rows once, sorts rows and Gram by
    (norm, coordinates) and reads every norm and inner product from it; a
    replacement ends the pass.
    """
    if not lat.is_even:
        raise LatticeError("reduction requires an even lattice")
    rows = [tuple(int(v) for v in b) for b in basis]
    if len(rows) != lat.rank:
        raise LatticeError("basis size does not match the rank")
    if abs(intlinalg.determinant([list(r) for r in rows])) != 1:
        raise LatticeError("vectors are not a basis of the lattice")
    for r in rows:
        if not is_screener(lat, r):
            raise LatticeError(f"basis vector {r} is not a screening vector")
    while True:
        g = lat.row_gram(rows)
        order = sorted(range(len(rows)), key=lambda k: (g[k][k], rows[k]))
        rows = [rows[k] for k in order]
        g = [[g[a][b] for b in order] for a in order]
        replaced = False
        for l in range(len(rows)):
            nl = g[l][l]
            for i in range(l):
                ni = g[i][i]
                t = g[i][l]
                if 2 * abs(t) not in (0, nl, 2 * nl):
                    raise ClassificationError(
                        f"inner product {t} of screeners with norms {ni}, {nl} violates the trichotomy"
                    )
                if ni < nl and 2 * abs(t) == nl:
                    sign = 1 if t > 0 else -1
                    new = tuple(a - sign * b for a, b in zip(rows[l], rows[i]))
                    if not is_screener(lat, new):
                        raise ClassificationError(
                            f"reduction step produced non-screener {new}"
                        )
                    rows[l] = new
                    replaced = True
                    break
            if replaced:
                break
        if not replaced:
            return rows


def _reduced_supports(
    lat: Lattice, reduced: Sequence[Sequence[int]], screeners: ScreenerSet
) -> tuple[list[Vec], list[int], list[tuple[int, ...]]]:
    """Check a reduced screener basis and locate every screener in it.

    Returns the rows, their norms, and for each screener of the set the
    positions where its reduced-basis coordinates are nonzero.  Raises
    LatticeError unless the set belongs to lat, the rows are a basis of L,
    every row is a screener (its unit coordinate vector is in the set) and
    rows of distinct norm are orthogonal.  One inverse and one product map
    all the screeners.
    """
    if screeners.lattice != lat:
        raise LatticeError("the screener set belongs to another lattice")
    rows = [tuple(int(v) for v in u) for u in reduced]
    if len(rows) != lat.rank:
        raise LatticeError("basis size does not match the rank")
    for u in rows:
        lat._check_dim(u)
    try:
        binv = intlinalg.invert_unimodular(rows)
    except ValueError:
        raise LatticeError("vectors are not a basis of the lattice") from None
    g = lat.row_gram(rows)
    norms = [g[j][j] for j in range(len(rows))]
    for i, j in combinations(range(len(rows)), 2):
        if norms[i] != norms[j] and g[i][j] != 0:
            raise LatticeError(
                f"basis vectors {rows[i]}, {rows[j]} of norms {norms[i]}, {norms[j]} are not orthogonal"
            )
    supports = [tuple(j for j, c in enumerate(coeffs) if c != 0)
                for coeffs in intlinalg.matmul(screeners.vectors, binv)]
    units = {s[0] for s in supports if len(s) == 1}
    for j, u in enumerate(rows):
        if j not in units:
            raise LatticeError(f"basis vector {u} is not a screening vector")
    return rows, norms, supports


def _components(
    rows: Sequence[Vec], norms: Sequence[int], supports: Sequence[tuple[int, ...]],
    screener_norms: Sequence[int],
) -> list[Component]:
    """Union-find over the supports of the roots: the screeners whose norm is
    that of every basis vector they involve."""
    parent = list(range(len(rows)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    roots = [s for s, nrm in zip(supports, screener_norms) if all(norms[j] == nrm for j in s)]
    for s in roots:
        for j in s[1:]:
            ri, rj = find(s[0]), find(j)
            if ri != rj:
                parent[ri] = rj
    classes: dict[int, list[int]] = {}
    for j in range(len(rows)):
        classes.setdefault(find(j), []).append(j)
    counts = dict.fromkeys(classes, 0)
    for s in roots:
        counts[find(s[0])] += 2
    comps: list[Component] = []
    for key, members in classes.items():
        rank, count = len(members), counts[key]
        kind = _component_kind(rank, count)
        if kind is None:
            raise ClassificationError(
                f"no A/D/E root system has rank {rank} with {count} roots"
            )
        comps.append(
            Component(
                kind=kind,
                n=rank,
                scale=norms[members[0]] // 2,
                basis=tuple(rows[j] for j in members),
                positions=tuple(members),
                root_count=count,
            )
        )
    comps.sort(key=lambda c: (c.scale, c.n, c.kind, c.basis))
    return comps


def recognize_components(
    lat: Lattice, reduced: Sequence[Sequence[int]], screeners: ScreenerSet | None = None
) -> list[Component]:
    """Group a reduced screener basis into indecomposable root components.

    reduced is a reduced screener basis u_1..u_d of L: a basis of screeners
    in which vectors of distinct norm are orthogonal (the output of
    reduce_screener_basis).  screeners is the screener set of lat when the
    caller holds it (`all_screeners(lat)`); without it the lattice is walked
    here.  Nothing else is enumerated: every screener is written once in
    reduced-basis coordinates, and its support is the set of positions with
    a nonzero coordinate.

    - The roots of the norm-2p block are exactly the norm-2p screeners whose
      support lies in that block.  L is the orthogonal sum of its norm
      blocks.  Each u_i of norm 2p is a screener, so <u_i, x> lies in pZ for
      every x in L; a block vector r of norm 2p therefore has 2r/<r,r> =
      r/p in L*, and r is not in 2L (r = 2y puts y in the block, whose norms
      are multiples of 2p, with norm p/2).  So r is a screener, and
      conversely a norm-2p screener supported in the block is a block root.
    - A union-find over those supports gives the irreducible components.
      Each u_i is a root, so it lies in one component, and the block is the
      direct sum of the components' lattices, which makes every root
      supported on its own component's positions.  If a component's
      positions split into S and T that no root's support meets both of,
      its roots in span(S) and in span(T) cannot all be orthogonal, and for
      non-orthogonal roots a in span(S), b in span(T) the root
      s_a(b) = b - (<a,b>/p) a has support meeting both.  A component's rank
      is its number of positions, and its root count is twice its number of
      screeners (one per +- pair).

    (rank, root count) pins the type: A_n has n(n+1) roots, D_n has
    2n(n-1), E_6/7/8 have 72/126/240.  Raises LatticeError for a screener
    set of another lattice, for rows that are not a basis of screeners and
    for rows of distinct norm that are not orthogonal.  Once those checks
    pass, every class is a nonempty set of basis vectors, so it cannot miss
    a basis vector and its roots span a lattice of rank equal to its number
    of positions; neither needs a check of its own.
    """
    if screeners is None:
        screeners = all_screeners(lat)
    return _components(*_reduced_supports(lat, reduced, screeners), screeners.norms)


def screener_basis(lat: Lattice, screeners: ScreenerSet) -> list[Vec]:
    """First (in canonical order) subset of screeners forming a Z-basis of L.

    Raises NotGeneratedError at once when the screeners do not generate L.
    Otherwise searches depth-first over the sorted screener list; a partial
    selection is kept only while it is a basis of a saturated sublattice,
    since every prefix of a lattice basis is.  Matches the greedy
    maximal-independent choice whenever that choice already generates L.
    """
    d = lat.rank
    vecs = screeners.vectors
    # a full-rank Hermite form has determinant the product of its pivots,
    # so the screeners generate L exactly when the form is I_d
    if intlinalg.hnf_rows([list(v) for v in vecs]) != intlinalg.identity(d):
        raise NotGeneratedError("screeners do not generate the lattice")

    def extend(start: int, rows: list[Vec]) -> list[Vec] | None:
        if len(rows) == d:
            return rows
        for t in range(start, len(vecs)):
            cand = rows + [vecs[t]]
            if not intlinalg.is_saturated_basis(cand):
                continue
            got = extend(t + 1, cand)
            if got is not None:
                return got
        return None

    found = extend(0, [])
    if found is None:
        raise NotGeneratedError("no subset of the screeners is a basis of the lattice")
    return found


@dataclass(frozen=True)
class Decomposition:
    """A lattice split along a reduced screener basis.

    screeners is the lattice's screener set, basis the first screener basis
    (`screener_basis`), reduced its reduction (`reduce_screener_basis`), and
    components the root components over the reduced basis, sorted by
    (scale, rank, type, basis).  supports[k] holds the positions where the
    reduced-basis coordinates of screeners.vectors[k] are nonzero.
    """

    screeners: ScreenerSet
    basis: tuple[Vec, ...]
    reduced: tuple[Vec, ...]
    components: tuple[Component, ...]
    supports: tuple[tuple[int, ...], ...]


def decompose(lat: Lattice) -> Decomposition:
    """Screener set, screener basis, reduction and recognition, with the
    lattice walked once.

    Raises NotGeneratedError when the screeners do not generate L; the
    errors of the reduction and of recognition pass through.
    """
    screeners = all_screeners(lat)
    basis = screener_basis(lat, screeners)
    reduced = reduce_screener_basis(lat, basis)
    rows, norms, supports = _reduced_supports(lat, reduced, screeners)
    return Decomposition(
        screeners=screeners,
        basis=tuple(basis),
        reduced=tuple(rows),
        components=tuple(_components(rows, norms, supports, screeners.norms)),
        supports=tuple(supports),
    )


def identify_extended_type(lat: Lattice) -> tuple[list[ExtendedGroup], ScreenerSet]:
    """Full classification: screener basis, reduction, recognition, merge.

    Requires an even lattice generated by its screeners.  Groups share a
    scale: k >= 2 orthogonal A_1 components merge to B_k, A_2 -> G_2,
    A_3 -> C_3, D_4 -> F_4, D_n -> C_n for n > 4; everything else keeps its
    type.  The expected screener count of every group must match the actual
    count, otherwise a ClassificationError reports the discrepancy.

    The lattice is walked once.  Recognition and the count share one map of
    the screeners to reduced-basis supports (`decompose`).
    """
    if not lat.is_even:
        raise NotGeneratedError("lattice is not even")
    dec = decompose(lat)

    # merge per scale
    groups: list[tuple[str, int, int, list[Component]]] = []
    by_scale: dict[int, list[Component]] = {}
    for c in dec.components:
        by_scale.setdefault(c.scale, []).append(c)
    for scale in sorted(by_scale):
        a1s = [c for c in by_scale[scale] if c.kind == "A" and c.n == 1]
        if len(a1s) >= 2:
            groups.append(("B", len(a1s), scale, a1s))
        elif len(a1s) == 1:
            groups.append(("A", 1, scale, a1s))
        for c in by_scale[scale]:
            if c.kind == "A" and c.n == 1:
                continue
            if c.kind == "A" and c.n == 2:
                groups.append(("G", 2, scale, [c]))
            elif c.kind == "A" and c.n == 3:
                groups.append(("C", 3, scale, [c]))
            elif c.kind == "D" and c.n == 4:
                groups.append(("F", 4, scale, [c]))
            elif c.kind == "D" and c.n > 4:
                groups.append(("C", c.n, scale, [c]))
            else:
                groups.append((c.kind, c.n, scale, [c]))

    # count actual screeners per group through their reduced-basis supports
    pos_to_group: dict[int, int] = {}
    for gi, (_, _, _, cs) in enumerate(groups):
        for c in cs:
            for pos in c.positions:
                pos_to_group[pos] = gi
    actual = [0] * len(groups)
    for v, support in zip(dec.screeners.vectors, dec.supports):
        hit = {pos_to_group[i] for i in support}
        if len(hit) != 1:
            raise ClassificationError(
                f"screener {v} spreads over {len(hit)} component groups"
            )
        actual[hit.pop()] += 2

    out = []
    for gi, (name, n, scale, cs) in enumerate(groups):
        expected = _extended_count(name, n)
        if expected != actual[gi]:
            raise ClassificationError(
                f"group {name}{n} at scale {scale} expects {expected} screeners, found {actual[gi]}"
            )
        out.append(
            ExtendedGroup(
                name=name,
                n=n,
                scale=scale,
                expected_count=expected,
                actual_count=actual[gi],
                components=tuple(cs),
            )
        )
    out.sort(key=lambda g: (g.scale, g.n, g.name))
    return out, dec.screeners


@dataclass(frozen=True)
class NoScreener:
    """Marker returned by the rank-2 classifier when the lattice has no screener."""


NO_SCREENER = NoScreener()


@dataclass(frozen=True)
class Rank2Form:
    """Normal form of a rank-2 lattice with screeners.

    Type 1: Gram diag(2p, m), m != 2p, first basis vector a minimal screener.
    Type 2: Gram [[2p, -p], [-p, m]] with m >= p.  basis_change columns hold
    the normal-form basis in the original coordinates.
    """

    kind: str  # 'type1' or 'type2'
    p: int
    m: int
    subtype: str | None  # '2a' | '2b' | '2c' for type2
    basis_change: tuple[tuple[int, int], tuple[int, int]]
    warnings: tuple[str, ...] = ()

    @property
    def gram(self) -> Lattice:
        if self.kind == "type1":
            return Lattice([[2 * self.p, 0], [0, self.m]])
        return Lattice([[2 * self.p, -self.p], [-self.p, self.m]])


WARN_2B_ODD = "rank2-type2b-odd-scale"


def _require(ok: bool, what: str) -> None:
    """A step of the rank-2 normal form that the screener theory guarantees."""
    if not ok:
        raise ClassificationError(f"rank-2 normal form: {what}")


def rank2_normal_form(lat: Lattice, screeners: ScreenerSet | None = None) -> Rank2Form | NoScreener:
    """Classify a rank-2 lattice by an explicit unimodular change of basis.

    Picks the first minimal-norm screener, completes it to a basis, and
    clears the off-diagonal pairing: an even multiple of p diagonalizes
    (type 1, converted to type 2 when the diagonal is (2p, 2p)), an odd
    multiple leaves -p (type 2, flipped until m >= p).

    screeners is the lattice's screener set when the caller already holds
    it (`all_screeners(lat)`); without it the lattice is walked here.
    """
    if lat.rank != 2:
        raise LatticeError("rank-2 classification needs a rank-2 lattice")
    if screeners is None:
        screeners = all_screeners(lat)
    elif screeners.lattice != lat:
        raise LatticeError("the screener set belongs to another lattice")
    if not screeners.vectors:
        return NO_SCREENER
    a1 = screeners.vectors[0]
    nrm = screeners.norms[0]
    _require(nrm % 2 == 0, f"minimal screener norm {nrm} is odd")
    p = nrm // 2
    cols = intlinalg.unimodular_with_first_column(list(a1))
    change = cols
    g = _gram_of(lat, change)
    b = g[0][1]
    _require(b % p == 0, f"pairing {b} is not a multiple of p = {p} in Gram {g}")
    n = -(b // p)
    if n % 2 == 0:
        change = intlinalg.matmul(change, [[1, n // 2], [0, 1]])
        g = _gram_of(lat, change)
        _require(g[0][1] == 0, f"diagonalizing left Gram {g}")
        m = g[1][1]
        if m != 2 * p:
            return Rank2Form(
                kind="type1", p=p, m=m, subtype=None,
                basis_change=_cols_tuple(change),
            )
        # diag(2p, 2p) is the boundary case: regroup as type 2 at scale 2p
        change = intlinalg.matmul(change, [[1, 0], [1, -1]])
        g = _gram_of(lat, change)
        p2, m2 = g[0][0] // 2, g[1][1]
        _require(g[0][1] == -p2 and m2 == p2, f"regrouping diag(2p, 2p) gave Gram {g}")
        return Rank2Form(
            kind="type2", p=p2, m=m2, subtype="2b",
            basis_change=_cols_tuple(change),
            warnings=(WARN_2B_ODD,) if p2 % 2 else (),
        )
    change = intlinalg.matmul(change, [[1, (n - 1) // 2], [0, 1]])
    g = _gram_of(lat, change)
    _require(g[0][1] == -p, f"clearing the pairing left Gram {g}, expected -{p} off the diagonal")
    m = g[1][1]
    while m < p:
        change = intlinalg.matmul(change, [[1, -1], [2, -1]])
        g = _gram_of(lat, change)
        p, m = g[0][0] // 2, g[1][1]
        _require(g[0][1] == -p, f"flipping gave Gram {g}, expected -{p} off the diagonal")
    if m == p:
        subtype = "2b"
    elif m == 2 * p:
        subtype = "2c"
    else:
        subtype = "2a"
    warns = (WARN_2B_ODD,) if subtype == "2b" and p % 2 else ()
    return Rank2Form(
        kind="type2", p=p, m=m, subtype=subtype,
        basis_change=_cols_tuple(change), warnings=warns,
    )


def _gram_of(lat: Lattice, cols: Sequence[Sequence[int]]) -> list[list[int]]:
    """Gram matrix of the basis held in the columns of cols."""
    return lat.row_gram(list(zip(*cols)))


def _cols_tuple(cols) -> tuple[tuple[int, int], tuple[int, int]]:
    return ((int(cols[0][0]), int(cols[0][1])), (int(cols[1][0]), int(cols[1][1])))


def rank2_screener_list(form: Rank2Form) -> tuple[Vec, ...]:
    """Screeners the normal form predicts, in normal-form coordinates.

    Canonical representatives sorted by (norm, coordinates).  For type 2b
    with odd scale this is the nominal list; the actual screener set is
    smaller (see WARN_2B_ODD), and the definition-level check wins.
    """
    if form.kind == "type1":
        vecs = [(1, 0)] if form.m % 2 else [(1, 0), (0, 1)]
    else:
        vecs = [(1, 0), (1, 2)]
        if form.subtype in ("2b", "2c"):
            vecs += [(0, 1), (1, 1)]
        if form.subtype == "2c":
            vecs += [(1, -1), (2, 1)]
    glat = form.gram
    canon = sorted((glat.norm(cv), cv) for cv in map(canonical, vecs))
    return tuple(v for _, v in canon)


def rank2_predicted_in_lattice(form: Rank2Form) -> tuple[Vec, ...]:
    """The predicted screeners mapped back to the original coordinates."""
    cols = form.basis_change
    return tuple(sorted(map(canonical, intlinalg.matmul(rank2_screener_list(form), list(zip(*cols))))))


def _path_gram(n: int) -> list[list[int]]:
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        g[i][i] = 2
        if i + 1 < n:
            g[i][i + 1] = g[i + 1][i] = -1
    return g


def _d_gram(n: int) -> list[list[int]]:
    if n == 2:
        return [[2, 0], [0, 2]]
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        g[i][i] = 2
    g[0][2] = g[2][0] = -1
    g[1][2] = g[2][1] = -1
    for i in range(2, n - 1):
        g[i][i + 1] = g[i + 1][i] = -1
    return g


def _e_gram(n: int) -> list[list[int]]:
    g = _path_gram(n)
    g[n - 2][n - 1] = g[n - 1][n - 2] = 0
    g[n - 4][n - 1] = g[n - 1][n - 4] = -1
    return g


def catalog(kind: str, n: int, scale: int = 1) -> Lattice:
    """Standard Gram matrix of A_n (n>=1), D_n (n>=2) or E_n (n in 6..8),
    multiplied by a positive scale."""
    if scale < 1:
        raise LatticeError("scale must be a positive integer")
    if kind == "A" and n >= 1:
        base = _path_gram(n)
    elif kind == "D" and n >= 2:
        base = _d_gram(n)
    elif kind == "E" and n in (6, 7, 8):
        base = _e_gram(n)
    else:
        raise LatticeError(f"no catalog lattice {kind}{n}")
    return Lattice([[scale * v for v in row] for row in base])
