"""Root-system structure of screener sets.

For an even lattice generated by its screeners, the screeners of minimal
norm in each scale form root systems; recognizing the components and merging
the non-root screeners on top yields an extended type (B/C/F/G alongside the
simply laced A/D/E) whose root count must equal the actual screener count.
The rank-2 case additionally has a complete normal-form classification.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from . import intlinalg
from .core import Lattice, LatticeError, Vec, canonical, sublattice_gram
from .enumeration import enumerate_exact_norm
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
        rows.sort(key=lambda v: (lat.norm(v), v))
        replaced = False
        for l in range(len(rows)):
            nl = lat.norm(rows[l])
            for i in range(l):
                ni = lat.norm(rows[i])
                t = lat.inner(rows[i], rows[l])
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
            break
    rows.sort(key=lambda v: (lat.norm(v), v))
    return rows


def recognize_components(lat: Lattice, reduced: Sequence[Sequence[int]]) -> list[Component]:
    """Group a reduced screener basis into indecomposable root components.

    Within each norm-2p block the vectors of that exact norm in the block
    sublattice form a root system; connectivity of its +- classes under the
    inner product separates the components, and (rank, root count) pins the
    type: A_n has n(n+1) roots, D_n has 2n(n-1), E_6/7/8 have 72/126/240.
    """
    rows = [tuple(int(v) for v in u) for u in reduced]
    by_norm: dict[int, list[int]] = {}
    for pos, u in enumerate(rows):
        nrm = lat.norm(u)
        if nrm % 2 != 0:
            raise LatticeError(f"vector {u} has odd norm {nrm}")
        by_norm.setdefault(nrm, []).append(pos)
    comps: list[Component] = []
    for nrm in sorted(by_norm):
        positions = by_norm[nrm]
        block_vecs = [rows[pos] for pos in positions]
        block = sublattice_gram(lat, block_vecs)
        reps = enumerate_exact_norm(block, nrm).vectors
        ips = intlinalg.matmul(intlinalg.matmul(reps, block.gram), list(zip(*reps)))
        parent = list(range(len(reps)))

        def find(i: int) -> int:
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for i in range(len(reps)):
            for j in range(i + 1, len(reps)):
                if ips[i][j] != 0:
                    ri, rj = find(i), find(j)
                    if ri != rj:
                        parent[ri] = rj
        rep_index = {r: k for k, r in enumerate(reps)}
        classes: dict[int, list[int]] = {}
        for k in range(len(reps)):
            classes.setdefault(find(k), []).append(k)
        for members in classes.values():
            units = []
            for local_j in range(len(block_vecs)):
                e = tuple(1 if t == local_j else 0 for t in range(len(block_vecs)))
                if rep_index.get(e) in members:
                    units.append(local_j)
            if not units:
                raise ClassificationError(
                    f"a norm-{nrm} root component contains no basis vector"
                )
            rank_span = intlinalg.rank([list(reps[k]) for k in members])
            if rank_span != len(units):
                raise ClassificationError(
                    f"component span rank {rank_span} != {len(units)} basis vectors"
                )
            count = 2 * len(members)
            kind = _component_kind(rank_span, count)
            if kind is None:
                raise ClassificationError(
                    f"no A/D/E root system has rank {rank_span} with {count} roots"
                )
            comps.append(
                Component(
                    kind=kind,
                    n=rank_span,
                    scale=nrm // 2,
                    basis=tuple(block_vecs[j] for j in sorted(units)),
                    positions=tuple(positions[j] for j in sorted(units)),
                    root_count=count,
                )
            )
    comps.sort(key=lambda c: (c.scale, c.n, c.kind, c.basis))
    return comps


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
    span = intlinalg.hnf_rows([list(v) for v in vecs])
    if len(span) != d or abs(intlinalg.determinant(span)) != 1:
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


def identify_extended_type(lat: Lattice) -> tuple[list[ExtendedGroup], ScreenerSet]:
    """Full classification: screener basis, reduction, recognition, merge.

    Requires an even lattice generated by its screeners.  Groups share a
    scale: k >= 2 orthogonal A_1 components merge to B_k, A_2 -> G_2,
    A_3 -> C_3, D_4 -> F_4, D_n -> C_n for n > 4; everything else keeps its
    type.  The expected screener count of every group must match the actual
    count, otherwise a ClassificationError reports the discrepancy.
    """
    if not lat.is_even:
        raise NotGeneratedError("lattice is not even")
    screeners = all_screeners(lat)
    basis = screener_basis(lat, screeners)
    reduced = reduce_screener_basis(lat, basis)
    comps = recognize_components(lat, reduced)

    # merge per scale
    groups: list[tuple[str, int, int, list[Component]]] = []
    by_scale: dict[int, list[Component]] = {}
    for c in comps:
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

    # count actual screeners per group through the reduced-basis coordinates
    binv = intlinalg.invert_unimodular([list(r) for r in reduced])
    pos_to_group: dict[int, int] = {}
    for gi, (_, _, _, cs) in enumerate(groups):
        for c in cs:
            for pos in c.positions:
                pos_to_group[pos] = gi
    actual = [0] * len(groups)
    for v, coeffs in zip(screeners.vectors, intlinalg.matmul(screeners.vectors, binv)):
        support = {pos_to_group[i] for i, t in enumerate(coeffs) if t != 0}
        if len(support) != 1:
            raise ClassificationError(
                f"screener {v} spreads over {len(support)} component groups"
            )
        actual[support.pop()] += 2

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
    return out, screeners


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


def _gram_of(lat: Lattice, cols: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """Gram matrix of the basis held in the columns of cols."""
    return sublattice_gram(lat, list(zip(*cols))).gram


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
