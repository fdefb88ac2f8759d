"""Root-system structure of screener sets.

The screeners of a lattice L form a reduced crystallographic root system in
their span (Bourbaki, *Lie Groups and Lie Algebras*, ch. VI §1.1):

- For a screener a, 2<a, x>/<a, a> is an integer for every x in L, so the
  reflection s_a(x) = x - (2<a, x>/<a, a>) a is an isometry of L.  It keeps
  norms, maps 2L onto 2L and s_a(b) pairs with L as b does, so s_a
  permutes the screeners.
- a and ca are both screeners only for c = +-1: 2a lies in 2L, and 3a would
  need 2<a, 3a>/<3a, 3a> = 2/3 to be an integer.

`ScreenerSet.vectors` holds each screener with its first nonzero coordinate
positive.  That lexicographic order is total and compatible with addition,
so these vectors are a positive system (Bourbaki ch. VI §1.6-1.7; Humphreys,
*Introduction to Lie Algebras and Representation Theory*, §10.1).  A
positive root v that is not simple has a simple root s with v - s a
positive root (Humphreys §10.2, Lemma A), and s is lexicographically smaller
than v.  So walking the positive roots in lexicographic order and keeping v
unless v - s is a positive root for a simple root s kept before it finds the
simple roots.

That order and the test "v - s is a positive root" are read off integer
keys k(v) = sum_i v_i m^(d-1-i), with m = 4 M + 1 and M the largest
|v_i| over the roots.  The roots and their pairwise differences have
coordinates in [-2M, 2M] = [-(m-1)/2, (m-1)/2], the balanced digits of
base m, and a number has one balanced base-m expansion, so k is injective
on them; k is additive, so k(v - s) = k(v) - k(s), and its sign and order
are those of the first differing digit, so k is positive exactly when the
first nonzero coordinate is and sorts the roots in lexicographic order.
A set whose keys are not distinct and positive is no positive system and
is refused.  They are a Z-basis of the lattice the screeners generate,
which is L exactly when there are rank-many of them with determinant +-1.

The nonzero entries of the simple roots' Gram matrix give the Dynkin diagram,
and each connected component's type follows from the diagram alone
(Humphreys §11.4): a triple bond is G2; with a double bond the number of
short simple roots tells B, C and F4; otherwise a path is A and the arms of
the branch node tell D and E.  Every root lies in one irreducible
component, and roots of different components are orthogonal, so (v - s) + s
is no root when v - s and s lie in different ones.  So the walk puts a root
v that is not simple in the component of the simple root s it found, which
must also hold v - s, just as v pairs nonzero only with that component's
simple roots.  Each component must hold as many screeners as its type has
positive roots.

The lattice is walked once, by `all_screeners`; `recognize_components` works
on that set and `decompose` runs the pipeline.  The rank-2 case additionally
has a complete normal-form classification.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations
from operator import index, mul
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
    """One simply laced Dynkin component at a single scale."""

    kind: str  # 'A', 'D' or 'E'
    n: int
    scale: int
    basis: tuple[Vec, ...]  # its simple roots
    root_count: int

    @property
    def label(self) -> str:
        return f"{self.kind}{self.n}"


@dataclass(frozen=True)
class ExtendedGroup:
    """One Dynkin component of the screeners with its type and screener
    counts; components are the Dynkin components of its short roots."""

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
_E_ARMS = ((1, 2, 2), (1, 2, 3), (1, 2, 4))


def _root_count(name: str, n: int) -> int:
    """Number of roots of the irreducible root system of type name_n."""
    if name == "A":
        return n * (n + 1)
    if name in ("B", "C"):
        return 2 * n * n
    if name == "D":
        return 2 * n * (n - 1)
    if name == "E":
        return _E_ROOTS[n]
    return 48 if name == "F" else 12


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
    rows = [lat.vector(b, "basis vector") for b in basis]
    if len(rows) != lat.rank:
        raise LatticeError("basis size does not match the rank")
    if abs(intlinalg.determinant(rows)) != 1:
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


def _arm(neighbours: dict[int, list[int]], prev: int, node: int) -> int:
    """Number of nodes on the path from prev through node to a leaf."""
    length = 1
    while len(neighbours[node]) > 1:
        prev, node = node, next(j for j in neighbours[node] if j != prev)
        length += 1
    return length


def _dynkin_type(g: Sequence[Sequence[int]], nodes: Sequence[int]) -> tuple[str, int]:
    """Type and rank of the connected Dynkin diagram of the simple roots at
    nodes, g being the Gram matrix of all the simple roots.

    Simple roots a, b are joined by 4<a,b>^2/(<a,a><b,b>) bonds; a connected
    diagram with one edge fewer than nodes is a tree.
    """
    k = len(nodes)
    bonds = [4 * g[i][j] ** 2 // (g[i][i] * g[j][j]) for i, j in combinations(nodes, 2) if g[i][j]]
    if len(bonds) == k - 1 and set(bonds) <= {1, 2, 3}:
        if 3 in bonds:
            return "G", k
        if 2 in bonds:
            shortest = min(g[i][i] for i in nodes)
            short = sum(g[i][i] == shortest for i in nodes)
            if short == 1:
                return "B", k
            if (k, short) == (4, 2):
                return "F", 4
            if short == k - 1:
                return "C", k
        else:
            neighbours = {i: [j for j in nodes if j != i and g[i][j]] for i in nodes}
            branch = [i for i in nodes if len(neighbours[i]) > 2]
            if not branch:
                return "A", k
            if len(branch) == 1 and len(neighbours[branch[0]]) == 3:
                arms = tuple(sorted(_arm(neighbours, branch[0], j) for j in neighbours[branch[0]]))
                if arms[:2] == (1, 1):
                    return "D", k
                if arms in _E_ARMS:
                    return "E", k
    raise ClassificationError(
        f"simple roots with Gram {[[g[i][j] for j in nodes] for i in nodes]} form no Dynkin diagram"
    )


def _dynkin_components(
    lat: Lattice, roots: Sequence[Vec], norms: Sequence[int]
) -> tuple[list[Vec], list[tuple[str, int, int, tuple[Vec, ...], list[tuple[Vec, int]]]]]:
    """Simple roots of the lexicographically positive roots (with their
    norms), and for each connected component of their Dynkin diagram its
    type, rank, scale, simple roots and (root, norm) members.  The walk of
    the module docstring places each root, on the integer keys it
    describes, and a component must hold half the roots of its type."""
    m = 4 * max(map(abs, chain.from_iterable(roots)), default=0) + 1
    powers = [m ** k for k in range(lat.rank - 1, -1, -1)]
    keys = [sum(map(mul, v, powers)) for v in roots]
    position = dict(zip(keys, range(len(keys))))
    if len(position) < len(keys) or min(keys, default=1) <= 0:
        raise LatticeError(
            "screener set must hold distinct nonzero vectors with first nonzero "
            f"coordinate positive; got {tuple(roots)}"
        )
    simple: list[int] = []
    # (v, the simple root s found for v, the root v - s), as root indices
    steps: list[tuple[int, int, int]] = []
    for k in sorted(keys):
        for s in simple:
            rest = position.get(k - keys[s])
            if rest is not None:
                steps.append((position[k], s, rest))
                break
        else:
            simple.append(position[k])
    g = lat.row_gram([roots[r] for r in simple])
    owner = [-1] * len(simple)
    components: list[list[int]] = []
    for i in range(len(simple)):
        if owner[i] < 0:
            owner[i] = len(components)
            nodes = [i]
            for a in nodes:
                for b, t in enumerate(g[a]):
                    if t and owner[b] < 0:
                        owner[b] = owner[i]
                        nodes.append(b)
            components.append(sorted(nodes))
    where = [-1] * len(roots)
    for r, c in zip(simple, owner):
        where[r] = c
    for r, s, rest in steps:
        if where[rest] != where[s]:
            raise ClassificationError(f"screener {roots[r]} spreads over 2 component groups")
        where[r] = where[s]
    members: list[list[tuple[Vec, int]]] = [[] for _ in components]
    for v, nrm, c in zip(roots, norms, where):
        members[c].append((v, nrm))
    out = []
    for nodes, mem in zip(components, members):
        name, n = _dynkin_type(g, nodes)
        scale = min(nrm for _, nrm in mem) // 2
        expected = _root_count(name, n)
        if expected != 2 * len(mem):
            raise ClassificationError(
                f"group {name}{n} at scale {scale} expects {expected} screeners, found {2 * len(mem)}"
            )
        out.append((name, n, scale, tuple(roots[simple[i]] for i in nodes), mem))
    return [roots[r] for r in simple], out


@dataclass(frozen=True)
class Decomposition:
    """The screening root system of a lattice.

    screeners is the lattice's screener set, simple_roots the simple roots
    of its positive system in lexicographic order, and groups its Dynkin
    components, sorted by (scale, rank, type).
    """

    screeners: ScreenerSet
    simple_roots: tuple[Vec, ...]
    groups: tuple[ExtendedGroup, ...]

    @property
    def components(self) -> tuple[Component, ...]:
        """The groups' short-root components, sorted by (scale, rank, type,
        basis)."""
        comps = (c for g in self.groups for c in g.components)
        return tuple(sorted(comps, key=lambda c: (c.scale, c.n, c.kind, c.basis)))


def recognize_components(lat: Lattice, screeners: ScreenerSet | None = None) -> Decomposition:
    """Simple roots and typed Dynkin components of the screeners of lat.

    screeners is the lattice's screener set when the caller holds it
    (`all_screeners(lat)`); without it the lattice is walked here.  Each
    Dynkin component becomes an ExtendedGroup whose scale is half its
    shortest norm and whose components are the Dynkin components of its
    shortest roots, found the same way: B_k gives k A_1, C_n gives D_n
    (C_3 gives A_3), F_4 gives D_4, G_2 gives A_2, and a simply laced group
    gives itself: its shortest roots are all of its roots, so it is its own
    one short-root component and the first pass's entry types it; only B,
    C, F and G groups take the second pass.  Works for every lattice;
    `decompose` adds the generation check.
    """
    if screeners is None:
        screeners = all_screeners(lat)
    elif screeners.lattice != lat:
        raise LatticeError("the screener set belongs to another lattice")
    simple, found = _dynkin_components(lat, screeners.vectors, screeners.norms)
    groups = []
    for entry in found:
        name, n, scale, _, members = entry
        short = [(v, nrm) for v, nrm in members if nrm == 2 * scale]
        # a simply laced group is its own one short-root component
        parts = [entry] if len(short) == len(members) else _dynkin_components(lat, *zip(*short))[1]
        comps = tuple(
            Component(kind=kind, n=m, scale=scale, basis=basis, root_count=2 * len(mem))
            for kind, m, _, basis, mem in parts
        )
        groups.append(ExtendedGroup(
            name=name, n=n, scale=scale, expected_count=_root_count(name, n),
            actual_count=2 * len(members), components=comps,
        ))
    groups.sort(key=lambda gr: (gr.scale, gr.n, gr.name))
    return Decomposition(screeners=screeners, simple_roots=tuple(simple), groups=tuple(groups))


def decompose(lat: Lattice) -> Decomposition:
    """The screening root system of a lattice generated by its screeners,
    with the lattice walked once.

    Raises NotGeneratedError unless the simple roots are a basis of L:
    rank-many of them with determinant +-1.
    """
    dec = recognize_components(lat)
    if len(dec.simple_roots) != lat.rank or abs(intlinalg.determinant(dec.simple_roots)) != 1:
        raise NotGeneratedError("screeners do not generate the lattice")
    return dec


def identify_extended_type(lat: Lattice) -> tuple[list[ExtendedGroup], ScreenerSet]:
    """Full classification: the Dynkin components of the screeners of an
    even lattice generated by them, each with its type A-G, its scale and
    its expected and actual screener counts (`decompose`)."""
    if not lat.is_even:
        raise NotGeneratedError("lattice is not even")
    dec = decompose(lat)
    return list(dec.groups), dec.screeners


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

    Picks the first minimal-norm screener a1 = (x, y) and completes it to
    the basis a1, e = (-z1, z0) with z0 x + z1 y = 1.  Shearing e by k
    copies of a1 moves the pairing b = <a1, e> to b + 2pk, so it clears to
    0 (type 1) when b/p is even and to -p (type 2) when it is odd; one Gram
    product of the sheared basis then reads the pairing and m = <e, e>.
    Type 2 always has m >= p: otherwise v = a1 + 2e has norm
    4m - 2p < 2p, which is positive since 2pm > p^2; its pairings with a1
    and e are 0 and 2m - p, and its a1-coordinate is 1, so v is a screener
    (not in 2L) shorter than a1.

    The type 1 corner diag(2p, 2p) is regrouped as type 2b on the basis
    a1 + e, -e, whose Gram [[4p, -2p], [-2p, 2p]] needs no product.  Its
    scale 2p is even, so the corner never carries WARN_2B_ODD.

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
    x, y = a1
    z0, z1 = intlinalg.solve_gcd_one(a1)
    b = lat.inner(a1, (-z1, z0))
    _require(b % p == 0, f"pairing {b} of {a1} with its completion is not a multiple of p = {p}")
    k = (-(b // p)) // 2
    u, v = e = (k * x - z1, k * y + z0)
    (_, t), (_, m) = lat.row_gram([a1, e])
    if t == 0 and m == 2 * p:
        return Rank2Form(kind="type2", p=2 * p, m=2 * p, subtype="2b",
                         basis_change=((x + u, -u), (y + v, -v)))
    if t == 0:
        return Rank2Form(kind="type1", p=p, m=m, subtype=None, basis_change=((x, u), (y, v)))
    _require(t == -p, f"clearing the pairing of {a1} and {e} left {t}, expected 0 or -{p}")
    _require(m >= p, f"type 2 basis {a1}, {e} has m = {m} < p = {p}, so a1 + 2e is a shorter screener")
    subtype = {p: "2b", 2 * p: "2c"}.get(m, "2a")
    warns = (WARN_2B_ODD,) if subtype == "2b" and p % 2 else ()
    return Rank2Form(kind="type2", p=p, m=m, subtype=subtype, basis_change=((x, u), (y, v)),
                     warnings=warns)


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
    canon = sorted((glat.norm(cv), cv) for cv in vecs)
    return tuple(v for _, v in canon)


def rank2_predicted_in_lattice(form: Rank2Form) -> tuple[Vec, ...]:
    """The predicted screeners mapped back to the original coordinates."""
    cols = form.basis_change
    return tuple(sorted(map(canonical, intlinalg.matmul(rank2_screener_list(form), list(zip(*cols))))))


def _cartan(n: int, edges) -> list[list[int]]:
    """Cartan matrix of a simply laced Dynkin diagram on nodes 0..n-1: 2 on
    the diagonal and -1 on each edge (Humphreys §11.4)."""
    g = [[2 * (i == j) for j in range(n)] for i in range(n)]
    for i, j in edges:
        g[i][j] = g[j][i] = -1
    return g


def catalog(kind: str, n: int, scale: int = 1) -> Lattice:
    """Standard Gram matrix of A_n (n>=1), D_n (n>=2) or E_n (n in 6..8),
    multiplied by a positive scale."""
    try:
        n, scale = index(n), index(scale)
    except TypeError:
        raise LatticeError(f"catalog {kind} {n!r} at scale {scale!r}: n and scale must be integers") from None
    if scale < 1:
        raise LatticeError("scale must be a positive integer")
    path = [(i, i + 1) for i in range(n - 1)]
    if kind == "A" and n >= 1:
        edges = path
    elif kind == "D" and n >= 2:
        edges = ([(0, 2), (1, 2)] if n > 2 else []) + path[2:]
    elif kind == "E" and n in (6, 7, 8):
        edges = path[:n - 2] + [(n - 4, n - 1)]
    else:
        raise LatticeError(f"no catalog lattice {kind}{n}")
    return Lattice([[scale * v for v in row] for row in _cartan(n, edges)])
