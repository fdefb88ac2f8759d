"""Workload generators, call runners and output checks for the benchmark.

Every workload is a fixed list of calls built from the seed with the standard
library alone, so a change to latscreen never changes the inputs.  A call is
one API or CLI invocation on one lattice; `run_call` is the only code that
touches the package and the only code the timer covers.  `canonical_bytes`
reduces a call's result to stable bytes for hashing, and `violations` checks
the invariants that hold for every seed.
"""

from __future__ import annotations

import collections
import hashlib
import io
import json
import math
import random
import sys
from dataclasses import dataclass

DEFAULT_SEED = 1
DIGEST_CHARS = 16  # hex characters kept per call in the frozen digest file

WHY = {
    "catalog-classify": "A/D/E catalog lattices at scales 1-4 plus scrambled copies: "
                        "deep divisor-shell walks, top-level LLL and the only recognition work",
    "random-dense": "all_screeners on dense random rank 6-8 Grams at the population's divisor-count "
                    "quantiles, some with known screeners: divisors, Smith form, per-shell LLL, "
                    "Schur levels, big-int walker",
    "rank2-cli": "200 stratified rank-2 Grams through the rank2 and pairs subcommands in-process: "
                 "argparse, JSON rendering and pair data per call",
}
NAMES = tuple(WHY)


@dataclass(frozen=True)
class Call:
    """One invocation.  `kind` is 'classify', 'screeners' or 'cli'; `argv`
    and `text` are set for CLI calls only; `original` is the index of the
    call a copy in another basis must agree with; `floor` is the number of
    screeners, counting both signs, the lattice is known to have at least."""

    label: str
    kind: str
    gram: tuple[tuple[int, ...], ...]
    argv: tuple[str, ...] = ()
    text: str = ""
    original: int | None = None
    floor: int = 0


def _tuple_gram(g) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(int(v) for v in row) for row in g)


def _det(g) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    a = [list(row) for row in g]
    n = len(a)
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            raise ValueError("zero pivot; generator matrices are positive definite")
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return a[n - 1][n - 1]


def _divisor_count(n: int) -> int:
    count = 1
    p = 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        count *= e + 1
        p += 1 if p == 2 else 2
    return count * (2 if n > 1 else 1)


# ---------------------------------------------------------------- generators

def _path_gram(n):
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        g[i][i] = 2
        if i + 1 < n:
            g[i][i + 1] = g[i + 1][i] = -1
    return g


def _d_gram(n):
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        g[i][i] = 2
    g[0][2] = g[2][0] = g[1][2] = g[2][1] = -1
    for i in range(2, n - 1):
        g[i][i + 1] = g[i + 1][i] = -1
    return g


def _e_gram(n):
    g = _path_gram(n)
    g[n - 2][n - 1] = g[n - 1][n - 2] = 0
    g[n - 4][n - 1] = g[n - 1][n - 4] = -1
    return g


CATALOG = (
    [("A", n, _path_gram) for n in range(1, 11)]
    + [("D", n, _d_gram) for n in range(4, 11)]
    + [("E", n, _e_gram) for n in (6, 7, 8)]
)


def _scramble(g, rng: random.Random):
    """U G U^T for a random unimodular U: 2d elementary row operations with
    coefficient +-1, then a signed row permutation."""
    d = len(g)
    u = [[int(i == j) for j in range(d)] for i in range(d)]
    if d > 1:
        for _ in range(2 * d):
            i, j = rng.sample(range(d), 2)
            c = rng.choice((-1, 1))
            u[i] = [a + c * b for a, b in zip(u[i], u[j])]
    rng.shuffle(u)
    u = [[-v for v in row] if rng.random() < 0.5 else row for row in u]
    ug = [[sum(u[i][k] * g[k][j] for k in range(d)) for j in range(d)] for i in range(d)]
    return [[sum(ug[i][k] * u[j][k] for k in range(d)) for j in range(d)] for i in range(d)]


def catalog_calls(seed: int) -> list[Call]:
    rng = random.Random(f"catalog-classify/{seed}")
    calls: list[Call] = []
    for kind, n, build in CATALOG:
        for scale in (1, 2, 3, 4):
            g = [[scale * v for v in row] for row in build(n)]
            calls.append(Call(f"{kind}{n}({scale})", "classify", _tuple_gram(g)))
            calls.append(Call(f"{kind}{n}({scale})~", "classify",
                              _tuple_gram(_scramble(g, rng)), original=len(calls) - 1))
    return calls


DENSE_RANKS = (6, 7, 8)

# Divisor counts of det G, per rank: the shell count sets most of a call's
# cost.  They are the population's quantiles (k + 1/2)/34, k = 0..33, over
# 20000 generator draws, from dense_population_taus(rank, 34, 20000), so the
# mix follows the generator's own population, many-shell tail included, and
# every seed gets the same counts.
DENSE_TAUS = {
    6: (2, 2, 4, 4, 4, 4, 6, 6, 8, 8, 8, 8, 8, 8, 12, 12, 12, 12, 16, 16, 16, 16, 18, 20,
        24, 24, 24, 32, 32, 36, 48, 48, 64, 96),
    7: (2, 4, 4, 4, 4, 4, 6, 8, 8, 8, 8, 8, 8, 12, 12, 12, 16, 16, 16, 16, 16, 20, 24, 24,
        24, 30, 32, 32, 40, 48, 48, 64, 80, 128),
    8: (2, 4, 4, 4, 4, 6, 8, 8, 8, 8, 8, 8, 12, 12, 12, 16, 16, 16, 16, 16, 20, 24, 24, 24,
        32, 32, 32, 40, 48, 48, 64, 72, 96, 144),
}

# Divisor counts of the lattices per rank that carry known screeners, each
# given in two bases.  The population's screener sets are almost always
# empty, so without these a lost vector could not show.
SEEDED_TAUS = (8, 16, 24)


def _dense_gram(rank: int, rng: random.Random):
    """A A^T + D with A in [-2, 2]^(d x d) and D = diag([1, 4]): dense and
    positive definite by construction."""
    a = [[rng.randint(-2, 2) for _ in range(rank)] for _ in range(rank)]
    return [
        [sum(a[i][k] * a[j][k] for k in range(rank)) + (rng.randint(1, 4) if i == j else 0)
         for j in range(rank)]
        for i in range(rank)
    ]


def dense_population_taus(rank: int, calls: int, draws: int) -> tuple[int, ...]:
    """The divisor counts of det G at the quantiles (k + 1/2)/calls of
    `draws` generator samples of this rank."""
    rng = random.Random(f"random-dense-population/{rank}")
    taus = sorted(_divisor_count(_det(_dense_gram(rank, rng))) for _ in range(draws))
    return tuple(taus[(2 * k + 1) * draws // (2 * calls)] for k in range(calls))


def _block_sum(dense, block):
    """The orthogonal sum of two Grams."""
    d, b = len(dense), len(block)
    return ([list(row) + [0] * b for row in dense]
            + [[0] * d + list(row) for row in block])


def _seeded(rank: int, tau: int, rng: random.Random):
    """A dense rank-(rank - 2) Gram plus a rank-2 block that has screeners,
    with `tau` divisors of det.  Returns the sum and the number of the
    block's screeners counting both signs: they stay screeners of the sum,
    so every basis of it has at least that many."""
    while True:
        a, c = rng.randint(1, 8), rng.randint(1, 8)
        b = rng.randint(-8, 8)
        if a * c - b * b <= 0:
            continue
        found = _rank2_screener_count(a, b, c)
        if not found:
            continue
        g = _block_sum(_dense_gram(rank - 2, rng), [[a, b], [b, c]])
        if _divisor_count(_det(g)) == tau:
            return g, 2 * found


def dense_calls(seed: int) -> list[Call]:
    rng = random.Random(f"random-dense/{seed}")
    calls: list[Call] = []
    for rank in DENSE_RANKS:
        need = collections.Counter(DENSE_TAUS[rank])
        while need:
            g = _dense_gram(rank, rng)
            tau = _divisor_count(_det(g))
            if need[tau]:
                need -= collections.Counter((tau,))
                calls.append(Call(f"rank{rank}-tau{tau}-{len(calls)}", "screeners", _tuple_gram(g)))
        for tau in SEEDED_TAUS:
            g, floor = _seeded(rank, tau, rng)
            first = len(calls)
            for copy in ("a", "b"):
                calls.append(Call(f"rank{rank}-seeded-tau{tau}-{first}{copy}", "screeners",
                                  _tuple_gram(_scramble(g, rng)),
                                  original=first if copy == "b" else None, floor=floor))
    return calls


def _rank2_screener_count(a: int, b: int, c: int) -> int:
    """Screeners of [[a, b], [b, c]] up to sign, by scanning the box
    |x| <= sqrt(2c), |y| <= sqrt(2a) that holds every vector of norm at most
    2 det, the largest norm a screener can have."""
    count = 0
    for x in range(math.isqrt(2 * c) + 1):
        for y in range(-math.isqrt(2 * a), math.isqrt(2 * a) + 1):
            if x == 0 and y <= 0:
                continue
            n = a * x * x + 2 * b * x * y + c * y * y
            if n % 2 or (x % 2 == 0 and y % 2 == 0):
                continue
            if (2 * (a * x + b * y)) % n == 0 and (2 * (b * x + c * y)) % n == 0:
                count += 1
    return count


# (lowest, highest) divisor count of det G, screener count (3 stands for 3 or
# more) and lattices per cell: the population's mix over all positive definite
# Grams with these entry ranges.  The divisor count sets the shell count and
# the screener count the pair data, so together they set most of a call's
# cost; a fixed mix keeps pools of different seeds comparable.
RANK2_MAX_ENTRY = 20
RANK2_PLAN = (
    (1, 2, 0, 41), (1, 2, 1, 2), (1, 2, 2, 6),
    (3, 4, 0, 42), (3, 4, 1, 6), (3, 4, 2, 11), (3, 4, 3, 1),
    (5, 6, 0, 22), (5, 6, 1, 4), (5, 6, 2, 8), (5, 6, 3, 1),
    (7, 8, 0, 14), (7, 8, 1, 5), (7, 8, 2, 6),
    (9, 10, 0, 4), (9, 10, 1, 1), (9, 10, 2, 4),
    (11, 400, 0, 10), (11, 400, 1, 3), (11, 400, 2, 8), (11, 400, 3, 1),
)


def rank2_calls(seed: int) -> list[Call]:
    rng = random.Random(f"rank2-cli/{seed}")
    need = [count for *_, count in RANK2_PLAN]
    calls: list[Call] = []
    while any(need):
        a, c = rng.randint(1, RANK2_MAX_ENTRY), rng.randint(1, RANK2_MAX_ENTRY)
        b = rng.randint(-RANK2_MAX_ENTRY, RANK2_MAX_ENTRY)
        if a * c - b * b <= 0:
            continue
        tau = _divisor_count(a * c - b * b)
        screeners = min(_rank2_screener_count(a, b, c), 3)
        slot = next((k for k, (lo, hi, sc, _) in enumerate(RANK2_PLAN)
                     if lo <= tau <= hi and sc == screeners), None)
        if slot is None or not need[slot]:
            continue
        need[slot] -= 1
        g = _tuple_gram([[a, b], [b, c]])
        k = len(calls) // 2
        block = f"{a} {b}\n{b} {c}\n"
        calls.append(Call(f"rank2 #{k}", "cli", g, ("rank2", "--input", "-"), block))
        doc = json.dumps({"gram": [list(r) for r in g], "name": f"pool-{k}"})
        calls.append(Call(f"pairs #{k}", "cli", g, ("pairs", "--input", "-"), doc))
    return calls


BUILDERS = {"catalog-classify": catalog_calls, "random-dense": dense_calls, "rank2-cli": rank2_calls}

# one fixed, seed-free call per workload, used as the warm-up and by the set-up probe
WARMUP = {
    "catalog-classify": Call("E6(2)", "classify", _tuple_gram([[2 * v for v in r] for r in _e_gram(6)])),
    "random-dense": Call("fixed-rank6", "screeners", _tuple_gram(
        [[9, 2, -1, 0, 3, 1], [2, 8, 1, -2, 0, 1], [-1, 1, 10, 2, -1, 0],
         [0, -2, 2, 7, 1, -1], [3, 0, -1, 1, 11, 2], [1, 1, 0, -1, 2, 6]])),
    "rank2-cli": Call("fixed-rank2", "cli", ((4, -2), (-2, 6)), ("pairs", "--input", "-"),
                      "4 -2\n-2 6\n"),
}


def build(name: str, seed: int) -> list[Call]:
    return BUILDERS[name](seed)


# ------------------------------------------------------------------- running

def run_call(ls, call: Call):
    """The timed unit: one invocation against the imported package `ls`.
    CLI calls go through `ls.cli.main` with stdin, stdout and stderr replaced
    by in-memory buffers and return (exit code, stdout text)."""
    if call.kind == "classify":
        return ls.identify_extended_type(ls.Lattice(call.gram))
    if call.kind == "screeners":
        return ls.all_screeners(ls.Lattice(call.gram))
    out = io.StringIO()
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(call.text), out, io.StringIO()
    try:
        code = ls.cli.main(list(call.argv))
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved
    return code, out.getvalue()


def _screener_doc(sset) -> dict:
    return {
        "vectors": [list(v) for v in sset.vectors],
        "norms": list(sset.norms),
        "total_count": sset.total_count,
    }


def canonical_bytes(call: Call, result) -> bytes:
    """Stable bytes of a result: screener vectors and norms, group labels and
    counts, or the CLI exit code and stdout bytes."""
    if call.kind == "cli":
        code, text = result
        return f"exit {code}\n".encode() + text.encode("utf-8")
    if call.kind == "classify":
        groups, sset = result
        doc = _screener_doc(sset)
        doc["groups"] = [
            [g.label, g.scale, g.expected_count, g.actual_count, [c.label for c in g.components]]
            for g in groups
        ]
    else:
        doc = _screener_doc(result)
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def summary(call: Call, result, warn_code: str):
    """The small part of a result the invariants look at."""
    if call.kind == "classify":
        groups, sset = result
        return (tuple(g.label for g in groups), sset.total_count)
    if call.kind == "cli":
        code, text = result
        if code != 0 or call.argv[0] != "rank2":
            return {"exit": code}
        doc = json.loads(text)
        res = doc["results"]
        explained = res.get("kind") == "no-screener" or res.get("agrees") \
            or warn_code in [w["code"] for w in doc["warnings"]]
        return {"exit": code, "rank2_explained": bool(explained)}
    return result.total_count


def violations(calls: list[Call], summaries: list) -> dict[int, str]:
    """Invariant breaches by call index.  `summaries[i]` is None for a call
    that raised; those are counted elsewhere."""
    bad: dict[int, str] = {}
    for i, call in enumerate(calls):
        s = summaries[i]
        if s is None:
            continue
        if call.original is not None:
            if summaries[call.original] is not None and s != summaries[call.original]:
                bad[i] = f"scrambled copy gives {s}, original gives {summaries[call.original]}"
        if call.kind == "screeners" and s < call.floor:
            bad.setdefault(i, f"{s} screeners, fewer than the {call.floor} known ones")
        elif call.kind == "cli":
            if s["exit"] != 0:
                bad[i] = f"exit code {s['exit']}"
            elif not s.get("rank2_explained", True):
                bad[i] = "rank2 neither agrees nor carries the 2b-odd warning"
    return bad
