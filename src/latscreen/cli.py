"""Command line interface.

Every subcommand writes one deterministic report to stdout (JSON by default,
a plain-text rendering with --format text); all diagnostics go to stderr
so report bytes are reproducible run to run.

A subcommand is a function from (parsed args, lattice) to its results dict,
plus a renderer from the report to text.  `main` does the rest in one place:
it reads --input and parses the lattice (None for the commands without
input), builds the `input` block (digest, name, rank, determinant), takes
`options` from the argparse namespace, and prints the report, or for
--format text the renderer's reading of that same JSON text.  A `warnings`
list among the results moves to the report's top level.

One writer, `_dumps`, writes that JSON text.  Its bytes equal
json.dumps(report, indent=2, sort_keys=True) with `_json_default` for
Fractions, Lattices and dataclasses; the stdlib call is the tests'
reference for them, not a second path here.

Exit codes: 0 success, 1 usage, 2 input that is not UTF-8 text, or a parse
or validation failure, 3 classification mismatch.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import re
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _encode_str

from .core import Lattice, LatticeError
from .pairs import analyze_screener
from .recognition import (
    ClassificationError,
    NoScreener,
    catalog,
    decompose,
    identify_extended_type,
    rank2_normal_form,
    rank2_predicted_in_lattice,
    rank2_screener_list,
)
from .screeners import all_screeners

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_MISMATCH = 3


class UsageError(Exception):
    pass


class ParseFailure(LatticeError):
    """Input that does not parse as a Gram; main reports it as any LatticeError."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        loc = f" (line {line}, column {column})" if line is not None else ""
        super().__init__(message + loc)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse failures to exit code 1
        raise UsageError(message)


def _json_syntax_error(text: str, pos: int) -> ParseFailure:
    """The JSON syntax error at text[pos], worded here rather than by the
    json module, whose message and column differ between Python versions.
    A comma after a value and before a closing bracket is reported at the
    bracket, where Python up to 3.12 puts it (3.13 points at the comma)."""
    ws = " \t\n\r"
    if text[pos:pos + 1] == "," and text[:pos].rstrip(ws)[-1:] not in ("[", "{", ","):
        after = len(text) - len(text[pos + 1:].lstrip(ws))
        if text[after:after + 1] in ("]", "}"):
            pos = after
    what = f"unexpected {text[pos]!r}" if pos < len(text) else "unexpected end of input"
    return ParseFailure(f"invalid JSON: {what}", text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos))


def parse_lattice(text: str) -> tuple[Lattice, str | None]:
    """Read a Gram matrix from JSON ({"gram": [[...]], "name"?, "scale"?})
    or from a plain whitespace-separated d*d integer block."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as e:
            raise _json_syntax_error(text, e.pos)
        if not isinstance(doc, dict) or "gram" not in doc:
            raise ParseFailure("JSON input must be an object with a 'gram' key")
        gram = doc["gram"]
        if not isinstance(gram, list) or not all(isinstance(r, list) for r in gram):
            raise ParseFailure("'gram' must be a list of rows")
        for i, row in enumerate(gram):
            for j, v in enumerate(row):
                if isinstance(v, bool) or not isinstance(v, int):
                    raise ParseFailure(f"gram[{i}][{j}] = {v!r} is not an integer")
        name = doc.get("name")
        if name is not None:
            if not isinstance(name, str):
                raise ParseFailure("'name' must be a string")
            try:
                name.encode("utf-8")
            except UnicodeEncodeError:  # a lone surrogate, such as "\ud800"
                raise ParseFailure("'name' must be valid Unicode text")
        scale = doc.get("scale", 1)
        if isinstance(scale, bool) or not isinstance(scale, int) or scale < 1:
            raise ParseFailure("'scale' must be a positive integer")
        rows = [[scale * v for v in row] for row in gram]
        return Lattice(rows), name
    # plain block: track line/column of the first bad token
    tokens: list[int] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        col = 1
        for tok in line.split():
            col = line.index(tok, col - 1) + 1
            try:
                tokens.append(int(tok))
            except ValueError:
                raise ParseFailure(f"token {tok!r} is not an integer", lineno, col)
            col += len(tok)
    if not tokens:
        raise ParseFailure("empty input")
    d = int(round(len(tokens) ** 0.5))
    if d * d != len(tokens):
        raise ParseFailure(f"{len(tokens)} values do not form a square matrix")
    rows = [tokens[i * d:(i + 1) * d] for i in range(d)]
    return Lattice(rows), None


def _read_input(path: str) -> str:
    """The text of --input: a UTF-8 file, or stdin for '-'.  Stdin is read
    as the interpreter decodes it; under a C or POSIX locale an undecodable
    byte arrives as a lone surrogate, which is refused here too."""
    if path == "-":
        text = sys.stdin.read()
        try:
            text.encode("utf-8")
        except UnicodeEncodeError:
            raise ParseFailure("cannot read standard input: not UTF-8 text")
        return text
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise ParseFailure(f"cannot read {path}: {e.strerror}")
    except UnicodeDecodeError:
        raise ParseFailure(f"cannot read {path}: not UTF-8 text")


# field names per dataclass type, looked up once: keyed by the package's
# few result types, never by input
_FIELD_NAMES: dict[type, tuple[str, ...]] = {}


def _json_default(obj):
    """The JSON form of a report value json cannot write itself."""
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, Lattice):
        return obj.gram
    kind = type(obj)
    names = _FIELD_NAMES.get(kind)
    if names is None:
        if not dataclasses.is_dataclass(kind):
            raise TypeError(f"{kind.__name__} is not JSON serializable")
        names = _FIELD_NAMES[kind] = tuple(f.name for f in dataclasses.fields(kind))
    return {name: getattr(obj, name) for name in names}


# json writes the non-finite floats by these names, every other one by repr
_FLOAT_NAMES = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _dumps(report) -> str:
    """The text of json.dumps(report, indent=2, sort_keys=True,
    default=_json_default), byte for byte, for a report whose dict keys
    are strings.  With an indent the stdlib leaves its C encoder for a
    pure-Python generator, which took a third of the rank2-cli workload;
    this is one recursive pass that appends to a list and joins once."""
    out: list[str] = []
    put = out.append
    int_text = int.__repr__

    def write(v, nl: str) -> None:
        # nl: a newline and the indent of v's closing bracket.  Plain str and
        # int, the commonest values, are tested first; their subclasses (and
        # bool, before int) fall through to the isinstance tests below.
        t = type(v)
        if t is str:
            put(_encode_str(v))
        elif t is int:
            put(int_text(v))
        elif isinstance(v, dict):
            if not v:
                put("{}")
                return
            inner = nl + "  "
            sep = "," + inner
            lead = "{" + inner
            for k in sorted(v):
                put(lead + _encode_str(k) + ": ")
                lead = sep
                write(v[k], inner)
            put(nl + "}")
        elif isinstance(v, (list, tuple)):
            if not v:
                put("[]")
                return
            inner = nl + "  "
            sep = "," + inner
            lead = "[" + inner
            for item in v:
                put(lead)
                lead = sep
                write(item, inner)
            put(nl + "]")
        elif v is None:
            put("null")
        elif v is True:
            put("true")
        elif v is False:
            put("false")
        elif isinstance(v, int):
            put(int_text(v))
        elif isinstance(v, float):
            text = float.__repr__(v)
            put(_FLOAT_NAMES.get(text, text))
        elif isinstance(v, str):
            put(_encode_str(v))
        else:
            write(_json_default(v), nl)

    write(report, "\n")
    return "".join(out)


def _vec(v) -> str:
    return "(" + ", ".join(str(t) for t in v) + ")"


def _screeners(args, lat: Lattice) -> dict:
    sset = all_screeners(lat)
    min_norm = sset.min_norm
    rows = [
        {"coords": v, "norm": n, "nonroot": bool(min_norm is not None and n > min_norm)}
        for v, n in zip(sset.vectors, sset.norms)
    ]
    return {
        "bound": 2 * lat.determinant,
        "count": len(sset),
        "total_count": sset.total_count,
        "min_norm": min_norm,
        "screeners": rows,
    }


def _render_screeners(r: dict) -> str:
    lines = [f"screeners of {r['input']['name'] or 'lattice'} "
             f"(rank {r['input']['rank']}, det {r['input']['determinant']})"]
    lines.append(f"searched norms <= {r['results']['bound']}")
    lines.append(f"{r['results']['count']} canonical, {r['results']['total_count']} with signs")
    for row in r["results"]["screeners"]:
        flag = "  nonroot" if row["nonroot"] else ""
        lines.append(f"  {_vec(row['coords'])} norm {row['norm']}{flag}")
    return "\n".join(lines) + "\n"


def _decompose(args, lat: Lattice) -> dict:
    dec = decompose(lat)
    return {
        "simple_roots": [{"coords": v, "norm": lat.norm(v)} for v in dec.simple_roots],
        "components": [
            {
                "type": c.kind,
                "n": c.n,
                "label": c.label,
                "scale": c.scale,
                "root_count": c.root_count,
                "basis": c.basis,
            }
            for c in dec.components
        ],
    }


def _render_decompose(r: dict) -> str:
    lines = [f"decomposition (rank {r['input']['rank']}, det {r['input']['determinant']})"]
    lines.append("simple roots:")
    for row in r["results"]["simple_roots"]:
        lines.append(f"  {_vec(row['coords'])} norm {row['norm']}")
    lines.append("components:")
    for c in r["results"]["components"]:
        lines.append(f"  {c['label']} scale {c['scale']} roots {c['root_count']}")
    return "\n".join(lines) + "\n"


def _classify(args, lat: Lattice) -> dict:
    groups, sset = identify_extended_type(lat)
    return {
        "screener_count": sset.total_count,
        "groups": [
            {
                "extended_type": g.label,
                "name": g.name,
                "n": g.n,
                "scale": g.scale,
                "expected_count": g.expected_count,
                "actual_count": g.actual_count,
                "components": [c.label for c in g.components],
            }
            for g in groups
        ],
    }


def _render_classify(r: dict) -> str:
    lines = [f"classification (rank {r['input']['rank']}, det {r['input']['determinant']})"]
    for g in r["results"]["groups"]:
        lines.append(
            f"  {g['extended_type']} scale {g['scale']}: "
            f"{g['actual_count']} screeners (expected {g['expected_count']})"
        )
    lines.append(f"total screeners {r['results']['screener_count']}")
    return "\n".join(lines) + "\n"


def _rank2(args, lat: Lattice) -> dict:
    # one walk serves the normal form and the actual list; other ranks fail before any walk
    sset = all_screeners(lat) if lat.rank == 2 else None
    form = rank2_normal_form(lat, sset)
    if isinstance(form, NoScreener):
        return {"kind": "no-screener"}
    predicted = rank2_predicted_in_lattice(form)
    actual = sset.vectors
    agrees = set(predicted) == set(actual)
    if not agrees and not form.warnings:
        raise ClassificationError(
            f"normal-form screener list {sorted(predicted)} disagrees with "
            f"the actual set {sorted(actual)}"
        )
    return {
        "kind": form.kind,
        "p": form.p,
        "m": form.m,
        "subtype": form.subtype,
        "normal_form_gram": form.gram,
        "basis_change_columns": list(zip(*form.basis_change)),
        "predicted_normal_form_coords": rank2_screener_list(form),
        "predicted": predicted,
        "actual": actual,
        "agrees": agrees,
        "warnings": [
            {
                "code": w,
                "message": "type 2b normal form with odd scale: the nominal "
                           "screener list overcounts; definition-level screeners win",
            }
            for w in form.warnings
        ],
    }


def _render_rank2(r: dict) -> str:
    res = r["results"]
    if res.get("kind") == "no-screener":
        return "no screeners: the lattice has no screening vector\n"
    lines = [f"normal form: {res['kind']} p={res['p']} m={res['m']}"
             + (f" subtype {res['subtype']}" if res["subtype"] else "")]
    lines.append(f"gram {res['normal_form_gram']}")
    lines.append(f"predicted screeners {res['predicted']}")
    lines.append(f"actual screeners    {res['actual']}")
    lines.append(f"agreement: {res['agrees']}")
    for w in r["warnings"]:
        lines.append(f"warning {w['code']}: {w['message']}")
    return "\n".join(lines) + "\n"


def _pairs(args, lat: Lattice) -> dict:
    if args.max_r < 0:
        raise UsageError(f"--max-r must be at least 0, got {args.max_r}")
    if args.alpha is not None:
        try:
            alpha = tuple(int(t) for t in args.alpha.split(","))
        except ValueError:
            raise UsageError(f"--alpha expects comma-separated integers, got {args.alpha!r}")
        targets = [alpha]
    else:
        targets = all_screeners(lat).vectors
    reports = [analyze_screener(lat, a, max_r=args.max_r) for a in targets]
    return {"max_r": args.max_r, "screeners": reports}


def _render_pairs(r: dict) -> str:
    lines = [f"screening pairs (rank {r['input']['rank']})"]
    for srep in r["results"]["screeners"]:
        note = "  [doubled: odd parity]" if srep["substituted"] else ""
        lines.append(f"alpha {_vec(srep['alpha'])} norm {srep['norm']}{note}")
        for ent in srep["entries"]:
            lines.append(f"  (p, p') = ({ent['p']}, {ent['p_prime']})")
            if "type_i" in ent:
                ti = ent["type_i"]
                lines.append(f"    type I: gamma {_vec(ti['gamma'])} c {ti['c']}")
            else:
                lines.append(f"    type I: error: {ent['type_i_error']}")
            for key, label in (("type_ii", "type II"), ("type_iii", "type III")):
                fr = ent[key]
                if fr["feasible"]:
                    lines.append(f"    {label}: feasible, c {fr['pair']['c']}, beta {fr['pair']['beta']}")
                else:
                    lines.append(f"    {label}: infeasible ({'; '.join(fr['reasons'])})")
            if ent["type_iv"]:
                for sol in ent["type_iv"]:
                    lines.append(
                        f"    type IV {sol['branch']}: r1={sol['r1']} r2={sol['r2']} m {sol['m_values']}"
                    )
            else:
                lines.append("    type IV: none")
    return "\n".join(lines) + "\n"


def _catalog(args, _) -> dict:
    return {"kind": args.kind, "n": args.n, "scale": args.scale,
            "gram": catalog(args.kind, args.n, args.scale)}


def _render_catalog(r: dict) -> str:
    rows = r["results"]["gram"]
    width = max(len(str(v)) for row in rows for v in row)
    return "\n".join(" ".join(str(v).rjust(width) for v in row) for row in rows) + "\n"


@functools.cache
def build_parser() -> _Parser:
    """The argument parser, built on the first call and shared by every
    later `main` call in the process (parsing never mutates it)."""
    parser = _Parser(
        prog="latscreen",
        description="Screening momenta of positive definite integral lattices",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help, run, render, with_input=True):
        p = sub.add_parser(name, help=help)
        if with_input:
            p.add_argument("--input", required=True,
                           help="lattice file (JSON or plain matrix block; '-' for stdin)")
        p.add_argument("--format", choices=("json", "text"), default="json")
        p.set_defaults(run=run, render=render)
        return p

    command("screeners", "enumerate all screening vectors", _screeners, _render_screeners)
    command("decompose", "simple roots and root components of the screeners",
            _decompose, _render_decompose)
    command("classify", "extended-type classification with count check", _classify, _render_classify)
    command("rank2", "rank-2 normal form and predicted screeners", _rank2, _render_rank2)

    p = command("pairs", "screening-pair data per screener", _pairs, _render_pairs)
    p.add_argument("--alpha", help="comma-separated coordinates (default: every screener)")
    p.add_argument("--max-r", type=int, default=50, help="level bound for the sporadic search")

    p = command("catalog", "standard Gram matrices (A/D/E, scaled)", _catalog, _render_catalog,
                with_input=False)
    p.add_argument("kind", choices=("A", "D", "E"))
    p.add_argument("n", type=int)
    p.add_argument("--scale", type=int, default=1)
    return parser


def _join_negative_alpha(argv: list[str]) -> list[str]:
    """Rewrite `--alpha -1,0` as `--alpha=-1,0`, and likewise for the
    prefixes of --alpha that argparse accepts (`--alp -1,0`).

    argparse takes a token that starts with '-' and is not a plain negative
    number, such as -1,0, for an option, so a negative first coordinate
    would leave --alpha without its value.  The typed prefix is kept, so
    argparse still judges it; a bare --alpha stays as it is.
    """
    out: list[str] = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if (len(tok) >= 3 and "--alpha".startswith(tok) and i + 1 < len(argv)
                and re.match(r"-\d", argv[i + 1])):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(argv[i])
            i += 1
    return out


# namespace entries that select the command rather than configure it
_NOT_OPTIONS = ("command", "run", "render", "input")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_join_negative_alpha(sys.argv[1:] if argv is None else list(argv)))
        report = {"command": args.command}
        lat = None
        if "input" in vars(args):
            text = _read_input(args.input)
            lat, name = parse_lattice(text)
            report["input"] = {
                "digest": "sha256:" + hashlib.sha256(text.encode("utf-8")).hexdigest(),
                "name": name,
                "rank": lat.rank,
                "determinant": lat.determinant,
            }
        results = args.run(args, lat)
        report["warnings"] = results.pop("warnings", [])
        report["options"] = {k: v for k, v in vars(args).items() if k not in _NOT_OPTIONS}
        report["results"] = results
        text = _dumps(report)
        sys.stdout.write(text + "\n" if args.format == "json" else args.render(json.loads(text)))
        return EXIT_OK
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except ClassificationError as e:
        print(f"classification mismatch: {e}", file=sys.stderr)
        return EXIT_MISMATCH
    except LatticeError as e:
        print(f"input error: {e}", file=sys.stderr)
        return EXIT_INPUT
