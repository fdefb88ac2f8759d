import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from certificates import within
from latscreen.cli import (
    EXIT_INPUT,
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_USAGE,
    ParseFailure,
    _dumps,
    _json_default,
    build_parser,
    main,
    parse_lattice,
)
from latscreen.core import Lattice, LatticeError
from latscreen.pairs import FeasibilityReport, PairSpec
from latscreen.recognition import WARN_2B_ODD

A2_TEXT = "2 -1\n-1 2\n"


def write(tmp_path, text, name="lat.txt"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


def test_parse_plain_block():
    lat, name = parse_lattice(A2_TEXT)
    assert lat.gram == ((2, -1), (-1, 2))
    assert name is None


def test_parse_plain_block_single_line():
    lat, _ = parse_lattice("2 -1 -1 2")
    assert lat.gram == ((2, -1), (-1, 2))


def test_parse_json_with_name_and_scale():
    lat, name = parse_lattice('{"gram": [[2, -1], [-1, 2]], "name": "a2", "scale": 3}')
    assert lat.gram == ((6, -3), (-3, 6))
    assert name == "a2"


def test_parse_json_rejects_non_integers():
    with pytest.raises(ParseFailure, match=r"gram\[0\]\[1\]"):
        parse_lattice('{"gram": [[2, 0.5], [0.5, 2]]}')
    with pytest.raises(ParseFailure, match=r"gram\[0\]\[0\] = True"):
        parse_lattice('{"gram": [[true]]}')


def test_parse_json_rejects_bad_scale():
    with pytest.raises(ParseFailure, match="'scale'"):
        parse_lattice('{"gram": [[2]], "scale": 0}')
    with pytest.raises(ParseFailure, match="'scale'"):
        parse_lattice('{"gram": [[2]], "scale": "2"}')


def test_parse_json_syntax_error_has_location():
    """The message is worded by parse_lattice, so it reads the same under
    every Python version; a trailing comma is reported at the bracket."""
    cases = [
        ('{"gram": [[2,]]}', "unexpected ']' (line 1, column 14)"),
        ('{"gram": [[2]],\n}', "unexpected '}' (line 2, column 1)"),
        ('{"gram": [,]}', "unexpected ',' (line 1, column 11)"),
        ('{"gram": [[2, 1] [1, 2]]}', "unexpected '[' (line 1, column 18)"),
        ('{"gram": [[2]]', "unexpected end of input (line 1, column 15)"),
    ]
    for text, message in cases:
        with pytest.raises(ParseFailure) as e:
            parse_lattice(text)
        assert str(e.value) == "invalid JSON: " + message


def test_parse_bad_token_has_location():
    with pytest.raises(ParseFailure, match=r"token 'x' .*line 2, column 3"):
        parse_lattice("2 -1\n0 x\n")


def test_parse_rejects_non_square():
    with pytest.raises(ParseFailure, match="do not form a square"):
        parse_lattice("1 2 3")
    with pytest.raises(ParseFailure, match="empty input"):
        parse_lattice("   \n  ")


def test_screeners_json_report(tmp_path, capsys):
    path = write(tmp_path, A2_TEXT)
    assert main(["screeners", "--input", path]) == EXIT_OK
    rep = json.loads(capsys.readouterr().out)
    assert rep["command"] == "screeners"
    assert rep["input"]["rank"] == 2
    assert rep["input"]["determinant"] == 3
    assert rep["input"]["digest"].startswith("sha256:")
    res = rep["results"]
    assert res["count"] == 6
    assert res["total_count"] == 12
    assert res["min_norm"] == 2
    assert sum(r["nonroot"] for r in res["screeners"]) == 3
    assert [r["coords"] for r in res["screeners"]][:3] == [[0, 1], [1, 0], [1, 1]]


def test_stdout_is_byte_identical(tmp_path, capsys, monkeypatch):
    path = write(tmp_path, A2_TEXT)
    outs = []
    for _ in range(2):
        assert main(["screeners", "--input", path]) == EXIT_OK
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


def test_screeners_reads_stdin(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(A2_TEXT))
    assert main(["screeners", "--input", "-"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["results"]["count"] == 6


def test_screeners_text_format(tmp_path, capsys):
    path = write(tmp_path, '{"gram": [[2, -1], [-1, 2]], "name": "a2"}')
    assert main(["screeners", "--input", path, "--format", "text"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("screeners of a2 (rank 2, det 3)")
    assert "6 canonical, 12 with signs" in out
    assert "(1, 2) norm 6  nonroot" in out


def test_classify_d4(tmp_path, capsys):
    path = write(tmp_path, "2 -1 0 0\n-1 2 -1 -1\n0 -1 2 0\n0 -1 0 2\n")
    assert main(["classify", "--input", path]) == EXIT_OK
    rep = json.loads(capsys.readouterr().out)
    groups = rep["results"]["groups"]
    assert len(groups) == 1
    assert groups[0]["extended_type"].startswith("F4")
    assert groups[0]["expected_count"] == 48
    assert groups[0]["actual_count"] == 48


def test_decompose_two_blocks(tmp_path, capsys):
    path = write(tmp_path, "2 -2\n-2 4\n")
    assert main(["decompose", "--input", path]) == EXIT_OK
    rep = json.loads(capsys.readouterr().out)
    comps = rep["results"]["components"]
    assert [(c["type"], c["n"], c["scale"]) for c in comps] == [("A", 1, 1), ("A", 1, 1)]


def test_rank2_mismatch_exits_3(tmp_path, capsys, monkeypatch):
    """A normal form whose predicted screeners disagree with the actual set,
    with no warning to explain it, is a classification mismatch: exit 3 and
    no report."""
    import latscreen.cli

    monkeypatch.setattr(latscreen.cli, "rank2_predicted_in_lattice", lambda form: ())
    assert main(["rank2", "--input", write(tmp_path, A2_TEXT)]) == EXIT_MISMATCH
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("classification mismatch: normal-form screener list [] disagrees")


def test_classify_not_generated_exits_2(tmp_path, capsys):
    path = write(tmp_path, "4 1\n1 4\n")
    assert main(["classify", "--input", path]) == EXIT_INPUT
    assert capsys.readouterr().out == ""


def test_decompose_not_generated_exits_2(tmp_path, capsys):
    path = write(tmp_path, "4 1\n1 4\n")
    assert main(["decompose", "--input", path]) == EXIT_INPUT
    out, err = capsys.readouterr()
    assert out == ""
    assert "do not generate" in err


def test_rank2_warning_survives_with_exit_0(tmp_path, capsys):
    path = write(tmp_path, "1 0\n0 1\n")
    assert main(["rank2", "--input", path]) == EXIT_OK
    rep = json.loads(capsys.readouterr().out)
    assert [w["code"] for w in rep["warnings"]] == [WARN_2B_ODD]
    assert rep["results"]["agrees"] is False


def test_rank2_unflagged_case_agrees(tmp_path, capsys):
    path = write(tmp_path, "4 -2\n-2 2\n")
    assert main(["rank2", "--input", path]) == EXIT_OK
    rep = json.loads(capsys.readouterr().out)
    assert rep["warnings"] == []
    res = rep["results"]
    assert res["agrees"] is True
    assert (res["kind"], res["p"], res["m"], res["subtype"]) == ("type2", 2, 2, "2b")


def test_rank2_no_screener(tmp_path, capsys):
    path = write(tmp_path, "1 0\n0 3\n")
    assert main(["rank2", "--input", path]) == EXIT_OK
    rep = json.loads(capsys.readouterr().out)
    assert rep["results"] == {"kind": "no-screener"}


def test_pairs_single_alpha(tmp_path, capsys):
    path = write(tmp_path, "12\n")
    assert main(["pairs", "--input", path, "--alpha", "1"]) == EXIT_OK
    rep = json.loads(capsys.readouterr().out)
    srep = rep["results"]["screeners"][0]
    assert srep["decompositions"] == [[1, 6], [2, 3], [3, 2], [6, 1]]
    gammas = [e["type_i"]["gamma"] for e in srep["entries"]]
    assert gammas == [["-5/12"], ["-1/12"], ["1/12"], ["5/12"]]
    cs = [e["type_i"]["c"] for e in srep["entries"]]
    assert cs == ["-24", "0", "0", "-24"]
    iv = srep["entries"][3]["type_iv"]
    assert iv[0]["branch"] == "A" and iv[0]["m_values"] == [4, 6]


def test_pairs_bad_alpha_is_usage_error(tmp_path, capsys):
    path = write(tmp_path, "12\n")
    assert main(["pairs", "--input", path, "--alpha", "1,x"]) == EXIT_USAGE


def test_catalog_text_round_trips(capsys):
    assert main(["catalog", "A", "2", "--format", "text"]) == EXIT_OK
    out = capsys.readouterr().out
    lat, _ = parse_lattice(out)
    assert lat.gram == ((2, -1), (-1, 2))


def test_catalog_json_scaled(capsys):
    assert main(["catalog", "D", "4", "--scale", "2"]) == EXIT_OK
    rep = json.loads(capsys.readouterr().out)
    gram = rep["results"]["gram"]
    assert gram[0][0] == 4
    assert len(gram) == 4


def test_catalog_rejects_bad_kind(capsys):
    assert main(["catalog", "Z", "4"]) == EXIT_USAGE


def test_unknown_command_is_usage_error(capsys):
    assert main(["bogus"]) == EXIT_USAGE


def test_missing_file_exits_2(capsys):
    assert main(["screeners", "--input", "/no/such/file"]) == EXIT_INPUT


def test_parse_failure_is_reported_as_a_lattice_error(tmp_path, capsys):
    """ParseFailure is a LatticeError, so main's one input-error clause
    reports a malformed JSON input and a non-definite Gram alike: the same
    `input error: ` line on stderr, nothing on stdout, exit 2."""
    assert issubclass(ParseFailure, LatticeError)
    path = write(tmp_path, '{"gram": [[2]', name="truncated.json")
    assert main(["screeners", "--input", path]) == EXIT_INPUT
    assert capsys.readouterr() == ("", "input error: invalid JSON: unexpected end of input (line 1, column 14)\n")
    path = write(tmp_path, "1 2\n2 1\n", name="indefinite.txt")
    assert main(["screeners", "--input", path]) == EXIT_INPUT
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("input error: ") and "leading principal minor 2 is -3" in err, err


def test_bad_matrix_exits_2(tmp_path, capsys):
    path = write(tmp_path, "2 x\nx 2\n")
    assert main(["screeners", "--input", path]) == EXIT_INPUT
    # non positive definite
    path = write(tmp_path, "0 1\n1 0\n", name="npd.txt")
    assert main(["screeners", "--input", path]) == EXIT_INPUT


def test_oracle_check_is_no_longer_a_subcommand(capsys):
    """The box-scan cross-check runs from the test suite's certificates,
    not from the package: the old subcommand is a usage error."""
    assert main(["oracle-check", "--seed", "1"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "invalid choice: 'oracle-check'" in captured.err


def test_pairs_rejects_a_negative_max_r(tmp_path, capsys):
    """A negative level bound would search no level and hide the type IV
    solution at (2, 3); 0 and 1 keep meaning that no level >= 2 is searched."""
    path = write(tmp_path, "12\n")
    assert main(["pairs", "--input", path, "--max-r", "-5"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "usage error: --max-r must be at least 0, got -5\n"
    for bound in ("0", "1"):
        assert main(["pairs", "--input", path, "--max-r", bound]) == EXIT_OK
        entries = json.loads(capsys.readouterr().out)["results"]["screeners"][0]["entries"]
        assert all(ent["type_iv"] == [] for ent in entries)
    assert main(["pairs", "--input", path]) == EXIT_OK
    entries = json.loads(capsys.readouterr().out)["results"]["screeners"][0]["entries"]
    assert (2, 3) in [(e["p"], e["p_prime"]) for e in entries if e["type_iv"]]


def _run_python(args):
    root = Path(__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(root / "src"), str(root / "tests"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": path},
    )


def _subprocess_stdout(argv):
    out = _run_python(["-m", "latscreen", *argv])
    return out.returncode, out.stdout


def test_console_script_runs():
    """The script target in pyproject.toml is cli.main, which `python -m
    latscreen` also runs, so the subprocess needs no installed script.  It
    imports the package from src, as the pytest configuration does."""
    root = Path(__file__).resolve().parents[1]
    pyproject = (root / "pyproject.toml").read_text()
    scripts = pyproject.split("\n[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    assert 'latscreen = "latscreen.cli:main"' in scripts.splitlines()
    assert _subprocess_stdout(["catalog", "A", "1", "--format", "text"]) == (0, "2\n")


NO_NUMPY = """
import importlib, pkgutil, sys
sys.modules["numpy"] = None
import latscreen
for mod in pkgutil.iter_modules(latscreen.__path__):
    importlib.import_module("latscreen." + mod.name)
import certificates
print(certificates.oracle_check(3, 20, 1)["cases"])
"""


def test_package_runs_without_numpy():
    """latscreen has no runtime dependency: with numpy blocked, every module
    imports and the box-scan cross-check passes."""
    out = _run_python(["-c", NO_NUMPY])
    assert out.returncode == 0, out.stderr
    assert out.stdout == "20\n"


def test_pairs_zero_alpha_has_its_own_message(tmp_path, capsys):
    path = write(tmp_path, A2_TEXT)
    assert main(["pairs", "--input", path, "--alpha", "0,0"]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert "alpha is the zero vector" in err
    assert "odd" not in err


def test_main_reuses_one_parser_without_leaking_options(tmp_path, capsys):
    """Repeated main calls in one process share the parser and print what a
    fresh process prints for the same argv, call by call."""
    assert build_parser() is build_parser()
    path = write(tmp_path, "4 -2\n-2 6\n")
    sequence = [
        ["pairs", "--input", path, "--alpha", "1,0", "--max-r", "7"],
        ["pairs", "--input", path],
        ["rank2", "--input", path, "--format", "text"],
        ["rank2", "--input", path, "--bogus"],
        ["rank2", "--input", path],
    ]
    in_process = []
    for argv in sequence:
        code = main(argv)
        in_process.append((code, capsys.readouterr().out))
    assert [code for code, _ in in_process] == [EXIT_OK, EXIT_OK, EXIT_OK, EXIT_USAGE, EXIT_OK]
    assert '"max_r": 50' in in_process[1][1]
    assert [_subprocess_stdout(argv) for argv in sequence] == in_process


@pytest.mark.parametrize("text, kind", [("4 -2\n-2 6\n", "type2"), ("1 0\n0 3\n", "no-screener")],
                         ids=["screeners", "none"])
def test_rank2_walks_the_lattice_once(tmp_path, capsys, monkeypatch, text, kind):
    import latscreen.cli
    import latscreen.recognition
    from latscreen.screeners import all_screeners

    walks = []

    def counting(lat):
        walks.append(lat.gram)
        return all_screeners(lat)

    monkeypatch.setattr(latscreen.cli, "all_screeners", counting)
    monkeypatch.setattr(latscreen.recognition, "all_screeners", counting)
    assert main(["rank2", "--input", write(tmp_path, text)]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["results"]["kind"] == kind
    assert len(walks) == 1


def _walks(monkeypatch, tmp_path, capsys, argv, text):
    """Run main(argv + --input) with both all_screeners bindings counted."""
    import latscreen.cli
    import latscreen.recognition
    from latscreen.screeners import all_screeners

    walks = []

    def counting(lat):
        walks.append(lat.gram)
        return all_screeners(lat)

    monkeypatch.setattr(latscreen.cli, "all_screeners", counting)
    monkeypatch.setattr(latscreen.recognition, "all_screeners", counting)
    assert main(argv + ["--input", write(tmp_path, text)]) == EXIT_OK
    return json.loads(capsys.readouterr().out)["results"], walks


D4_TEXT = "2 0 -1 0\n0 2 -1 0\n-1 -1 2 -1\n0 0 -1 2\n"


def test_decompose_walks_the_lattice_once(tmp_path, capsys, monkeypatch):
    results, walks = _walks(monkeypatch, tmp_path, capsys, ["decompose"], D4_TEXT)
    assert [c["label"] for c in results["components"]] == ["D4"]
    assert len(walks) == 1


def test_classify_walks_the_lattice_once(tmp_path, capsys, monkeypatch):
    results, walks = _walks(monkeypatch, tmp_path, capsys, ["classify"], D4_TEXT)
    assert [g["extended_type"] for g in results["groups"]] == ["F4"]
    assert len(walks) == 1


def test_pairs_takes_a_negative_alpha_in_either_spelling(tmp_path, capsys):
    path = write(tmp_path, A2_TEXT)
    outs = []
    for argv in (["--alpha", "-1,0"], ["--alpha=-1,0"], ["--alph", "-1,0"], ["--alp", "-1,0"]):
        assert main(["pairs", "--input", path] + argv) == EXIT_OK
        outs.append(capsys.readouterr().out)
    assert outs[1:] == outs[:1] * 3
    assert json.loads(outs[0])["results"]["screeners"][0]["alpha"] == [-1, 0]
    assert main(["pairs", "--input", path, "--alpha"]) == EXIT_USAGE
    assert "expected one argument" in capsys.readouterr().err



def test_pairs_of_a_half_norm_past_the_bound_answer_quickly(tmp_path, capsys):
    """<alpha, alpha>/2 = N = (10^9 + 7)(10^9 + 9)(10^9 + 21) lies past
    3.3 10^24, where Miller-Rabin's "prime" is not proven; its "composite"
    is, so rho splits N, and the decompositions come within 10 s."""
    n = (10 ** 9 + 7) * (10 ** 9 + 9) * (10 ** 9 + 21)
    path = write(tmp_path, f"{2 * n} 0\n0 2\n")
    with within(10):
        code = main(["pairs", "--input", path, "--alpha", "1,0"])
    assert code == EXIT_OK
    splits = json.loads(capsys.readouterr().out)["results"]["screeners"][0]["decompositions"]
    assert splits[0] == [1, n] and len(splits) == 8

# Every subcommand in both formats, on success and error inputs.  A case is
# (name, argv, text): text goes to stdin when argv names --input itself, and
# otherwise to a file appended as --input.
REPORT_CASES = [
    ("screeners-a2", ["screeners"], A2_TEXT),
    ("screeners-json-named-scaled", ["screeners"], '{"gram": [[2, -1], [-1, 2]], "name": "a2", "scale": 3}'),
    ("screeners-json-escaped-name", ["screeners"],
     '{"gram": [[2, -1], [-1, 2]], "name": "Λ₂ ü \\"q\\" \\\\ \\t \\u0001"}'),
    ("screeners-stdin", ["screeners", "--input", "-"], A2_TEXT),
    ("screeners-rank1", ["screeners"], "12\n"),
    ("screeners-rank3", ["screeners"], "2 -1 0\n-1 2 -1\n0 -1 4\n"),
    ("screeners-not-definite", ["screeners"], "0 1\n1 0\n"),
    ("screeners-negative-definite", ["screeners"], "-2 0\n0 -2\n"),
    ("screeners-not-symmetric", ["screeners"], "2 1\n0 2\n"),
    ("screeners-bad-token", ["screeners"], "2 x\nx 2\n"),
    ("screeners-not-square", ["screeners"], "1 2 3\n"),
    ("screeners-empty", ["screeners"], "  \n"),
    ("screeners-bad-json", ["screeners"], '{"gram": [[2,]]}'),
    ("screeners-json-not-integer", ["screeners"], '{"gram": [[2, 0.5], [0.5, 2]]}'),
    ("screeners-missing-file", ["screeners", "--input", "/nonexistent/lattice.txt"], None),
    ("decompose-d4", ["decompose"], D4_TEXT),
    ("decompose-two-blocks", ["decompose"], "2 -2\n-2 4\n"),
    ("decompose-mixed-scales", ["decompose"], "2 0 0\n0 4 -2\n0 -2 4\n"),
    ("decompose-stdin", ["decompose", "--input", "-"], '{"gram": [[2, -1], [-1, 2]], "scale": 2}'),
    ("decompose-not-generated", ["decompose"], "4 1\n1 4\n"),
    ("decompose-odd", ["decompose"], "1 0\n0 1\n"),
    ("decompose-odd-generated", ["decompose"], "1\n"),
    ("decompose-not-definite", ["decompose"], "2 3\n3 2\n"),
    ("classify-d4", ["classify"], D4_TEXT),
    ("classify-two-blocks", ["classify"], "2 -2\n-2 4\n"),
    ("classify-mixed-scales", ["classify"], "2 0 0\n0 4 -2\n0 -2 4\n"),
    ("classify-stdin", ["classify", "--input", "-"], '{"gram": [[2, -1], [-1, 2]], "scale": 2}'),
    ("classify-not-generated", ["classify"], "4 1\n1 4\n"),
    ("classify-odd", ["classify"], "1 0\n0 1\n"),
    ("classify-odd-generated", ["classify"], "1\n"),
    ("classify-not-definite", ["classify"], "2 3\n3 2\n"),
    ("rank2-warning", ["rank2"], "1 0\n0 1\n"),
    ("rank2-type2b", ["rank2"], "4 -2\n-2 2\n"),
    ("rank2-no-screener", ["rank2"], "1 0\n0 3\n"),
    ("rank2-type2a", ["rank2"], "4 -2\n-2 6\n"),
    ("rank2-type1", ["rank2"], "2 0\n0 5\n"),
    ("rank2-stdin", ["rank2", "--input", "-"], A2_TEXT),
    ("rank2-rank3", ["rank2"], "2 -1 0\n-1 2 -1\n0 -1 2\n"),
    ("pairs-single-alpha", ["pairs", "--alpha", "1"], "12\n"),
    ("pairs-every-screener", ["pairs"], A2_TEXT),
    ("pairs-negative-alpha", ["pairs", "--alpha", "-1,0"], A2_TEXT),
    ("pairs-negative-alpha-joined", ["pairs", "--alpha=-1,0"], A2_TEXT),
    ("pairs-negative-alpha-prefix", ["pairs", "--alph", "-1,0"], A2_TEXT),
    ("pairs-max-r", ["pairs", "--max-r", "7"], "4 -2\n-2 6\n"),
    ("pairs-stdin", ["pairs", "--input", "-", "--alpha", "1,1"], A2_TEXT),
    ("pairs-bad-alpha", ["pairs", "--alpha", "1,x"], "12\n"),
    ("pairs-zero-alpha", ["pairs", "--alpha", "0,0"], A2_TEXT),
    ("pairs-alpha-wrong-length", ["pairs", "--alpha", "1"], A2_TEXT),
    ("pairs-alpha-without-value", ["pairs", "--alpha"], A2_TEXT),
    ("pairs-not-definite", ["pairs"], "0 1\n1 0\n"),
    ("pairs-no-screener", ["pairs"], "1 0\n0 3\n"),
    ("pairs-type-ii-beta", ["pairs"], "12 0\n0 2\n"),
    ("pairs-type-ii-and-iii", ["pairs"], "12 0\n0 5\n"),
    ("pairs-type-ii-fraction-c", ["pairs", "--alpha", "1,0"], "16 0\n0 14\n"),
    ("pairs-type-ii-no-direction", ["pairs", "--alpha=-1,-1"], "30 -46\n-46 78\n"),
    ("catalog-a2", ["catalog", "A", "2"], None),
    ("catalog-d4-scaled", ["catalog", "D", "4", "--scale", "2"], None),
    ("catalog-e8", ["catalog", "E", "8"], None),
    ("catalog-d2", ["catalog", "D", "2"], None),
    ("catalog-a0", ["catalog", "A", "0"], None),
    ("catalog-e5", ["catalog", "E", "5"], None),
    ("catalog-scale-0", ["catalog", "A", "2", "--scale", "0"], None),
]

REPORT_DIGESTS = Path(__file__).parent / "data" / "report_digests.json"


def report_digests(workdir) -> dict[str, str]:
    """sha256 of [exit code, stdout, stderr] for every case in REPORT_CASES
    and format.

    Regenerate the fixture with
    PYTHONPATH=src:tests python -c "import json, tempfile, test_cli;
    print(json.dumps(test_cli.report_digests(tempfile.mkdtemp()), indent=1, sort_keys=True))"
    """
    digests = {}
    for name, argv, text in REPORT_CASES:
        argv = list(argv)
        stdin = io.StringIO(text or "")
        if text is not None and "--input" not in argv:
            argv += ["--input", write(Path(workdir), text, name=f"{name}.txt")]
        for fmt in ("json", "text"):
            out, err = io.StringIO(), io.StringIO()
            stdin.seek(0)
            saved = sys.stdin
            sys.stdin = stdin
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main(argv + ["--format", fmt])
            finally:
                sys.stdin = saved
            blob = json.dumps([code, out.getvalue(), err.getvalue()])
            digests[f"{name}/{fmt}"] = hashlib.sha256(blob.encode("utf-8")).hexdigest()
    return digests


def test_reports_are_unchanged(tmp_path):
    """Exit code, stdout and stderr of every subcommand match the digests
    recorded before the report code was shared between the subcommands."""
    assert report_digests(tmp_path) == json.loads(REPORT_DIGESTS.read_text())


# Every value a report can hold, nested: full-Unicode text with lone
# surrogates, ints past 64 bits, non-finite floats, and the values that go
# through _json_default (Fractions, a Lattice, pair-layer dataclasses).
_TEXT = st.text(
    st.characters(exclude_categories=())
    | st.characters(min_codepoint=0xD800, max_codepoint=0xDFFF, exclude_categories=())
    | st.sampled_from('"\\/\t\n\x01\x7f\u2028')
)
_INTS = st.integers(-2 ** 200, 2 ** 200)
_PAIR = st.builds(
    PairSpec,
    alpha=st.tuples(_INTS, _INTS),
    p=_INTS,
    p_prime=_INTS,
    pair_type=st.sampled_from(["I", "II", "III"]),
    gamma=st.tuples(st.fractions(), st.fractions()),
    c=st.fractions(),
    extra=st.dictionaries(_TEXT, _INTS, max_size=3),
    beta=st.none() | st.tuples(_INTS, _INTS),
)
_LEAVES = (
    _TEXT | _INTS | st.booleans() | st.none() | st.fractions()
    | st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0])
    | st.just(Lattice([[2, -1], [-1, 2]])) | _PAIR
    | st.builds(FeasibilityReport, st.booleans(), st.tuples(_TEXT), st.none() | _PAIR)
)
_VALUES = st.recursive(
    _LEAVES,
    lambda inner: st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(_TEXT, inner, max_size=4),
    max_leaves=30,
)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(_VALUES)
def test_report_writer_matches_the_stdlib(value):
    """The report writer gives the bytes of the stdlib's indent-2 sorted
    json.dumps, the tests' reference for the report layout."""
    assert _dumps(value) == json.dumps(value, indent=2, sort_keys=True, default=_json_default)


def test_reports_are_written_without_json_dumps(tmp_path, capsys, monkeypatch):
    """pairs and rank2 write their reports, in both formats, by the one
    report writer and never through json.dumps."""

    def refuse(*args, **kwargs):
        raise AssertionError("json.dumps called")

    monkeypatch.setattr(json, "dumps", refuse)
    path = write(tmp_path, "4 -2\n-2 6\n")
    for command in ("pairs", "rank2"):
        for fmt in ("json", "text"):
            assert main([command, "--input", path, "--format", fmt]) == EXIT_OK
            assert capsys.readouterr().out


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("data, message", [
    (b"\xff\xfe 2", "cannot read {path}: not UTF-8 text"),
    (b'{"gram": [[2]], "name": "\\ud800"}', "'name' must be valid Unicode text"),
], ids=["not-utf8", "lone-surrogate-name"])
def test_undecodable_file_input_exits_2(tmp_path, capsys, data, message, fmt):
    """A file that is not UTF-8, and a JSON name escaping a lone surrogate
    (which no output can encode), are input errors in either format."""
    path = tmp_path / "lat.txt"
    path.write_bytes(data)
    assert main(["screeners", "--input", str(path), "--format", fmt]) == EXIT_INPUT
    assert capsys.readouterr() == ("", f"input error: {message.format(path=path)}\n")


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_stdin_that_is_not_utf8_exits_2(fmt):
    """Under a C locale stdin decodes a stray byte to a lone surrogate; the
    input is refused before its digest is taken."""
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONIOENCODING", "PYTHONUTF8")}
    root = Path(__file__).resolve().parents[1]
    out = subprocess.run(
        [sys.executable, "-m", "latscreen", "screeners", "--input", "-", "--format", fmt],
        input=b'{"gram": [[2]], "name": "\xff"}', capture_output=True, timeout=120,
        env={**env, "LC_ALL": "C", "PYTHONPATH": str(root / "src")},
    )
    assert (out.returncode, out.stdout) == (EXIT_INPUT, b"")
    assert out.stderr == b"input error: cannot read standard input: not UTF-8 text\n"
