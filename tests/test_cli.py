"""Command-line behavior: contract outputs, exit codes, schemas."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from importlib import resources
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from renzeta.arith import PoleAtZero
from renzeta.birkhoff import CheckReport
from renzeta.laurent import InsufficientPrecision
from renzeta.suites import SUITES
from renzeta import cli, mzv

EXPECTED = Path(__file__).resolve().parents[1] / "bench" / "expected.json"


def run(capsys, argv):
    rc = cli.main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def load_schema(name):
    text = resources.files("renzeta").joinpath(
        f"schemas/{name}").read_text()
    schema = json.loads(text)
    jsonschema.Draft202012Validator.check_schema(schema)
    return schema


ROW_SCHEMA = load_schema("table.schema.json")["$defs"]["row"]


# ---------------------------------------------------------------------------
# eval and directional

def test_eval_contract_values(capsys):
    for s, want in (("0,0", "3/8"), ("0", "-1/2"), ("-1", "-1/12")):
        rc, out, err = run(capsys, ["eval", "--s", s])
        assert rc == 0 and err == ""
        assert out == want + "\n"


# the zero-exponent words whose expansions dominate eval and table, and
# their exact values
HEAVY_EVAL_VALUES = (
    ("-3,-3,0", "-61/28800"),
    ("-2,0,-2,0", "-11737/9676800"),
    ("0,-4,-4,0", "2635/1397088"),
    ("-3,-3,-3,0", "181124335957/52960811904000"),
    ("-4,-4,-4,0", "-11380928123419637/424302766497792000"),
    ("-2,-2,-2,-2,0", "492631577190497/289236647411712000"),
    ("0,-3,0,-3,0", "496921/851558400"),
)


@pytest.mark.parametrize("s, want", HEAVY_EVAL_VALUES)
def test_eval_heavy_zero_words(capsys, s, want):
    rc, out, err = run(capsys, ["eval", f"--s={s}"])
    assert rc == 0 and err == ""
    assert out == want + "\n"


def test_eval_approx(capsys):
    rc, out, _ = run(capsys, ["eval", "--s", "0,0", "--approx"])
    assert rc == 0
    assert out == "3/8 ~ 0.375\n"


def test_eval_json_row(capsys):
    rc, out, _ = run(capsys, ["eval", "--s", "0,0", "--format", "json"])
    assert rc == 0
    row = json.loads(out)
    jsonschema.validate(row, ROW_SCHEMA)
    assert row == {"r": "auto-delta", "s": [0, 0], "value": "3/8"}


def test_directional_values(capsys):
    rc, out, _ = run(capsys, ["directional", "--s", "0,0", "--r", "1,2"])
    assert rc == 0 and out == "13/36\n"
    rc, out, _ = run(capsys, ["directional", "--s", "0,0", "--r", "2,1"])
    assert out == "7/18\n"


def test_directional_json_row(capsys):
    rc, out, _ = run(
        capsys, ["directional", "--s", "0,0", "--r", "1,2",
                 "--format", "json", "--approx"])
    row = json.loads(out)
    jsonschema.validate(row, ROW_SCHEMA)
    assert row["r"] == ["1", "2"]
    assert row["value"] == "13/36"
    assert row["approx"] == pytest.approx(13 / 36)


def test_directional_delta_directions(capsys):
    rc, out, _ = run(capsys, ["directional", "--s", "0,0", "--r", "d,d"])
    assert rc == 0 and out == "3/8\n"


@pytest.mark.parametrize("argv, expected", [
    (["directional", "--s=0,0,-1", "--r=d,1+d^2,1/2+d"],
     "(-479/3840 - 1229/1920*d - 20209/11520*d^2 - 2273/720*d^3"
     " - 37/9*d^4 - 11527/2880*d^5 - 1705/576*d^6 - 59/36*d^7"
     " - 95/144*d^8 - 7/40*d^9 - 1/40*d^10)/(81/16 + 405/16*d"
     " + 1089/16*d^2 + 243/2*d^3 + 631/4*d^4 + 154*d^5 + 229/2*d^6"
     " + 64*d^7 + 26*d^8 + 7*d^9 + d^10)\n"),
    (["directional", "--s=-1,0", "--r=d,3+d", "--format", "json"],
     '{"r": ["d", "3 + d"], "s": [-1, 0], "value": "1/12"}\n'),
    (["series", "--s=0,-1", "--r=1+d,2d", "--prec", "3"],
     "regularized: (-1/9)/(1/9 + 7/9*d + 5/3*d^2 + d^3)\u00b7eps^-3"
     " + (-1/18)/(1/9 + 2/3*d + d^2)\u00b7eps^-2"
     " + (1/27*d + 2/27*d^2)/(1/9 + 7/9*d + 5/3*d^2 + d^3)\u00b7eps^-1"
     " + O(eps^0)\n"
     "renormalized: 1/24 + (1/2160 + 1/1296*d - 13/2160*d^2"
     " - 89/6480*d^3)/(1/9 + 2/3*d + d^2)\u00b7eps"
     " + (-1/480 - 1/80*d - 3/160*d^2)\u00b7eps^2 + O(eps^3)\n"),
])
def test_delta_direction_bytes(capsys, argv, expected):
    # Q(delta) text and JSON that no recorded benchmark output covers
    rc, out, err = run(capsys, argv)
    assert (rc, err) == (0, "")
    assert out == expected


# a whole pole-free window over Q(delta) with mixed directions: the
# rational letter (-1, 2) enters a Q(delta) session by coercion
MIXED_SERIES = ["series", "--s=0,-1,0", "--r=1+d,2,d", "--prec", "6"]
MIXED_CONSTANT = (
    "(-487/120 - 49/4*d - 1459/96*d^2 - 28583/2880*d^3 - 10363/2880*d^4"
    " - 659/960*d^5 - 31/576*d^6)/(81 + 243*d + 1197/4*d^2 + 387/2*d^3"
    " + 277/4*d^4 + 13*d^5 + d^6)")


@pytest.mark.parametrize("fmt, digest", [
    ("text",
     "9d562668da1983483d6b6743d53c2985724eb749ed8f99a94ee324d8fa8f53ac"),
    ("json",
     "ab839886b37776675486ec85ca8a2b580c92955af88ed1689189c332474bcff9"),
])
def test_mixed_delta_series_window_bytes(capsys, fmt, digest):
    rc, out, err = run(capsys, MIXED_SERIES + ["--format", fmt])
    assert (rc, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    if fmt == "text":
        assert out.splitlines()[1].startswith(
            f"renormalized: {MIXED_CONSTANT} + ")
    else:
        constant = json.loads(out)["renormalized"]["coeffs"][0]
        assert constant["num"][0] == "-487/120"
        assert constant["den"] == [
            "81", "243", "1197/4", "387/2", "277/4", "13", "1"]


# Q(delta) JSON outputs that no recorded benchmark output covers: a
# directional value at three delta directions and a whole series window
# whose regularized part has poles at delta = 0
@pytest.mark.parametrize("argv, digest", [
    (["directional", "--s=0,-1,0", "--r=d,1+d,2+d", "--format", "json"],
     "48d03ba2850aada7cfd56c750f59b787b53e5bb451c91f822f6c30a8fc1326c5"),
    (["series", "--s=0,0,-1", "--r=d,2d,1+d", "--prec", "5",
      "--format", "json"],
     "4754eed5b2e201bc51f94c3567f8b3acd52311313fe03000a3141b01b3952c1c"),
])
def test_delta_direction_json_bytes(capsys, argv, digest):
    rc, out, err = run(capsys, argv)
    assert (rc, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# rational directions outside the benchmark pool, whose directions are p/q
# with p <= 6 and q <= 3 at --prec 6: wider contents and a longer window,
# as text and JSON
WIDE_SERIES = ["series", "--s=-3,-2,0,-1", "--r=7/5,11/3,13/2,5/4",
               "--prec", "10"]
WIDE_DIRECTIONAL = ["directional", "--s=-4,-4,-4", "--r=9/7,2/9,5/3"]


@pytest.mark.parametrize("argv, digest", [
    (WIDE_SERIES + ["--format", "text"],
     "f83d1798d46c10aafd7dea44e5df5bb49194bfe6e12df3a215e1c1b102e4b104"),
    (WIDE_SERIES + ["--format", "json"],
     "f05e8fc751489f82275b41322c730f321c59b88f164ae83bca49edaf5a7ccca2"),
    (WIDE_DIRECTIONAL + ["--format", "text"],
     "6d9f7a5f262d276d59f721d3fa84f3780e06b1cb40229374fb261dab9ae3bbb2"),
    (WIDE_DIRECTIONAL + ["--format", "json"],
     "274c84df429fc4211ca93b128c8856465aedadc54bd2cf5c051e995575a14e71"),
])
def test_wide_rational_direction_bytes(capsys, argv, digest):
    rc, out, err = run(capsys, argv)
    assert (rc, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_mixed_rational_and_delta_directions(capsys):
    for argv in (["directional", "--s", "0,0", "--r", "1+d,2"],
                 ["series", "--s", "0,-1", "--r", "1/2,d"]):
        rc, out, err = run(capsys, argv)
        assert rc == 0 and err == "", argv
        assert out, argv


def test_negative_exponent_list_is_a_value(capsys):
    rc, out, err = run(capsys, ["eval", "--s", "-2,-1"])
    assert rc == 0 and err == ""
    _, out_eq, _ = run(capsys, ["eval", "--s=-2,-1"])
    assert out == out_eq == "-1/240\n"


# ---------------------------------------------------------------------------
# series

def test_series_text_contract(capsys):
    rc, out, _ = run(
        capsys, ["series", "--s", "0,0", "--r", "1,1", "--prec", "3"])
    assert rc == 0
    assert out.splitlines() == [
        "regularized: 1/2·eps^-2 + 3/4·eps^-1 + 11/24 + O(eps^1)",
        "renormalized: 3/8 + 1/8·eps + 1/288·eps^2 + O(eps^3)",
    ]
    rc, out, _ = run(
        capsys, ["series", "--s", "0", "--r", "1", "--prec", "2"])
    assert out.splitlines()[1] == \
        "renormalized: -1/2 + -1/12·eps + O(eps^2)"
    rc, out, _ = run(
        capsys, ["series", "--s", "0", "--r", "1", "--prec", "1"])
    assert out.splitlines() == [
        "regularized: -1·eps^-1 + O(eps^0)",
        "renormalized: -1/2 + O(eps^1)",
    ]


def test_series_precision_from_environment(capsys, monkeypatch):
    monkeypatch.setenv(cli.PRECISION_ENV, "2")
    rc, out_env, _ = run(capsys, ["series", "--s", "0", "--r", "1"])
    assert rc == 0
    monkeypatch.delenv(cli.PRECISION_ENV)
    _, out_flag, _ = run(
        capsys, ["series", "--s", "0", "--r", "1", "--prec", "2"])
    assert out_env == out_flag
    monkeypatch.setenv(cli.PRECISION_ENV, "zero")
    rc, _, err = run(capsys, ["series", "--s", "0", "--r", "1"])
    assert rc == cli.EXIT_USAGE and "not an integer" in err


def test_series_expands_the_full_word_once(capsys, monkeypatch):
    # both windows come from one decomposition session, whose character
    # expands each word through the private recursion entry
    seen = []
    expand = mzv._expansion

    def spy(ring, word, precision):
        seen.append(word)
        return expand(ring, word, precision)

    monkeypatch.setattr(mzv, "_expansion", spy)
    rc, _, _ = run(capsys, ["series", "--s", "0,-1", "--r", "1,2"])
    assert rc == 0
    assert seen.count(mzv.argument_word((0, -1), (1, 2))) == 1


def test_series_json_schema(capsys):
    schema = load_schema("series.schema.json")
    rc, out, _ = run(
        capsys, ["series", "--s", "0,0", "--r", "1,2",
                 "--format", "json"])
    assert rc == 0
    obj = json.loads(out)
    jsonschema.validate(obj, schema)
    assert obj["renormalized"]["coeffs"][0] == "13/36"
    assert obj["regularized"]["minOrder"] == -2


def test_series_json_delta_coefficients(capsys):
    schema = load_schema("series.schema.json")
    rc, out, _ = run(
        capsys, ["series", "--s", "0", "--r", "d", "--format", "json",
                 "--prec", "2"])
    assert rc == 0
    obj = json.loads(out)
    jsonschema.validate(obj, schema)
    assert obj["renormalized"]["coeffs"][0] == {
        "num": ["-1/2"], "den": ["1"]}


# ---------------------------------------------------------------------------
# verify

def test_verify_small_suite(capsys):
    argv = ["verify", "--suite", "differential", "--max-weight", "2"]
    rc, out, _ = run(capsys, argv)
    assert rc == 0
    lines = out.splitlines()
    assert lines and all(line.startswith("ok ") for line in lines)
    rc, again, _ = run(capsys, argv)
    assert again == out


def test_verify_json_stream(capsys):
    schema = load_schema("report.schema.json")
    rc, out, _ = run(
        capsys, ["verify", "--suite", "differential",
                 "--max-weight", "2", "--format", "json"])
    assert rc == 0
    for line in out.splitlines():
        report = json.loads(line)
        jsonschema.validate(report, schema)
        assert report["pass"] is True


def test_verify_failure_exit_code(capsys, monkeypatch):
    bad = CheckReport(word="w", check="c", passed=False,
                      lhs="0", rhs="1")
    monkeypatch.setattr(cli, "run_suite", lambda *a, **k: [bad])
    rc, out, _ = run(capsys, ["verify", "--suite", "mzv"])
    assert rc == cli.EXIT_VERIFY
    assert out == "FAIL c: w: 0 != 1\n"


def test_verify_fails_when_no_case_was_checked(capsys):
    rc, out, _ = run(
        capsys, ["verify", "--suite", "hopf", "--max-weight", "-3"])
    assert rc == cli.EXIT_VERIFY
    assert "FAIL product-oracle: all |u|+|v| <= -3" in out
    # two nonempty words weigh at least 2, so below that no pair is sampled
    for bound in ("-3", "1"):
        rc, out, _ = run(
            capsys, ["verify", "--suite", "hopf", "--max-weight", bound])
        assert rc == cli.EXIT_VERIFY
        lines = out.splitlines()
        for check in ("product-commutativity",
                      "coproduct-multiplicativity"):
            assert any(line.startswith(f"FAIL {check}:")
                       and "0 cases agree" in line for line in lines), \
                (bound, check, out)
    for suite in ("birkhoff", "differential", "all"):
        rc, out, err = run(
            capsys, ["verify", "--suite", suite, "--max-weight", "0"])
        assert rc == cli.EXIT_VERIFY and err == "", suite
        assert any(line.startswith("FAIL ") for line in out.splitlines()), \
            suite
    # below weight 2 there is no pair to multiply
    rc, out, err = run(
        capsys, ["verify", "--suite", "mzv", "--max-weight", "1"])
    assert rc == cli.EXIT_VERIFY and err == ""
    assert any(line.startswith("FAIL value-multiplicativity")
               for line in out.splitlines())


def test_verify_hopf_labels_count_the_pairs_drawn(capsys):
    rc, out, err = run(
        capsys, ["verify", "--suite", "hopf", "--max-weight", "1"])
    assert rc == cli.EXIT_VERIFY and err == ""
    lines = out.splitlines()
    for check in ("product-commutativity", "coproduct-multiplicativity"):
        assert f"FAIL {check}: 0 sampled pairs: 0 cases agree != " \
            "at least one case" in lines, out
    rc, out, _ = run(
        capsys, ["verify", "--suite", "hopf", "--max-weight", "2"])
    assert rc == 0
    assert "ok product-commutativity: 100 sampled pairs" in out
    assert "ok coproduct-multiplicativity: 200 sampled pairs" in out


# ---------------------------------------------------------------------------
# table

def test_table_depth_one(capsys):
    schema = load_schema("table.schema.json")
    rc, out, _ = run(capsys, ["table", "--max-depth", "1",
                              "--min-s", "-2"])
    assert rc == 0
    rows = json.loads(out)
    jsonschema.validate(rows, schema)
    assert rows == [
        {"r": "auto-delta", "s": [0], "value": "-1/2"},
        {"r": "auto-delta", "s": [-1], "value": "-1/12"},
        {"r": "auto-delta", "s": [-2], "value": "0"},
    ]


def test_table_depth_two_includes_double_zero(capsys):
    rc, out, _ = run(capsys, ["table", "--max-depth", "2",
                              "--min-s", "0"])
    rows = json.loads(out)
    assert rows == [
        {"r": "auto-delta", "s": [0], "value": "-1/2"},
        {"r": "auto-delta", "s": [0, 0], "value": "3/8"},
    ]


def test_table_text_rows(capsys):
    rc, out, _ = run(capsys, ["table", "--max-depth", "1",
                              "--min-s", "-2", "--format", "text"])
    assert out.splitlines() == ["(0): -1/2", "(-1): -1/12", "(-2): 0"]


def test_table_empty_range(capsys):
    rc, out, _ = run(capsys, ["table", "--max-depth", "1",
                              "--min-s", "1"])
    assert rc == 0 and json.loads(out) == []
    rc, out, _ = run(capsys, ["table", "--max-depth", "0",
                              "--min-s", "0"])
    assert rc == 0 and json.loads(out) == []


def test_table_pole_rows_recorded(capsys, monkeypatch):
    schema = load_schema("table.schema.json")

    def poles(s):
        raise PoleAtZero("denominator vanishes at delta = 0")

    monkeypatch.setattr(cli, "renorm_mzv", poles)
    rc, out, _ = run(capsys, ["table", "--max-depth", "1",
                              "--min-s", "0"])
    assert rc == 0
    rows = json.loads(out)
    jsonschema.validate(rows, schema)
    assert rows == [
        {"error": "pole-at-zero", "r": "auto-delta", "s": [0]}]


def test_table_byte_determinism(capsys):
    argv = ["table", "--max-depth", "2", "--min-s", "-1"]
    _, first, _ = run(capsys, argv)
    _, second, _ = run(capsys, argv)
    assert first == second


# ---------------------------------------------------------------------------
# exit codes

def test_usage_errors(capsys):
    cases = (
        ["eval", "--s", "1"],
        ["eval", "--s", "x"],
        ["eval", "--s", ""],
        ["series", "--s", "0", "--r", "1", "--prec", "0"],
        ["series", "--s", "0", "--r", "1", "--prec", "99999999999999999999"],
        ["series", "--s", "0", "--r", "1,2"],
        ["directional", "--s", "0", "--r", "-1"],
        ["directional", "--s", "0", "--r", "bogus("],
        ["directional", "--s", "0", "--r", "1/0"],
        ["directional", "--s", "0", "--r", "1-d"],
        ["directional", "--s", "0", "--r", "d^99999999999999999999"],
        ["series", "--s", "0", "--r", "0"],
        ["series", "--s", "0,1", "--r", "1,1"],
        ["verify", "--suite", "nope"],
        ["bogus"],
    )
    for argv in cases:
        rc, _, err = run(capsys, argv)
        assert rc == cli.EXIT_USAGE, argv
        assert err.startswith("error: "), argv
        assert "Traceback" not in err and err.count("\n") == 1, argv
    # the word layer owns the count check, and its message is the one line
    rc, _, err = run(capsys, ["directional", "--s=0,0", "--r=1"])
    assert (rc, err) == (
        cli.EXIT_USAGE, "error: 2 exponents against 1 directions\n")


def test_every_suite_name_parses():
    # verify --suite takes its choices from the one table of suites
    for name in (*SUITES, "all"):
        args = cli.build_parser().parse_args(["verify", "--suite", name])
        assert args.suite == name


def test_approx_beyond_float_range(capsys, monkeypatch):
    # eval --s=-261 has such a value, but takes seconds to compute
    for sign in (1, -1):
        huge = sign * Fraction(10 ** 400)
        monkeypatch.setattr(cli, "renorm_mzv", lambda s: huge)
        monkeypatch.setattr(cli, "renorm_directional", lambda s, r: huge)
        for argv in (["eval", "--s", "-1"],
                     ["directional", "--s", "-1", "--r", "1"]):
            for fmt in ("text", "json"):
                full = argv + ["--approx", "--format", fmt]
                rc, out, err = run(capsys, full)
                assert rc == cli.EXIT_USAGE and out == "", full
                assert err == ("error: cannot approximate a value beyond "
                               "the float range\n"), full


_EXPONENTS = st.one_of(
    st.lists(st.integers(-2, 1), min_size=1, max_size=2).map(
        lambda xs: ",".join(map(str, xs))),
    st.sampled_from(["", "x", "0,,0", "-", "1.5", " -1", "--1", "0;0"]))
# three well-formed directions for each malformed one
_DIRECTION = st.sampled_from(
    3 * ["1", "2", "1/2", "d", "1+d", "d^2", "2d"]
    + ["1/0", "0", "-1", "d^", "(d)/(1+d)", "x", ""])


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(
        ["eval", "directional", "series", "verify", "table"]))
    argv = [command]
    if command in ("eval", "directional", "series"):
        exponents = draw(_EXPONENTS)
        argv += ["--s", exponents]
    if command in ("directional", "series"):
        count = exponents.count(",") + draw(st.sampled_from([1, 1, 1, 2]))
        argv += ["--r", ",".join(draw(st.lists(
            _DIRECTION, min_size=count, max_size=count)))]
    if command == "series":
        argv += ["--prec", draw(st.sampled_from(
            ["3", "2", "1", "0", "-1", "x"]))]
    if command == "verify":
        argv += ["--suite", draw(st.sampled_from(
            ["hopf", "rota-baxter", "birkhoff", "differential", "mzv",
             "all", "nope"]))]
        argv += ["--max-weight", str(draw(st.integers(-1, 2)))]
    if command == "table":
        argv += ["--max-depth", str(draw(st.integers(-1, 2))),
                 "--min-s", str(draw(st.integers(-2, 1)))]
    if command in ("eval", "directional") and draw(st.booleans()):
        argv.append("--approx")
    return argv + draw(st.sampled_from(
        [[], ["--format", "text"], ["--format", "json"],
         ["--format", "xml"]]))


@settings(max_examples=40, deadline=None)
@given(_argv())
def test_argv_fuzz_ends_with_an_exit_code(argv):
    """Valid and malformed command lines end with an exit code in 0-4 and at
    most one stderr line, never an exception.  Inputs stay small (exponents
    >= -2, depth <= 2, verify weight <= 2): nothing caps time or memory yet,
    and larger inputs run for minutes."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    assert rc in range(5), argv
    assert err.getvalue().count("\n") <= 1, argv


def test_closed_output_pipe():
    argv = ["table", "--max-depth", "2", "--min-s", "-2", "--format", "text"]
    # the child imports the same package this process tested
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.Popen(
        [sys.executable, "-m", "renzeta.cli", *argv], env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == cli.EXIT_USAGE
    assert err.startswith("error: ")
    assert "Traceback" not in err and err.count("\n") == 1


def test_import_loads_no_other_stdlib_module():
    """Past argparse, fractions and random, importing the CLI loads only
    the package and __future__: no dataclasses (with its inspect, ast and
    dis) and no json, which only a JSON branch imports."""
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    probe = (
        "import sys, argparse, fractions, random\n"
        "before = set(sys.modules)\n"
        "import renzeta.cli\n"
        "print(sorted(m for m in set(sys.modules) - before\n"
        "             if m.split('.')[0] != 'renzeta'))\n")
    child = subprocess.run(
        [sys.executable, "-S", "-c", probe], env=env,
        capture_output=True, text=True, timeout=60)
    assert child.returncode == 0, child.stderr
    assert child.stdout == "['__future__']\n"


def test_one_parser_serves_every_call(capsys, monkeypatch):
    """main parses with one parser per process; a sequence of calls with a
    usage error in the middle prints what fresh processes print."""
    monkeypatch.delenv(cli.PRECISION_ENV, raising=False)
    sequence = [
        ["eval", "--s=-1,0"],
        ["eval", "--s=x"],
        ["series", "--s=0,-1", "--r=1,d", "--prec", "3"],
        ["verify", "--suite", "hopf", "--max-weight", "2"],
        ["eval", "--s=-1,0"],
    ]
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop(cli.PRECISION_ENV, None)
    codes = []
    for argv in sequence:
        rc, out, err = run(capsys, argv)
        fresh = subprocess.run(
            [sys.executable, "-m", "renzeta.cli", *argv], env=env,
            capture_output=True, text=True, timeout=120)
        assert (rc, out, err) == (
            fresh.returncode, fresh.stdout, fresh.stderr), argv
        codes.append(rc)
    assert codes == [0, cli.EXIT_USAGE, 0, 0, 0]
    assert cli._parser() is cli._parser()


def test_pole_exit_code(capsys, monkeypatch):
    def poles(s):
        raise PoleAtZero("denominator vanishes at delta = 0")

    monkeypatch.setattr(cli, "renorm_mzv", poles)
    rc, _, err = run(capsys, ["eval", "--s", "0"])
    assert rc == cli.EXIT_POLE
    assert "delta" in err


def test_precision_exit_code(capsys, monkeypatch):
    def starved(*args, **kwargs):
        raise InsufficientPrecision("window exhausted")

    monkeypatch.setattr(mzv, "_expansion", starved)
    rc, _, err = run(capsys, ["series", "--s", "0", "--r", "1"])
    assert rc == cli.EXIT_PRECISION
    assert "window exhausted" in err


# ---------------------------------------------------------------------------
# recorded outputs

def test_recorded_outputs_byte_for_byte(capsys, monkeypatch):
    # every eval and verify item of the benchmark record, and the first
    # recorded direction draw of each series shape
    monkeypatch.delenv(cli.PRECISION_ENV, raising=False)
    outputs = json.loads(EXPECTED.read_text())["outputs"]
    items = []
    shapes = set()
    for key in outputs:
        argv = key.split()
        if argv[0] == "eval":
            items.append((key, argv))
        elif argv[0] == "verify":
            items.append((key, argv + ["--seed", "0"]))
        elif argv[0] == "series" and argv[1] not in shapes:
            shapes.add(argv[1])
            items.append((key, argv))
    assert sum(argv[0] == "eval" for _, argv in items) == 38
    assert len(items) > len(shapes) > 0
    for key, argv in items:
        rc, out, err = run(capsys, argv)
        assert rc == 0 and err == "", key
        assert out == outputs[key], key
