import ast
import json
import re
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from meadow import BasicTerm, Sampled, cli, eval_term, mk, q0
from meadow.cli import main
from meadow.models import GaloisMeadow, ModularMeadow


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_rational_pinned(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--model", "q0", "1 + 1/2")
        assert code == 0
        assert out == "3/2\n"

    def test_division_by_zero(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--model", "q0", "1/0")
        assert (code, out) == (0, "0\n")

    def test_assignment(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--model", "mk:6",
                               "x*y + 1", "--assign", "x=2", "--assign", "y=3")
        assert (code, out) == (0, "1\n")

    def test_galois_assignment(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--model", "gf:2^2",
                               "x*x", "--assign", "x=a")
        assert (code, out) == (0, "a + 1\n")

    def test_unbound_variable_is_domain_error(self, capsys):
        code, _, err = run_cli(capsys, "eval", "--model", "q0", "x + 1")
        assert code == 2
        assert "x" in err

    def test_bad_assignment_syntax(self, capsys):
        code, _, err = run_cli(capsys, "eval", "--model", "q0", "x",
                               "--assign", "x:1")
        assert code == 2
        assert "NAME=VALUE" in err

    @pytest.mark.parametrize("spec, value", [
        ("gf:2^2", "b"), ("q0", "1/0"), ("mk:6", "z"), ("q0", "z"),
        ("gf:2^2", "a +"), ("gf:2^2", "inv(a)")])
    def test_assigned_value_outside_the_model(self, capsys, spec, value):
        code, out, err = run_cli(capsys, "eval", "--model", spec, "x + 1",
                                 "--assign", f"x={value}")
        assert (code, out) == (2, "")
        assert err == f"error: {value!r} is not an element of {spec}\n"


    def test_term_starting_with_minus_follows_double_dash(self, capsys):
        # without "--", argparse reads "-x/2" as an option
        with pytest.raises(SystemExit) as exit_:
            main(["eval", "-x/2", "--assign", "x=1"])
        assert exit_.value.code == 2
        code, out, _ = run_cli(capsys, "eval", "--assign", "x=1", "--",
                               "-x/2")
        assert (code, out) == (0, "-1/2\n")

    @pytest.mark.parametrize("value", ["1e999999", "1E-0100001"])
    def test_huge_exponent_in_a_rational_is_refused(self, value):
        # Fraction would build 10^999999 and then print it whole
        proc = subprocess.run([sys.executable, "-m", "meadow", "eval", "x",
                               "--assign", f"x={value}"],
                              capture_output=True, text=True, timeout=20)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == (f"error: the exponent of {value!r} is too"
                               " large (limit 100000)\n")


class TestParse:
    def test_round_trip_output(self, capsys):
        code, out, _ = run_cli(capsys, "parse", "(x + y)*x")
        assert (code, out) == (0, "(x + y)*x\n")

    def test_inversive_signature_flag(self, capsys):
        code, out, _ = run_cli(capsys, "parse", "inv(x)", "--signature",
                               "inversive")
        assert (code, out) == (0, "inv(x)\n")

    def test_parse_error_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "parse", "x +")
        assert code == 2
        assert "error:" in err

    def test_oversized_literal_is_parse_error(self, capsys):
        code, _, err = run_cli(capsys, "parse", "1" * 5000)
        assert code == 2
        assert "too large to expand" in err
        assert err.endswith("at line 1, column 1\n")

    @pytest.mark.parametrize("argv, out", [
        # 100 001 characters, under Linux's 128 KiB limit on one argument
        (["parse", "(" * 50_000 + "x" + ")" * 50_000], "x\n"),
        (["eval", "1/(" * 20_000 + "x" + ")" * 20_000, "--assign", "x=3"],
         "3\n"),
    ], ids=["parse", "eval"])
    def test_deep_nesting_in_a_subprocess(self, argv, out):
        proc = subprocess.run([sys.executable, "-m", "meadow", *argv],
                              capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, out, "")

    @pytest.mark.parametrize("argv, stdin, out", [
        # 200 001 characters, more than Linux takes in one argument
        (["parse", "-"], "(" * 100_000 + "x" + ")" * 100_000 + "\n", "x\n"),
        (["check", "-", "--model", "mk:6"], "x/y = x*(1/y)\n",
         "Valid\nchecked 36 assignments exhaustively\n"),
    ], ids=["parse", "check"])
    def test_argument_read_from_stdin(self, argv, stdin, out):
        proc = subprocess.run([sys.executable, "-m", "meadow", *argv],
                              input=stdin, capture_output=True, text=True,
                              timeout=60)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, out, "")

    def test_json_of_deep_tree(self, capsys):
        # x^2000 is ((1*x)*x)*...*x; the tree nests 2000 levels deep.
        var = '{"name":"x","node":"var"}'
        tree = '{"node":"one"}'
        for _ in range(2000):
            tree = '{"left":' + tree + ',"node":"mul","right":' + var + '}'
        code, out, err = run_cli(capsys, "parse", "x^2000", "--format", "json")
        assert (code, err) == (0, "")
        assert out == ('{"command":"parse","input":"x^2000","term":"1'
                       + "*x" * 2000 + '","tree":' + tree + '}\n')

    def test_text_output_builds_no_tree(self, capsys, monkeypatch):
        # the tree of "100000" would be dicts nested 100 001 levels deep
        def no_tree(t):
            raise AssertionError("tree built")
        monkeypatch.setattr("meadow.cli.term_to_data", no_tree)
        assert run_cli(capsys, "parse", "100000") == (0, "100000\n", "")

    def test_json_includes_tree(self, capsys):
        code, out, _ = run_cli(capsys, "parse", "x", "--format", "json")
        payload = json.loads(out)
        assert payload["tree"] == {"node": "var", "name": "x"}


class TestCheck:
    def test_valid_exhaustive(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--model", "mk:6",
                               "(x/y)*(z/w) = (x*z)/(y*w)",
                               "--strategy", "exhaustive")
        assert code == 0
        assert out.splitlines()[0] == "Valid"
        assert "1296" in out

    def test_refuted_exit_code_and_counterexample(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--model", "gf:2^2",
                               "x*x = x")
        assert code == 1
        lines = out.splitlines()
        assert lines[0] == "Refuted"
        assert "counterexample: x = a" in lines[1]

    def test_sampled_on_rationals(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--model", "q0",
                               "x/y = x*(1/y)", "--samples", "500")
        assert code == 0
        assert out.splitlines()[0] == "SampledOk"
        assert "500 samples, seed 0" in out

    def test_missing_equals_sign(self, capsys):
        code, _, err = run_cli(capsys, "check", "--model", "q0", "x + y")
        assert code == 2
        assert "'='" in err

    @pytest.mark.parametrize("equation", ["x = y = z", "x == y", "x = ="])
    def test_second_equals_sign_is_usage_error(self, capsys, equation):
        code, out, err = run_cli(capsys, "check", equation)
        assert (code, out) == (2, "")
        assert err == "error: equation must contain exactly one '='\n"

    def test_exhaustive_on_rationals_is_domain_error(self, capsys):
        code, _, err = run_cli(capsys, "check", "--model", "q0", "x = x",
                               "--strategy", "exhaustive")
        assert code == 2

    @pytest.mark.parametrize("count", ["0", "-5"])
    def test_sample_count_below_one_is_domain_error(self, capsys, count):
        code, out, err = run_cli(capsys, "check", "x = x+1", "--samples", count)
        assert (code, out) == (2, "")
        assert err.startswith("error: ")

    def test_large_field_checks_by_sampling_too(self, capsys):
        # exhaustively, see test_large_models_are_checked_exhaustively
        code, out, _ = run_cli(capsys, "check", "x*x = x", "--model", "gf:2^12",
                               "--strategy", "sampled", "--samples", "20")
        assert code == 1 and out.startswith("Refuted\n")

    def test_deep_power(self, capsys):
        code, out, _ = run_cli(capsys, "check", "x^2000 = x^2", "--model", "mk:7")
        assert (code, out) == (0, "Valid\nchecked 7 assignments exhaustively\n")

    def test_json_verdict(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--model", "mk:2",
                               "1/(x*y) = (1/x)*(1/y)", "--format", "json")
        payload = json.loads(out)
        assert code == 0
        assert payload["verdict"] == "valid"
        assert payload["evaluations"] == 4
        assert payload["counterexample"] is None


class TestNormalize:
    def test_basic_default(self, capsys):
        code, out, _ = run_cli(capsys, "normalize", "1/(1 + 1/2)")
        assert code == 0
        assert out.splitlines()[0] == "+1/1 -2/2 +4/6"

    def test_basic_zero(self, capsys):
        code, out, _ = run_cli(capsys, "normalize", "1/0")
        assert out.splitlines() == ["0", "0"]

    def test_canonical(self, capsys):
        code, out, _ = run_cli(capsys, "normalize", "(x + 1)*(x - 1)",
                               "--canonical", "x")
        assert (code, out) == (0, "x*x - 1\n")

    def test_canonical_json_coefficients(self, capsys):
        _, out, _ = run_cli(capsys, "normalize", "(x + 1)*(x - 1)",
                            "--canonical", "x", "--format", "json")
        payload = json.loads(out)
        assert payload["coefficients"] == [-1, 0, 1]

    def test_open_term_is_domain_error(self, capsys):
        code, _, err = run_cli(capsys, "normalize", "x + 1")
        assert code == 2


class TestSimplify:
    def test_q0_closed(self, capsys):
        code, out, _ = run_cli(capsys, "simplify", "--model", "q0",
                               "1 + 1/2")
        assert (code, out) == (0, "3/2\n")

    def test_q0_negative(self, capsys):
        code, out, _ = run_cli(capsys, "simplify", "--model", "q0", "0 - 4/6")
        assert (code, out) == (0, "-2/3\n")

    def test_finite_model(self, capsys):
        code, out, _ = run_cli(capsys, "simplify", "--model", "mk:2", "1/x")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "x/1"
        assert lines[1] == "Valid"

    def test_reciprocal_exponent_499(self, capsys):
        # 1/x becomes x^499 over mk:251, and 1/(1/x) a power of that power
        code, out, _ = run_cli(capsys, "simplify", "1/(1/x)", "--model", "mk:251")
        assert code == 0
        assert out.splitlines()[1:] == [
            "Valid", "checked 251 assignments exhaustively"]

    def test_sum_of_fractions_target(self, capsys):
        code, out, _ = run_cli(capsys, "simplify", "--target",
                               "sum-of-fractions", "1/(1/x)")
        assert code == 0
        assert out.splitlines()[0] == "x*x/x"

    def test_sum_of_fractions_json(self, capsys):
        _, out, _ = run_cli(capsys, "simplify", "--target",
                            "sum-of-fractions", "1/(1/x + 1/y)",
                            "--format", "json")
        payload = json.loads(out)
        assert len(payload["summands"]) == 4


class TestFalsify:
    def test_constant_candidate(self, capsys):
        code, out, _ = run_cli(capsys, "falsify", "1", "1")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "witness: 1/3"
        assert lines[1] == "1 + 1/x at witness: 4"
        assert lines[2] == "f/g at witness: 1"

    def test_zero_witness_candidate(self, capsys):
        code, out, _ = run_cli(capsys, "falsify", "x + 1", "x")
        assert out.splitlines()[0] == "witness: 0"

    def test_non_polynomial_input(self, capsys):
        code, _, err = run_cli(capsys, "falsify", "1/x", "1")
        assert code == 2


class TestChar:
    @pytest.mark.parametrize("model,expect", [
        ("q0", "0"), ("mk:6", "6"), ("gf:3^2", "3"),
    ])
    def test_values(self, capsys, model, expect):
        code, out, _ = run_cli(capsys, "char", "--model", model)
        assert (code, out) == (0, f"{expect}\n")


class TestDemo:
    @pytest.mark.parametrize("name", [
        "omega", "separation", "finite-simple", "sum-of-fractions",
        "falsify-q0",
    ])
    def test_runs_clean(self, capsys, name):
        code, out, _ = run_cli(capsys, "demo", name)
        assert code == 0
        assert out

    def test_separation_content(self, capsys):
        _, out, _ = run_cli(capsys, "demo", "separation")
        assert "q0 value: 3/2" in out
        assert "mk:2 value: 1" in out

    def test_finite_simple_content(self, capsys):
        _, out, _ = run_cli(capsys, "demo", "finite-simple")
        assert "(n, m) = (3, 1)" in out
        assert "1/x = x^3: Valid" in out

    def test_omega_content(self, capsys):
        _, out, _ = run_cli(capsys, "demo", "omega")
        assert "counterexample x = a" in out


class TestJsonStability:
    CASES = [
        ("check", "--model", "mk:6", "x/y = x*(1/y)", "--format", "json"),
        ("check", "--model", "q0", "x/y = x*(1/y)", "--samples", "200",
         "--format", "json"),
        ("normalize", "1/(1 + 1/2)", "--format", "json"),
        ("simplify", "--model", "q0", "1 + 1/2", "--format", "json"),
        ("demo", "sum-of-fractions", "--format", "json"),
    ]

    @pytest.mark.parametrize("argv", CASES, ids=lambda a: a[0])
    def test_byte_identical_reruns(self, capsys, argv):
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second
        json.loads(first)


def test_readme_console_session(capsys):
    """Every `$ meadow ...` line in README.md's console blocks prints the
    lines under it, and exits 1 exactly when it prints Refuted."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    session = []
    for block in readme.split("```console\n")[1:]:
        for command in block.split("```")[0].split("$ ")[1:]:
            line, _, expected = command.partition("\n")
            session.append((shlex.split(line), expected))
    assert len(session) == readme.count("\n$ meadow ")
    for argv, expected in session:
        assert argv[0] == "meadow"
        code, out, _ = run_cli(capsys, *argv[1:])
        assert out == expected, argv
        assert code == (1 if "Refuted" in expected.splitlines() else 0), argv


def test_readme_library_tour():
    """README.md's library tour runs, and each result in its comments holds:
    `expression  # result` lines, and the summands of the closing line with
    their values in q0 and mk:2."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    tour = readme.split("```python\n")[1].split("```")[0]
    namespace = {}
    exec(tour, namespace)
    results = []
    for line in tour.splitlines():
        code, _, comment = line.partition("  # ")
        if comment:
            want = re.match(r"[^:;]+", comment)[0]
            assert eval(code, namespace) == eval(want, namespace), line
            results.append(want)
    assert results == ["Fraction(4, 3)", "Fraction(1, 1)", "'valid'",
                       "'(1 + 1*x*x*x)/1'", "2"]

    last, comment = tour.splitlines()[-2:]
    shown, in_q0, in_mk2 = re.fullmatch(
        r"# \((.*)\): evaluates to (\S+) in q0 and to (\S+) in mk:2",
        comment).groups()
    summands = eval(last, namespace)
    assert [f"{'+' if s.sign > 0 else '-'}{s.num}/{s.den}"
            for s in summands] == shown.split(", ") == ["+1/1", "-2/2", "+4/6"]
    basic = BasicTerm(summands).to_term()
    assert (in_q0, in_mk2) == ("2/3", "1")
    assert eval_term(q0(), basic) == Fraction(in_q0)
    assert eval_term(mk(2), basic) == int(in_mk2)


def test_console_script_wiring():
    proc = subprocess.run(
        [sys.executable, "-m", "meadow", "eval", "--model", "q0", "1 + 1/2"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "3/2\n"


def test_usage_error_exit_code():
    proc = subprocess.run(
        [sys.executable, "-m", "meadow", "frobnicate"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2


def test_normalize_large_power_answers():
    # the basic form's text is spelled without numeral chains, which
    # would take one node per unit of 2^1000
    proc = subprocess.run(
        [sys.executable, "-m", "meadow", "normalize", "2^1000"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout == f"+{2 ** 1000}/1\n{2 ** 1000}/(0 + 1)\n"


def test_simplify_large_power_answers():
    # the closed fraction's term text is spelled without numeral chains
    proc = subprocess.run(
        [sys.executable, "-m", "meadow", "simplify", "2^1000",
         "--format", "json"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["term"] == f"{2 ** 1000}/(0 + 1)"


@pytest.mark.parametrize("spec", ["mk:99999999977", "gf:99999999977^1"])
def test_huge_finite_model_is_domain_error(spec):
    # refused by carrier size before the carrier or the modulus is built
    proc = subprocess.run(
        [sys.executable, "-m", "meadow", "eval", "2", "--model", spec],
        capture_output=True, text=True, timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith(f"error: {spec} has ")
    assert proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("spec, size", [("mk:1048573", 1048573),
                                        ("gf:2^20", 1048576),
                                        ("gf:2^16", 65536)])
def test_simplify_refuses_before_transforming(spec, size):
    # the transform would build a power of 2 * size - 3 factors, more than
    # the parser ever expands
    proc = subprocess.run(
        [sys.executable, "-m", "meadow", "simplify", "1/x", "--model", spec],
        capture_output=True, text=True, timeout=10,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == (
        f"error: {spec} rewrites 1/x as x^{2 * size - 3}, a power above "
        "the x^100000 that the parser expands\n")


@pytest.mark.parametrize("equation, spec, code, out", [
    ("x*x = x", "gf:2^12", 1, "Refuted\ncounterexample: x = a\n"),
    ("x*x = x", "gf:2^16", 1, "Refuted\ncounterexample: x = a\n"),
    ("x^61 = x", "mk:2310", 0,
     "Valid\nchecked 2310 assignments exhaustively\n"),
    ("x*x*x = x", "mk:2310", 1, "Refuted\ncounterexample: x = 2\n"),
], ids=["gf:2^12", "gf:2^16", "mk:2310-valid", "mk:2310-refuted"])
def test_large_models_are_checked_exhaustively(equation, spec, code, out):
    # the sweep ops take O(q) memory, so only MAX_CARRIER bounds a model;
    # mk:2310 sweeps the 11 residues below its largest prime
    proc = subprocess.run(
        [sys.executable, "-m", "meadow", "check", equation, "--model", spec],
        capture_output=True, text=True, timeout=20,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, "")


def test_sample_count_above_the_bound_is_refused_at_once():
    # 10^9 draws would take hours; the refusal comes before the first
    proc = subprocess.run(
        [sys.executable, "-m", "meadow", "check", "x = x",
         "--samples", "1000000000"],
        capture_output=True, text=True, timeout=10,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        2, "", "error: 1000000000 samples are more than the 1048576 that "
        "a sampled check draws\n")


@pytest.mark.parametrize("argv, code, out", [
    (["eval", "((2^1000)^1000)^1000", "--model", "mk:7"], 0, "2\n"),
    (["check", "((x^1000)^1000)^1000 = x", "--model", "mk:7"], 1,
     "Refuted\ncounterexample: x = 3\n"),
], ids=["eval", "check"])
def test_text_output_prints_no_input_term(argv, code, out):
    # the input's tree has 10^9 nodes, so its text would never finish;
    # only --format json prints it, and refuses it (below)
    proc = subprocess.run([sys.executable, "-m", "meadow", *argv],
                          capture_output=True, text=True, timeout=10)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, "")


@pytest.mark.parametrize("argv", [
    ["check", "((x^1000)^1000)^1000 = x", "--model", "mk:7",
     "--format", "json"],
    ["parse", "((x^1000)^1000)^1000"],
], ids=["check-json", "parse"])
def test_text_past_the_printed_size_bound_is_refused(argv):
    # the printer knows the text's length before it builds any of it
    proc = subprocess.run([sys.executable, "-m", "meadow", *argv],
                          capture_output=True, text=True, timeout=10)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        2, "", "error: the term's text has 2004004001 characters, more "
        f"than the {1 << 24} that printing spells out\n")


def test_json_tree_past_the_printed_size_bound_is_refused():
    # the text is 2 004 001 characters, the JSON tree 56 045 014; the
    # encoder knows the tree's length before _dumps expands its sharing
    proc = subprocess.run([sys.executable, "-m", "meadow", "parse",
                           "(x^1000)^1000", "--format", "json"],
                          capture_output=True, text=True, timeout=10)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        2, "", "error: the term's JSON tree has 56045014 characters, more "
        f"than the {1 << 24} that encoding spells out\n")


@pytest.mark.parametrize("payload", [
    {"b": True, "a": 1, "c": 1.0, "d": None, "e": [True, 1, 1.0, None]},
    [1, True, 1.0, -0.0, 0.0, "1", {"1": [1, [True, [None, []]]]}, {}],
    {"z": {"y": [{"x": 1}, {"x": True}, {"x": 1.0}]}, "node": "mul"},
])
def test_dumps_writes_what_json_writes(payload):
    assert cli._dumps(payload) == json.dumps(payload, sort_keys=True,
                                             separators=(",", ":"))


def test_dumps_encodes_deep_lists():
    deep = []
    for _ in range(100_000):
        deep = [deep, 1]
    assert cli._dumps(deep) == "[" * 100_000 + "[]" + ",1]" * 100_000


@pytest.mark.parametrize("equation, code", [
    ("x^61 = x", 0), ("x^2 = x", 1)], ids=["valid", "refuted"])
def test_closed_stdout_changes_no_exit_code(equation, code):
    # the reader goes away before the command writes its verdict
    proc = subprocess.Popen([sys.executable, "-m", "meadow", "check",
                             equation, "--model", "mk:2310"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    try:
        _, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
    assert (proc.returncode, err) == (code, b"")


@pytest.mark.xfail(strict=True, raises=subprocess.TimeoutExpired,
                   reason="numerals are unary chains, so 2^40 builds 2^40 "
                          "nodes; ROADMAP direction 2 (an integer leaf)")
@pytest.mark.parametrize("argv", [
    ["normalize", "2^40*x", "--canonical", "x"],
    ["normalize", "(x+1)^40", "--canonical", "x"],
    ["simplify", "2^40/x", "--target", "sum-of-fractions"],
    ["falsify", "x + 2^40", "x"],
])
def test_large_coefficients_answer(argv):
    proc = subprocess.run([sys.executable, "-m", "meadow", *argv],
                          capture_output=True, text=True, timeout=2)
    assert proc.returncode in (0, 1, 2)
    assert "Traceback" not in proc.stderr


def test_cli_imports_no_private_name():
    # the CLI restates no rule of the library, so it needs none of its
    # private names
    private = [(node.module, alias.name)
               for node in ast.walk(ast.parse(Path(cli.__file__).read_text()))
               if isinstance(node, ast.ImportFrom)
               and (node.level or (node.module or "").startswith("meadow"))
               for alias in node.names if alias.name.startswith("_")]
    assert private == []


@property
def _no_sweep_ops(model):
    raise AssertionError("sweep ops built")


def test_oversized_sweep_is_domain_error(capsys, monkeypatch):
    # refused by assignment count before the sweep ops are built
    monkeypatch.setattr(GaloisMeadow, "_sweep_ops", _no_sweep_ops)
    code, out, err = run_cli(capsys, "check", "a+b+c+d+e+f+g = g+f+e+d+c+b+a",
                             "--model", "gf:2^8")
    assert (code, out) == (2, "")
    assert err == (
        f"error: gf:2^8 has 256 elements, so 7 variables give {256 ** 7} "
        f"assignments, more than the {1 << 30} that exhaustive checking "
        "sweeps: check by sampling instead (--strategy sampled --samples N)\n")


def test_sweep_bound_counts_the_residues_swept(capsys, monkeypatch):
    # mk:30 sweeps its residues below 5: 5 ** 7 assignments decide 30 ** 7
    code, out, err = run_cli(capsys, "check", "a+b+c+d+e+f+g = g+f+e+d+c+b+a",
                             "--model", "mk:30")
    assert (code, out, err) == (
        0, f"Valid\nchecked {30 ** 7} assignments exhaustively\n", "")
    # mk:2038 = 2 * 1019 sweeps 1019 ** 4, too many, before any sweep ops
    monkeypatch.setattr(ModularMeadow, "_sweep_ops", _no_sweep_ops)
    code, out, err = run_cli(capsys, "check", "a+b+c+d = d+c+b+a",
                             "--model", "mk:2038")
    assert (code, out) == (2, "")
    assert err == (
        f"error: mk:2038 is decided by its residues below 1019, so 4 "
        f"variables give {1019 ** 4} assignments, more than the {1 << 30} "
        "that exhaustive checking sweeps: check by sampling instead "
        "(--strategy sampled --samples N)\n")


# The README session's commands: none sweeps more than SMALL_SWEEP
# assignments, so none builds sweep ops or imports numpy
NUMPY_FREE_COMMANDS = [
    ["eval", "1 + 1/2", "--model", "q0"],
    ["eval", "x*x + x", "--model", "gf:2^2", "--assign", "x=a"],
    ["check", "x/y = x*(1/y)", "--model", "mk:6"],
    ["check", "1/(x + y) = 1/x + 1/y", "--model", "mk:5"],
    ["check", "x*(1/x) = x/x", "--model", "q0"],
    ["normalize", "(x + 1)*(x - 1)", "--canonical", "x"],
    ["simplify", "1 + 1/x", "--model", "mk:6"],
    ["simplify", "1/x + 1/y", "--target", "sum-of-fractions"],
    ["falsify", "x + 1", "x"],
    ["char", "--model", "gf:3^2"],
    ["check", "x*(1/x) = x/x", "--model", "q0", "--format", "json"],
    ["demo", "omega"],
    ["demo", "separation"],
    ["demo", "finite-simple"],
    ["demo", "sum-of-fractions"],
    ["demo", "falsify-q0"],
]


def test_numpy_loads_only_for_op_tables(capsys):
    # a fresh process: this one has imported numpy already
    script = f"""
import contextlib, io, json, sys
import meadow, meadow.cli
assert "numpy" not in sys.modules, "import"
runs = []
for argv in {NUMPY_FREE_COMMANDS!r}:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        runs.append([meadow.cli.main(argv), out.getvalue(), err.getvalue()])
    assert "numpy" not in sys.modules, argv
# mk:2310 sweeps the 11 residues below its largest prime, pointwise
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = meadow.cli.main(["check", "x^61 = x", "--model", "mk:2310"])
assert code == 0 and out.getvalue() == (
    "Valid\\nchecked 2310 assignments exhaustively\\n"), out.getvalue()
assert "numpy" not in sys.modules, "mk:2310"
# an over-bound sweep is refused before any sweep ops are built
meadow.models.GaloisMeadow._sweep_ops = None
err = io.StringIO()
with contextlib.redirect_stderr(err):
    code = meadow.cli.main(["check", "a+b+c = c+b+a", "--model", "gf:2^11"])
assert code == 2 and err.getvalue().startswith(
    "error: gf:2^11 has 2048 elements, so 3 variables give 8589934592 "
    "assignments"), err.getvalue()
assert "numpy" not in sys.modules, "gf:2^11"
x, y, z = meadow.Var("x"), meadow.Var("y"), meadow.Var("z")
# 900 assignments over mk:30, decided by the 25 below its largest prime
assert meadow.check_eq(meadow.mk(30), x * y, y * x) == \
    meadow.CheckReport("valid", None, 900)
assert "numpy" not in sys.modules, "mk:30"
assert meadow.check_eq(meadow.mk(30), x + y + z, z + y + x) == \
    meadow.CheckReport("valid", None, 30 ** 3)
assert "numpy" in sys.modules, "check_eq"
print(json.dumps(runs))
"""
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    # the pointwise sweeps there print what the numpy sweeps here print
    runs = json.loads(proc.stdout)
    for argv, run in zip(NUMPY_FREE_COMMANDS, runs):
        assert list(run_cli(capsys, *argv)) == run, argv
    assert [code for code, _, _ in runs] == [0, 0, 0, 1] + [0] * 12


def test_import_loads_no_dataclasses_inspect_or_json():
    # a fresh process: this one has imported all three already
    script = """
import sys
import meadow.cli
print(sorted({"dataclasses", "inspect", "json"} & set(sys.modules)))
"""
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def _decimal(n: int) -> str:
    """str(n), also past CPython's int/str digit limit."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is None:
        return str(n)
    sys.set_int_max_str_digits(0)
    try:
        return str(n)
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("command, template", [
    ("eval", "{}\n"), ("normalize", "+{0}/1\n{0}/(0 + 1)\n")])
def test_values_past_the_digit_limit_print(capsys, command, template):
    code, out, err = run_cli(capsys, command, "2^20000")
    assert (code, err) == (0, "")
    assert out == template.format(_decimal(2 ** 20000))


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="no int/str digit limit before Python 3.11")
def test_main_keeps_the_callers_digit_limit(capsys):
    before = sys.get_int_max_str_digits()
    for argv in (["eval", "2^20000"], ["parse", "x +"]):
        run_cli(capsys, *argv)
        assert sys.get_int_max_str_digits() == before


@pytest.mark.parametrize("error", [KeyError, RecursionError,
                                   ZeroDivisionError])
def test_internal_error_exits_70(capsys, monkeypatch, error):
    # exit 1 means Refuted; a defect says so and exits EX_SOFTWARE
    def broken(*args):
        raise error("injected")
    monkeypatch.setattr("meadow.cli.check_eq", broken)
    code, out, err = run_cli(capsys, "check", "x = x")
    assert (code, out) == (70, "")
    assert err.startswith("internal error:") and "Traceback" in err
    assert f"{error.__name__}: " in err


def test_sampling_defaults_are_the_libraries():
    args = cli._build_parser().parse_args(["check", "x = x"])
    assert (args.samples, args.seed) == (Sampled().count, Sampled().seed)
