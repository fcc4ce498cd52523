import json
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from meadow.cli import main
from meadow.models import GaloisMeadow


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

    def test_nesting_past_the_bound_is_parse_error(self, capsys):
        code, out, err = run_cli(capsys, "parse", "(" * 2000 + "x" + ")" * 2000)
        assert (code, out) == (2, "")
        assert err.startswith("error: parentheses nested deeper than")

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

    def test_carrier_too_large_for_tables(self, capsys):
        code, out, err = run_cli(capsys, "check", "x*x = x", "--model", "gf:2^12")
        assert (code, out) == (2, "")
        assert err.startswith("error: gf:2^12 has 4096 elements")
        assert "--samples" in err
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
                                        ("gf:2^20", 1048576)])
def test_simplify_refuses_before_transforming(spec, size):
    # the transform would build a power of about 2 * size factors
    proc = subprocess.run(
        [sys.executable, "-m", "meadow", "simplify", "1/x", "--model", spec],
        capture_output=True, text=True, timeout=10,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == (
        f"error: {spec} has {size} elements, more than the 2048 that "
        "exhaustive checking tabulates: check by sampling instead "
        "(--strategy sampled --samples N)\n")


def test_oversized_sweep_is_domain_error(capsys, monkeypatch):
    # refused by assignment count before the op tables are built
    def no_tables(model):
        raise AssertionError("op tables built")
    monkeypatch.setattr(GaloisMeadow, "_build_tables", no_tables)
    code, out, err = run_cli(capsys, "check", "a+b+c+d+e+f+g = g+f+e+d+c+b+a",
                             "--model", "gf:2^8")
    assert (code, out) == (2, "")
    assert err == (
        f"error: gf:2^8 has 256 elements, so 7 variables give {256 ** 7} "
        f"assignments, more than the {1 << 30} that exhaustive checking "
        "sweeps: check by sampling instead (--strategy sampled --samples N)\n")


# README-session commands that never build an op table
NUMPY_FREE_COMMANDS = [
    ["eval", "1 + 1/2", "--model", "q0"],
    ["eval", "x*x + x", "--model", "gf:2^2", "--assign", "x=a"],
    ["check", "x*(1/x) = x/x", "--model", "q0"],
    ["check", "x*(1/x) = x/x", "--model", "q0", "--format", "json"],
    ["normalize", "(x + 1)*(x - 1)", "--canonical", "x"],
    ["simplify", "1/x + 1/y", "--target", "sum-of-fractions"],
    ["falsify", "x + 1", "x"],
    ["char", "--model", "gf:3^2"],
    ["demo", "separation"],
    ["demo", "falsify-q0"],
]


def test_numpy_loads_only_for_op_tables():
    # a fresh process: this one has imported numpy already
    script = f"""
import contextlib, io, sys
import meadow, meadow.cli
assert "numpy" not in sys.modules, "import"
for argv in {NUMPY_FREE_COMMANDS!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        assert meadow.cli.main(argv) == 0, argv
    assert "numpy" not in sys.modules, argv
err = io.StringIO()
with contextlib.redirect_stderr(err):
    code = meadow.cli.main(["check", "x*x = x", "--model", "gf:2^16"])
assert code == 2 and err.getvalue().startswith(
    "error: gf:2^16 has 65536 elements, more than the 2048"), err.getvalue()
assert "numpy" not in sys.modules, "gf:2^16"
# an over-bound sweep is refused before any table build
meadow.models.GaloisMeadow._build_tables = None
err = io.StringIO()
with contextlib.redirect_stderr(err):
    code = meadow.cli.main(["check", "a+b+c = c+b+a", "--model", "gf:2^11"])
assert code == 2 and err.getvalue().startswith(
    "error: gf:2^11 has 2048 elements, so 3 variables give 8589934592 "
    "assignments"), err.getvalue()
assert "numpy" not in sys.modules, "gf:2^11"
x = meadow.Var("x")
assert meadow.check_eq(meadow.mk(6), x, x).verdict == "valid"
assert "numpy" in sys.modules, "check_eq"
"""
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


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
