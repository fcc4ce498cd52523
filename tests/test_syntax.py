import random

import pytest

from meadow import (
    Add, Div, Inv, Mul, Neg, ONE, ParseError, SignatureError, Var, ZERO,
    eval_term, mk_numeral, parse, power, print_term, q0, term_from_data,
    term_to_data,
)

from gen import random_term


x = Var("x")
y = Var("y")


class TestParse:
    def test_constants_and_literals(self):
        assert parse("0") == ZERO
        assert parse("1") == ONE
        assert parse("3") == mk_numeral(3)
        assert parse("x") == x

    def test_precedence(self):
        assert parse("x + y*x") == Add(x, Mul(y, x))
        assert parse("(x + y)*x") == Mul(Add(x, y), x)
        assert parse("x/y*x") == Mul(Div(x, y), x)
        assert parse("-x*y") == Mul(Neg(x), y)
        assert parse("-(x*y)") == Neg(Mul(x, y))

    def test_left_associativity(self):
        assert parse("x + y + x") == Add(Add(x, y), x)
        assert parse("x/y/x") == Div(Div(x, y), x)

    def test_subtraction_is_sugar(self):
        assert parse("x - y") == Add(x, Neg(y))
        assert parse("x - y - x") == Add(Add(x, Neg(y)), Neg(x))

    def test_exponent_is_sugar(self):
        assert parse("x^3") == power(x, 3)
        assert parse("x^0") == ONE
        assert parse("(x + 1)^2") == power(Add(x, ONE), 2)

    def test_inversive_mode(self):
        assert parse("inv(x)", "inversive") == Inv(x)
        assert parse("inv(inv(x + 1))", "inversive") == Inv(Inv(Add(x, ONE)))
        # "inv" is an ordinary identifier in divisive mode only when
        # not applied; applying it is the signature error case
        with pytest.raises(SignatureError):
            parse("inv(x)")
        with pytest.raises(SignatureError):
            parse("x/y", "inversive")

    def test_unknown_signature(self):
        with pytest.raises(ValueError):
            parse("x", "both")

    def test_parse_errors_carry_position(self):
        with pytest.raises(ParseError) as err:
            parse("x + ")
        assert err.value.line == 1
        assert err.value.column == 5
        with pytest.raises(ParseError) as err:
            parse("x @ y")
        assert err.value.found == "@"

    def test_non_decimal_digits_are_parse_errors(self):
        # "²" is a digit to str.isdigit, but int() cannot read it
        for text, column in (("²", 1), ("x^²", 3)):
            with pytest.raises(ParseError) as err:
                parse(text)
            assert (err.value.line, err.value.column) == (1, column)
            assert err.value.found == "²"
        assert parse("٣") == parse("3")
        assert parse("x²") == Var("x²")

    def test_missing_exponent_is_named(self):
        for text, found in (("x^-1", "-"), ("2^", "end of input"),
                            ("x^(2)", "(")):
            with pytest.raises(ParseError) as err:
                parse(text)
            assert err.value.expected == "an integer exponent"
            assert str(err.value) == ("expected an integer exponent, found "
                                      f"{found!r} at line 1, column 3")
        # the other expected tokens keep their names
        with pytest.raises(ParseError, match="expected '\\)', found"):
            parse("(x")
        with pytest.raises(ParseError, match="expected '\\(', found"):
            parse("inv x", "inversive")

    def test_unbalanced_parens(self):
        with pytest.raises(ParseError):
            parse("(x + y")
        with pytest.raises(ParseError):
            parse("x + y)")

    def test_literal_cap(self):
        with pytest.raises(ParseError):
            parse("100001")
        # deep chains are compared through the iterative accessor;
        # structural == would recurse once per node
        from meadow import numeral_value
        assert numeral_value(parse("100000")) == 100_000

    def test_oversized_literal_is_parse_error(self):
        # refused by its digit count, before CPython's int() digit limit
        with pytest.raises(ParseError) as err:
            parse("x + " + "1" * 5000)
        assert (err.value.line, err.value.column) == (1, 5)
        assert "too large to expand" in str(err.value)
        assert parse("0" * 5000 + "7") == parse("7")

    def test_oversized_literal_message_gives_digit_count(self):
        with pytest.raises(ParseError) as err:
            parse("1" * 5000)
        assert str(err.value) == (
            "integer literal of 5000 digits is too large to expand"
            " (limit 100000) at line 1, column 1")

    def test_nesting_bound(self):
        from meadow.syntax import _MAX_NESTING as n
        assert parse("(" * n + "x" + ")" * n) == x
        text = "inv(" * n + "x" + ")" * n
        assert print_term(parse(text, "inversive")) == text
        with pytest.raises(ParseError) as err:
            parse("(" * 2000 + "x" + ")" * 2000)
        assert (err.value.line, err.value.column) == (1, n + 1)

    def test_long_run_of_unary_minus(self):
        t = parse("-" * 100_000 + "x")
        assert eval_term(q0(), t, {"x": 3}) == 3
        assert eval_term(q0(), parse("-" * 99_999 + "x"), {"x": 3}) == -3

    def test_whitespace_and_lines(self):
        assert parse(" x +\n y ") == Add(x, y)
        with pytest.raises(ParseError) as err:
            parse("x +\n@")
        assert err.value.line == 2


class TestPrint:
    @pytest.mark.parametrize("text", [
        "0", "1", "3", "x", "x + y", "x - y", "x*y", "x/y", "-x",
        "x + y*x", "(x + y)*x", "x*(y + 1)", "-(x + y)", "x - y - x",
        "1/(x + 1)", "x/y/x", "x/(y/x)", "2/3", "-x*y", "x*-y",
    ])
    def test_fixed_points(self, text):
        # these strings are already in the printer's normal form
        assert print_term(parse(text)) == text

    def test_numerals_resugar(self):
        assert print_term(mk_numeral(7)) == "7"
        assert print_term(mk_numeral(-7)) == "-7"
        # 1 as the constant prints bare; the one-step numeral does not,
        # because "1" parses to the constant, not to 0 + 1
        assert print_term(ONE) == "1"
        assert print_term(mk_numeral(1)) == "0 + 1"

    def test_power_prints_with_unit_base(self):
        assert print_term(power(x, 3)) == "1*x*x*x"

    def test_inversive_printing(self):
        assert print_term(Inv(Add(x, ONE))) == "inv(x + 1)"

    def test_no_redundant_parens_on_pinned_shapes(self):
        assert print_term(Mul(Add(x, y), x)) == "(x + y)*x"
        assert print_term(Add(x, Mul(y, x))) == "x + y*x"
        assert print_term(Div(ONE, Mul(x, y))) == "1/(x*y)"
        assert print_term(Neg(Neg(x))) == "--x"
        assert parse("--x") == Neg(Neg(x))


def test_round_trip_random_terms():
    rng = random.Random(11)
    for _ in range(1000):
        t = random_term(rng, 6)
        assert parse(print_term(t)) == t


def test_round_trip_inversive_terms():
    rng = random.Random(12)
    for _ in range(300):
        t = random_term(rng, 5)
        from meadow import to_inversive
        u = to_inversive(t)
        assert parse(print_term(u), "inversive") == u


def test_data_round_trip():
    rng = random.Random(13)
    for _ in range(200):
        t = random_term(rng, 5)
        assert term_from_data(term_to_data(t)) == t
    assert term_to_data(ZERO) == {"node": "zero"}
    with pytest.raises(ValueError):
        term_from_data({"node": "frob"})
