import random

import pytest

from meadow import (
    Add, Div, Inv, Mul, Neg, ONE, ParseError, SignatureError, Var, ZERO,
    eval_term, fold, mk_numeral, parse, power, print_term, q0,
    term_from_data, term_to_data, to_inversive,
)
from meadow import syntax

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

    def test_deep_nesting(self):
        n = 100_000
        assert parse("(" * n + "x" + ")" * n) == x
        text = "inv(" * 20_000 + "x" + ")" * 20_000
        assert print_term(parse(text, "inversive")) == text

    def test_long_run_of_unary_minus(self):
        t = parse("-" * 100_000 + "x")
        assert eval_term(q0(), t, {"x": 3}) == 3
        assert eval_term(q0(), parse("-" * 99_999 + "x"), {"x": 3}) == -3

    def test_whitespace_and_lines(self):
        assert parse(" x +\n y ") == Add(x, y)
        with pytest.raises(ParseError) as err:
            parse("x +\n@")
        assert err.value.line == 2


_ANY = "an integer, identifier or '('"
_EOF = "end of input"


# (text, signature, message, line, column, expected, found): a parse
# error's whole record, raised at the token it names
@pytest.mark.parametrize("text, signature, message, line, column, "
                         "expected, found", [
    ("x + ", "divisive", f"expected {_ANY}, found {_EOF!r}", 1, 5, _ANY, _EOF),
    ("", "divisive", f"expected {_ANY}, found {_EOF!r}", 1, 1, _ANY, _EOF),
    ("()", "divisive", f"expected {_ANY}, found ')'", 1, 2, _ANY, ")"),
    ("-", "divisive", f"expected {_ANY}, found {_EOF!r}", 1, 2, _ANY, _EOF),
    ("inv()", "inversive", f"expected {_ANY}, found ')'", 1, 5, _ANY, ")"),
    ("x y", "divisive", "expected end of input, found 'y'", 1, 3, _EOF, "y"),
    ("x)", "divisive", "expected end of input, found ')'", 1, 2, _EOF, ")"),
    ("(x))", "divisive", "expected end of input, found ')'", 1, 4, _EOF, ")"),
    ("x^2^3", "divisive", "expected end of input, found '^'", 1, 4, _EOF, "^"),
    ("-(x)^2^2", "divisive", "expected end of input, found '^'", 1, 7,
     _EOF, "^"),
    ("(x", "divisive", f"expected ')', found {_EOF!r}", 1, 3, "')'", _EOF),
    ("(x^2^3)", "divisive", "expected ')', found '^'", 1, 5, "')'", "^"),
    ("inv(x", "inversive", f"expected ')', found {_EOF!r}", 1, 6, "')'",
     _EOF),
    ("x +\n  (y", "divisive", f"expected ')', found {_EOF!r}", 2, 5, "')'",
     _EOF),
    ("inv x", "inversive", "expected '(', found 'x'", 1, 5, "'('", "x"),
    ("2^", "divisive", f"expected an integer exponent, found {_EOF!r}", 1, 3,
     "an integer exponent", _EOF),
    ("x^-1", "divisive", "expected an integer exponent, found '-'", 1, 3,
     "an integer exponent", "-"),
    ("@", "divisive", "unexpected character '@'", 1, 1, None, "@"),
    ("²", "divisive", "unexpected character '²'", 1, 1, None, "²"),
    ("x +\n@", "divisive", "unexpected character '@'", 2, 1, None, "@"),
    ("1" * 5000, "divisive", "integer literal of 5000 digits is too large to"
     " expand (limit 100000)", 1, 1, None, "1" * 5000),
    ("x^100001", "divisive", "integer literal of 6 digits is too large to"
     " expand (limit 100000)", 1, 3, None, "100001"),
])
def test_parse_error_record(text, signature, message, line, column,
                            expected, found):
    with pytest.raises(ParseError) as err:
        parse(text, signature)
    assert type(err.value) is ParseError
    assert str(err.value) == f"{message} at line {line}, column {column}"
    assert (err.value.line, err.value.column) == (line, column)
    assert (err.value.expected, err.value.found) == (expected, found)


# the first error in reading order wins: tokens are all read first,
# then each check runs at the token it concerns
@pytest.mark.parametrize("text, signature, cls, message", [
    ("inv(x)", "divisive", SignatureError,
     "'inv' is not part of the divisive signature (line 1, column 1)"),
    ("inv", "divisive", SignatureError,
     "'inv' is not part of the divisive signature (line 1, column 1)"),
    ("x /\n  inv(y)", "divisive", SignatureError,
     "'inv' is not part of the divisive signature (line 2, column 3)"),
    ("x/y", "inversive", SignatureError,
     "'/' is not part of the inversive signature (line 1, column 2)"),
    ("x / 100001", "inversive", SignatureError,
     "'/' is not part of the inversive signature (line 1, column 3)"),
    ("100001 / x", "inversive", ParseError, "integer literal of 6 digits is"
     " too large to expand (limit 100000) at line 1, column 1"),
    ("y * x / @", "inversive", ParseError,
     "unexpected character '@' at line 1, column 9"),
])
def test_first_error_wins(text, signature, cls, message):
    with pytest.raises(cls) as err:
        parse(text, signature)
    assert type(err.value) is cls
    assert str(err.value) == message


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
        u = to_inversive(t)
        assert parse(print_term(u), "inversive") == u


def test_rendered_size_is_the_printed_length(corpus):
    rng = random.Random(14)
    opened = [random_term(rng, 6) for _ in range(300)]
    for t in [*corpus, *opened, *map(to_inversive, opened)]:
        size = fold(t, syntax._render_leaf, syntax._RENDER)[3]
        assert size == len(print_term(t)), t


def test_printed_size_bound():
    at_bound = Var("x" * syntax._MAX_PRINTED)
    assert len(print_term(at_bound)) == syntax._MAX_PRINTED
    with pytest.raises(ValueError, match=f"has {syntax._MAX_PRINTED + 1} "):
        print_term(Neg(at_bound))
    # 10^9 factors, from 3002 distinct nodes, refused before any text
    with pytest.raises(ValueError, match="has 2004004001 characters, more "
                       f"than the {syntax._MAX_PRINTED} that printing"):
        print_term(parse("((x^1000)^1000)^1000"))


def test_data_round_trip():
    rng = random.Random(13)
    for _ in range(200):
        t = random_term(rng, 5)
        assert term_from_data(term_to_data(t)) == t
    assert term_to_data(ZERO) == {"node": "zero"}
    with pytest.raises(ValueError):
        term_from_data({"node": "frob"})
