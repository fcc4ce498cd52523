"""The value semantics of terms and of the package's records.

Each record is an immutable value: fields in a fixed order with fixed
defaults, construction by position or keyword, validation on
construction, equality only within one class, a hash consistent with
it, a field-by-field repr, and pickling and copying that give back an
equal value.
"""
import copy
import inspect
import pickle

import pytest

from meadow import (
    Add, BasicTerm, CheckReport, CrtDecomposition, Div, Exhaustive,
    ExponentPair, Inv, MultiPoly, Mul, Neg, ONE, One, Sampled,
    SignedFraction, SimpleClosedFraction, SumOfSimpleFractions, UniPoly,
    Var, ZERO, Zero, crt_decompose, mk_numeral, power,
)

x, y = Var("x"), Var("y")

# (value, its exact repr); CrtDecomposition holds models, which compare
# by identity, so its copies are compared by repr alone
RECORDS = [
    (Add(x, ONE), "Add(left=Var(name='x'), right=One())"),
    (Mul(Neg(x), Inv(y)),
     "Mul(left=Neg(arg=Var(name='x')), right=Inv(arg=Var(name='y')))"),
    (Div(ZERO, x), "Div(num=Zero(), den=Var(name='x'))"),
    (Exhaustive(), "Exhaustive()"),
    (Sampled(), "Sampled(count=10000, seed=0)"),
    (CheckReport("refuted", {"x": 2}, 5),
     "CheckReport(verdict='refuted', counterexample={'x': 2}, "
     "evaluations=5, seed=None)"),
    (crt_decompose(6),
     "CrtDecomposition(modulus=6, primes=(2, 3), "
     "factors=(<ModularMeadow mk:2>, <ModularMeadow mk:3>))"),
    (SignedFraction(-1, 3, 2), "SignedFraction(sign=-1, num=3, den=2)"),
    (BasicTerm((SignedFraction(1, 1, 2),)),
     "BasicTerm(summands=(SignedFraction(sign=1, num=1, den=2),))"),
    (UniPoly("x", (1, 0, 2)), "UniPoly(variable='x', coeffs=(1, 0, 2))"),
    (MultiPoly.variable("x"), "MultiPoly(terms=(((('x', 1),), 1),))"),
    (SimpleClosedFraction(-1, 2, 3),
     "SimpleClosedFraction(sign=-1, num=2, den=3)"),
    (ExponentPair(3, 1), "ExponentPair(n=3, m=1)"),
    (SumOfSimpleFractions(((MultiPoly.constant(1), MultiPoly.variable("x")),)),
     "SumOfSimpleFractions(summands=((MultiPoly(terms=(((), 1),)), "
     "MultiPoly(terms=(((('x', 1),), 1),))),))"),
]
IDS = [type(value).__name__ for value, _ in RECORDS]


@pytest.mark.parametrize("value, text", RECORDS, ids=IDS)
def test_repr_is_exact(value, text):
    assert repr(value) == text


def test_repr_of_deep_terms():
    n = 100_000
    assert repr(power(x, n)) == ("Mul(left=" * n + "One()"
                                 + ", right=Var(name='x'))" * n)
    assert repr(mk_numeral(-n)) == ("Neg(arg=" + "Add(left=" * n + "Zero()"
                                    + ", right=One())" * n + ")")
    assert repr(mk_numeral(1)) == "Add(left=Zero(), right=One())"


def test_repr_of_a_term_with_a_foreign_child():
    # the repr shows what was built, so a bad term can still be read
    assert repr(Neg(Add(x, 1))) == "Neg(arg=Add(left=Var(name='x'), right=1))"
    assert repr(Div(ONE, "y")) == "Div(num=One(), den='y')"


@pytest.mark.parametrize("value, text", RECORDS, ids=IDS)
def test_pickle_and_deepcopy_round_trip(value, text):
    for twin in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value),
                 copy.copy(value)):
        assert type(twin) is type(value) and repr(twin) == text
        if not isinstance(value, CrtDecomposition):
            assert twin == value


def fields(value) -> list[str]:
    return list(inspect.signature(type(value)).parameters)


@pytest.mark.parametrize("value, text", RECORDS, ids=IDS)
def test_fields_are_read_only(value, text):
    for name in fields(value):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert repr(value) == text


@pytest.mark.parametrize("make", [
    lambda: Sampled(0),
    lambda: SignedFraction(2, 1, 1),
    lambda: SignedFraction(1, 0, 1),
    lambda: ExponentPair(1, 1),
    lambda: SimpleClosedFraction(1, 2, 4),
    lambda: SimpleClosedFraction(-1, 0, 1),
])
def test_construction_validates(make):
    with pytest.raises(ValueError):
        make()


def test_fields_defaults_and_keyword_construction():
    assert [fields(value) for value, _ in RECORDS[3:]] == [
        [], ["count", "seed"], ["verdict", "counterexample", "evaluations",
                                "seed"],
        ["modulus", "primes", "factors"], ["sign", "num", "den"],
        ["summands"], ["variable", "coeffs"], ["terms"],
        ["sign", "num", "den"], ["n", "m"], ["summands"]]
    assert [fields(t) for t in (Zero(), One(), x, Add(x, y), Mul(x, y),
                                Neg(x), Div(x, y), Inv(x))] == [
        [], [], ["name"], ["left", "right"], ["left", "right"], ["arg"],
        ["num", "den"], ["arg"]]
    assert Sampled() == Sampled(10_000, 0) == Sampled(seed=0, count=10_000)
    assert Sampled(5).seed == 0
    assert CheckReport("valid", None, 3).seed is None
    assert CheckReport(verdict="valid", counterexample=None, evaluations=3,
                       seed=7) == CheckReport("valid", None, 3, 7)
    assert Add(right=ONE, left=x) == Add(x, ONE)
    assert Div(num=x, den=y) == Div(x, y)
    assert Var(name="x") == x
    assert SignedFraction(sign=1, num=2, den=3) == SignedFraction(1, 2, 3)
    assert ExponentPair(m=1, n=2) == ExponentPair(2, 1)
    assert MultiPoly(terms=()) == MultiPoly(())
    assert crt_decompose(6) != CrtDecomposition(6, (2, 3), ())
    with pytest.raises(TypeError):
        Exhaustive(1)


def test_class_patterns_match_fields_by_position():
    match Add(x, Div(ONE, y)), SignedFraction(-1, 3, 2):
        case Add(Var(name), Div(One(), right)), SignedFraction(sign, num, _):
            assert (name, right, sign, num) == ("x", y, -1, 3)
        case _:
            pytest.fail("no pattern matched")


def test_equality_holds_only_within_one_class():
    assert Add(x, y) != Mul(x, y)
    assert Zero() != One() and Zero() == ZERO and One() == ONE
    assert SignedFraction(1, 1, 2) != SimpleClosedFraction(1, 1, 2)
    assert Sampled(5, 1) != (5, 1)
    assert Add(x, y).__eq__(Mul(x, y)) is NotImplemented
    assert SignedFraction(1, 1, 2).__eq__(SimpleClosedFraction(1, 1, 2)) \
        is NotImplemented


@pytest.mark.parametrize("value, text", RECORDS, ids=IDS)
def test_equal_values_hash_equal(value, text):
    twin = copy.copy(value)
    assert twin is not value and twin == value
    if isinstance(value, CheckReport):  # its counterexample is a dict
        with pytest.raises(TypeError):
            hash(value)
    else:
        assert hash(twin) == hash(value)
