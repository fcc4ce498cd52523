"""Every term walk on terms nested 10^5 deep: no recursion, linear time.

Results are compared by printed text, model values and summand tuples,
and by structural == and hash, which read the keys of the terms' plans.
A quadratic numeral check would make the long sum alone take minutes.
"""
import copy
import pickle
from collections import Counter

import pytest

from meadow import (
    Div, Mul, Neg, ONE, One, Sampled, VALID, SAMPLED_OK, Var, Zero,
    check_eq, cr_normal, eliminate_division, eval_term, fold, is_basic_term,
    iter_subterms, mk, mk_numeral, parse, print_term, substitute,
    term_from_data, term_to_data, to_basic, to_canonical, to_divisive,
    to_inversive, to_sum_of_simple_fractions,
)
from meadow.cli import _dumps
from meadow.syntax import _DATA, _data_leaf

N = 100_000
x = Var("x")


def negations():
    t = x
    for _ in range(N):
        t = Neg(t)
    return t


# name: (build, printed text, value as a function of x, equal term over
#        mk:7, sum-of-fractions summands, canonical coefficients)
CASES = {
    "power": (lambda: parse(f"x^{N}"), "1" + "*x" * N, lambda v: v ** N,
              "x^4", [("x" + "*x" * (N - 1), "1")], None),
    "numeral": (lambda: mk_numeral(N), str(N), lambda v: N, "5",
                [(str(N), "1")], (N,)),
    "sum": (lambda: parse("x" + "+1" * N), "x" + " + 1" * N,
            lambda v: v + N, "x + 5", [(f"x + {N}", "1")], (N, 1)),
    "negations": (negations, "-" * N + "x", lambda v: v, "x",
                  [("x", "1")], (0, 1)),
}


def first_leaf_replaced(t, leaf):
    """t with its leftmost leaf replaced, rebuilt without recursion."""
    spine = []
    while not isinstance(t, (Zero, One, Var)):
        spine.append(t)
        t = t.arg if isinstance(t, Neg) else t.left
    for node in reversed(spine):
        leaf = Neg(leaf) if isinstance(node, Neg) \
            else type(node)(leaf, node.right)
    return leaf


def data_kinds(data) -> Counter:
    kinds, stack = Counter(), [data]
    while stack:
        node = stack.pop()
        kinds[node["node"]] += 1
        stack.extend(v for v in node.values() if isinstance(v, dict))
    return kinds


@pytest.mark.parametrize("case", sorted(CASES))
def test_walkers_at_depth_1e5(case):
    build, text, value, equal, summands, coeffs = CASES[case]
    t = build()
    m7 = mk(7)

    # syntax
    assert print_term(t) == text
    assert print_term(parse(text)) == text
    data = term_to_data(t)
    assert data_kinds(data) == Counter(
        type(s).__name__.lower() for s in iter_subterms(t))
    assert print_term(term_from_data(data)) == text

    # terms
    twin = build()
    assert twin is not t and twin == t and hash(twin) == hash(t)
    for twin in (pickle.loads(pickle.dumps(t)), copy.copy(t),
                 copy.deepcopy(t)):
        assert twin == t and print_term(twin) == text
    assert first_leaf_replaced(t, Var("y")) != t
    assert print_term(to_divisive(to_inversive(Div(t, x)))) \
        == print_term(Mul(t, Div(ONE, x)))
    closed = substitute(t, {"x": mk_numeral(-1)})
    assert cr_normal(closed) == value(-1)

    # models: one compiled program for eval_term and both check strategies
    assert eval_term(m7, t, {"x": 2}) == value(2) % 7
    assert check_eq(m7, t, parse(equal)).verdict == VALID
    assert check_eq(m7, t, parse(equal), Sampled(5)).verdict == SAMPLED_OK

    # transforms: the reciprocal exponent over mk:7 is 11
    reciprocal = Div(ONE, t)
    eliminated = eliminate_division(m7, reciprocal)
    assert eval_term(m7, eliminated, {"x": 2}) == pow(value(2), 11, 7)
    assert check_eq(m7, reciprocal, eliminated).verdict == VALID

    # normal forms and polynomials; to_basic of the long sum builds its
    # 10^5 + 1 summands by repeated list concatenation and a polynomial of
    # degree 10^5 is built by repeated multiplication, both quadratic in
    # the size of the result
    assert not is_basic_term(t)
    if case != "sum":
        v = value(-1)
        assert [(s.sign, s.num, s.den) for s in to_basic(closed)] \
            == [(1 if v > 0 else -1, abs(v), 1)]
    assert [(print_term(n.to_term()), print_term(d.to_term()))
            for n, d in to_sum_of_simple_fractions(t)] == summands
    if coeffs is not None:
        assert to_canonical(t, "x").coeffs == coeffs


def test_json_length_is_known_before_encoding(corpus):
    # the fold carries the length that _dumps writes; the longest here,
    # "power", has 5.6 MB of JSON, under the bound
    for t in [case[0]() for case in CASES.values()] + corpus:
        assert fold(t, _data_leaf, _DATA)[1] == len(_dumps(term_to_data(t)))


def test_pickle_keeps_shared_subterms():
    # 2^200 leaves as a tree, 201 distinct nodes
    t = x
    for _ in range(200):
        t = Mul(t, t)
    twin = pickle.loads(pickle.dumps(t))
    for _ in range(200):
        assert twin.__class__ is Mul and twin.left is twin.right
        twin = twin.left
    assert twin == x
