import copy
import gc
import operator
import pickle
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from meadow import (
    Add, Div, Inv, Mul, Neg, ONE, One, Var, ZERO, Zero,
    MixedSignatureError,
    contains_div, contains_inv, is_closed, is_divisive, is_fraction,
    is_inversive, is_simple_fraction, iter_subterms, mk_numeral,
    numeral_value, power, substitute, to_divisive, to_inversive,
    variables, wrap_as_fraction,
)
from meadow import (
    closed_to_simple_fraction_q0, eval_term, gf, guard, mk, parse,
    print_term, q0, term_from_data, term_to_data, to_basic,
    to_sum_of_simple_fractions,
)
from meadow import terms
from meadow.terms import fold

from gen import random_term


def test_structural_equality_and_hash():
    assert Add(ZERO, ONE) == Add(ZERO, ONE)
    assert Add(ZERO, ONE) != Add(ONE, ZERO)
    assert hash(Div(Var("x"), ONE)) == hash(Div(Var("x"), ONE))
    assert len({ZERO, ZERO, ONE}) == 2


def test_identity_refuses_a_term_with_a_foreign_child():
    # two non-term children of one class are not taken as equal
    x = Var("x")
    with pytest.raises(TypeError, match="not a term: 1"):
        Add(x, 1) == Add(x, 2)
    for bad in (Add(x, 1), Neg(Add(x, 2)), Div(ONE, "y"), Var(1),
                Add(Var(1), x)):
        for use in (lambda t: Neg(t) == Neg(x), lambda t: Neg(t) == Neg(t),
                    hash, pickle.dumps, copy.copy, _count):
            with pytest.raises(TypeError, match="not a term: "):
                use(bad)


def test_identity_tells_a_variable_from_a_numeral():
    x = Var("x")
    assert Add(mk_numeral(1), x) != Add(ONE, x)
    assert Add(mk_numeral(3), x) != Add(Var("3"), x)
    assert Add(x, mk_numeral(2)) == Add(x, Add(Add(ZERO, ONE), ONE))
    assert hash(Mul(mk_numeral(-2), x)) == hash(parse("-2*x"))


def test_pickles_and_copies_store_each_distinct_node_once():
    x = Var("x")
    t = parse("x^3000 + 2/(x + 1)")
    for twin in (pickle.loads(pickle.dumps(t)), copy.copy(t)):
        assert twin is not t and twin == t
        assert print_term(twin) == print_term(t)
    # equal subterms come back as one object, numerals from their integer
    twin = copy.copy(Add(Mul(x, Var("x")), Mul(Var("x"), x)))
    assert twin.left is twin.right and twin.left.left is twin.left.right
    assert pickle.loads(pickle.dumps(mk_numeral(-5))) == mk_numeral(-5)
    assert len(pickle.dumps(mk_numeral(10**4))) < 100
    assert copy.copy(ONE) is ONE and copy.copy(Zero()) is ZERO


def test_identity_is_linear_on_shared_terms():
    # 64 doublings make a tree of 2^65 - 1 nodes and 65 distinct objects;
    # a walk of the tree would never return
    script = (
        "import copy, pickle\n"
        "from meadow import Mul, Var\n"
        "x = t = Var('x')\n"
        "for _ in range(64):\n"
        "    t = Mul(t, t)\n"
        "assert isinstance(hash(t), int)\n"
        "assert t == pickle.loads(pickle.dumps(t))\n"
        "assert t == copy.copy(t)\n"
        "assert t != Mul(t, x)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_operator_overloads_build_trees():
    x, y = Var("x"), Var("y")
    assert x + y == Add(x, y)
    assert x - y == Add(x, Neg(y))
    assert x * y == Mul(x, y)
    assert -x == Neg(x)
    assert x / y == Div(x, y)


def test_terms_are_immutable():
    with pytest.raises(Exception):
        Var("x").name = "y"


@pytest.mark.parametrize("n", [0, 1, 2, 3, 17, -1, -5])
def test_numeral_round_trip(n):
    assert numeral_value(mk_numeral(n)) == n


def test_numeral_shape():
    assert mk_numeral(0) == ZERO
    assert mk_numeral(2) == Add(Add(ZERO, ONE), ONE)
    assert mk_numeral(-2) == Neg(mk_numeral(2))


def test_numeral_value_rejects_non_numerals():
    # the constant 1 is not the numeral for 1: that is 0 + 1
    assert numeral_value(ONE) is None
    assert numeral_value(Neg(ZERO)) is None
    assert numeral_value(Var("x")) is None
    assert numeral_value(Add(ONE, ZERO)) is None


def test_numeral_value_handles_deep_chains():
    assert numeral_value(mk_numeral(50_000)) == 50_000


def _numeral_value_by_walking(t):
    """Oracle: walk down an optional minus and the + 1 chain to 0."""
    neg = isinstance(t, Neg)
    if neg:
        t = t.arg
    count = 0
    while isinstance(t, Add) and isinstance(t.right, One):
        count += 1
        t = t.left
    if not isinstance(t, Zero) or (neg and count == 0):
        return None
    return -count if neg else count


def test_numeral_value_matches_chain_walk(corpus):
    terms_ = [sub for t in corpus for sub in iter_subterms(t)]
    terms_ += [ONE, Neg(ZERO), Neg(ONE), Neg(Neg(mk_numeral(2))),
               Add(Var("x"), ONE), mk_numeral(100_000)]
    found = [numeral_value(t) for t in terms_]
    assert found == [_numeral_value_by_walking(t) for t in terms_]
    assert found[-6:] == [None] * 5 + [100_000]
    assert any(n is not None and n < 0 for n in found)


def test_numeral_value_rejects_non_terms():
    with pytest.raises(TypeError):
        numeral_value(3)


def test_power_shape():
    x = Var("x")
    assert power(x, 0) == ONE
    assert power(x, 1) == Mul(ONE, x)
    assert power(x, 3) == Mul(Mul(Mul(ONE, x), x), x)
    with pytest.raises(ValueError):
        power(x, -1)


def test_iter_subterms_preorder():
    t = Add(Var("x"), Neg(ONE))
    assert list(iter_subterms(t)) == [t, Var("x"), Neg(ONE), ONE]


def test_signature_predicates():
    d = Div(ONE, Var("x"))
    i = Inv(Var("x"))
    assert contains_div(d) and not contains_inv(d)
    assert contains_inv(i) and not contains_div(i)
    assert is_divisive(d) and not is_inversive(d)
    assert is_inversive(i) and not is_divisive(i)
    # signature-free terms belong to both fragments
    assert is_divisive(Var("x")) and is_inversive(Var("x"))


def test_closedness_and_variables():
    t = Add(Mul(Var("y"), Var("x")), Var("y"))
    assert not is_closed(t)
    assert variables(t) == ("x", "y")
    assert is_closed(mk_numeral(9))
    assert variables(mk_numeral(9)) == ()


def test_predicates_agree_with_iter_subterms():
    rng = random.Random(77)
    for _ in range(300):
        t = random_term(rng, 7)
        if rng.random() < 0.3:
            t = to_inversive(t)
        nodes = list(iter_subterms(t))
        assert contains_div(t) == any(isinstance(s, Div) for s in nodes)
        assert contains_inv(t) == any(isinstance(s, Inv) for s in nodes)
        assert is_closed(t) == (not any(isinstance(s, Var) for s in nodes))
        assert variables(t) == tuple(sorted(
            {s.name for s in nodes if isinstance(s, Var)}))


def test_predicates_visit_shared_subterms_once():
    # 60 doublings make a tree of 2^61 - 1 nodes and 61 distinct objects
    script = (
        "from meadow import Add, Div, Inv, Var, contains_div, contains_inv, "
        "is_closed, to_inversive, to_sum_of_simple_fractions, variables\n"
        "t = Var('x')\n"
        "for _ in range(60):\n"
        "    t = Add(t, t)\n"
        "assert not contains_div(t) and not contains_inv(t)\n"
        "assert contains_div(Div(t, t)) and contains_inv(Inv(t))\n"
        "assert not is_closed(t) and variables(t) == ('x',)\n"
        "assert to_inversive(t) is not None\n"
        "from meadow.polynomials import MultiPoly\n"
        "c, x = MultiPoly.constant, MultiPoly.variable('x')\n"
        "assert list(to_sum_of_simple_fractions(t)) == [(c(2**60) * x, c(1))]\n"
    )
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_fraction_predicates():
    x, y = Var("x"), Var("y")
    assert is_fraction(Div(x, y))
    assert not is_fraction(Add(Div(x, y), ONE))
    assert is_simple_fraction(Div(Add(x, ONE), y))
    assert not is_simple_fraction(Div(Div(x, y), y))
    assert not is_simple_fraction(Div(x, Div(x, y)))
    assert wrap_as_fraction(x) == Div(x, ONE)
    with pytest.raises(MixedSignatureError):
        is_fraction(Inv(x))


def test_the_inverse_is_refused_by_one_guard():
    for refuse in (guard, to_basic, to_sum_of_simple_fractions, is_fraction,
                   is_simple_fraction, to_inversive):
        with pytest.raises(MixedSignatureError) as err:
            refuse(Inv(ONE))
        assert str(err.value) == "term contains the unary inverse operator"


def test_substitute():
    t = Div(Var("x"), Add(Var("y"), ONE))
    s = substitute(t, {"x": mk_numeral(2), "z": ZERO})
    assert s == Div(mk_numeral(2), Add(Var("y"), ONE))
    # unknown names in the binding are ignored, missing ones preserved
    assert substitute(Var("q"), {}) == Var("q")


def test_signature_translations():
    x, y = Var("x"), Var("y")
    assert to_inversive(Div(x, y)) == Mul(x, Inv(y))
    assert to_divisive(Inv(x)) == Div(ONE, x)
    with pytest.raises(MixedSignatureError):
        to_inversive(Inv(x))
    with pytest.raises(MixedSignatureError):
        to_divisive(Div(x, y))


def test_translation_round_trip_is_semantic_identity():
    model = q0()
    rng = random.Random(7)
    for _ in range(100):
        t = random_term(rng, 5, closed=True)
        back = to_divisive(to_inversive(t))
        assert eval_term(model, back) == eval_term(model, t)


@given(st.integers(min_value=-200, max_value=200))
def test_numeral_value_is_left_inverse_of_mk_numeral(n):
    assert numeral_value(mk_numeral(n)) == n


@given(st.integers(min_value=0, max_value=8))
def test_power_multiplicity(n):
    x = Var("x")
    t = power(x, n)
    assert sum(1 for s in iter_subterms(t) if s == x) == n


def _count(t):
    """Nodes in the tree of t, a numeral chain counting as one leaf."""
    return fold(t, lambda node, n: 1, {
        Add: lambda a, b: a + b + 1, Mul: lambda a, b: a + b + 1,
        Div: lambda a, b: a + b + 1, Neg: lambda a: a + 1,
        Inv: lambda a: a + 1})


class TestStructuralSharing:
    def test_equal_subterms_fold_once(self):
        calls = []

        def mul(a, b):
            calls.append((a, b))
            return a * b

        left, right = parse("x*y"), parse("x*y")
        assert left is not right
        t = Add(left, right)
        assert fold(t, lambda node, n: {"x": 2, "y": 3}[node.name],
                    {Add: operator.add, Mul: mul}) == 12
        assert calls == [(2, 3)]

    def test_one_and_the_numeral_0_plus_1_stay_apart(self):
        t = Add(Add(ONE, Mul(mk_numeral(1), parse("x*y"))),
                Add(mk_numeral(1), Mul(ONE, parse("x*y"))))
        assert print_term(t) == "1 + (0 + 1)*(x*y) + (0 + 1 + 1*(x*y))"
        one, numeral = {"node": "one"}, {
            "node": "add", "left": {"node": "zero"}, "right": {"node": "one"}}
        xy = {"node": "mul", "left": {"node": "var", "name": "x"},
              "right": {"node": "var", "name": "y"}}
        assert term_to_data(t) == {
            "node": "add",
            "left": {"node": "add", "left": one, "right": {
                "node": "mul", "left": numeral, "right": xy}},
            "right": {"node": "add", "left": numeral, "right": {
                "node": "mul", "left": one, "right": xy}}}
        assert term_from_data(term_to_data(t)) == t


class TestPlanReuse:
    def test_second_fold_of_the_same_object_does_not_walk_it(self, monkeypatch):
        t = Var("x")
        for _ in range(100_000):
            t = Add(t, Var("y"))
        assert _count(t) == 200_001

        def no_children(node):
            raise AssertionError(f"walked {type(node).__name__} again")

        monkeypatch.setattr(terms, "_CHILDREN",
                            dict.fromkeys(terms._CHILDREN, no_children))
        assert _count(t) == 200_001
        assert not is_closed(t)
        with pytest.raises(AssertionError, match="walked Add again"):
            _count(Add(t, ONE))

    def test_one_plan_serves_folds_with_different_callbacks(self):
        t = parse("(x + 1)*-(x/(0 + 1 + 1))")
        value = {"x": Fraction(3)}
        evaluate = {Add: operator.add, Mul: operator.mul,
                    Neg: operator.neg, Div: operator.truediv}
        leaf = lambda node, n: value[node.name] if n is None else Fraction(n)
        for _ in range(2):
            assert fold(t, leaf, evaluate) == -6
            assert fold(t, lambda node, n: 1, {
                Add: max, Mul: max, Div: max, Neg: abs}) == 1
            assert print_term(t) == "(x + 1)*-(x/2)"
            assert _count(t) == 8

    def test_failed_folds_leave_a_working_plan(self):
        t = parse("1/(x + 2) - 3*x")
        want = _count(t)
        bad = Add(t, 5)
        for _ in range(2):
            with pytest.raises(TypeError, match="not a term: 5"):
                _count(bad)
            assert _count(t) == want

        def refuse(a, b):
            raise ZeroDivisionError

        with pytest.raises(ZeroDivisionError):
            fold(t, lambda node, n: 1, {Add: max, Mul: max, Neg: abs,
                                        Div: refuse})
        assert _count(t) == want

    def test_fold_nested_in_a_callback_keeps_the_outer_plan(self):
        t = parse("(x + y)*(x - y)")
        inner = parse("1/z + z")
        nested = fold(t, lambda node, n: _count(inner) if n is None else 0, {
            Add: operator.add, Mul: operator.add, Neg: operator.neg})
        # each variable folds to _count(inner) = 5, a product to a sum
        assert nested == (5 + 5) + (5 - 5)
        assert _count(t) == 8

    def test_pair_extends_the_plan_of_its_left_side(self):
        rng = random.Random(1618)
        lefts = [mk_numeral(3), Neg(mk_numeral(2)), ONE, ZERO, parse("x"),
                 parse("(x + 1) + 1"), *(random_term(rng, 5) for _ in range(60))]
        for i, left in enumerate(lefts):
            other = random_term(rng, 5)
            for right in (other, Add(other, left), left, Mul(left, left)):
                pair = terms._Pair(left, right)
                is_closed(Var("w"))             # plans another term
                fresh = terms._plan(pair)
                alone = terms._plan(left)
                before = [list(alone[0]), dict(alone[1]), dict(alone[2])]
                seeded = terms._plan(pair)
                # plan, last-use table and keys, and the same leaf objects;
                # the left side's own plan is left as it was
                assert seeded == fresh, (left, right)
                assert list(alone) == before
                assert all(a[1] is b[1] for a, b in zip(seeded[0], fresh[0])
                           if a[0] is None)

    def test_pair_walks_only_its_right_side(self, monkeypatch):
        left = Var("x")
        for _ in range(100_000):
            left = Add(left, Var("y"))
        right = parse("x*y + 1")
        _count(left)
        walked = []
        monkeypatch.setattr(terms, "_CHILDREN", {
            cls: lambda node, get=get: walked.append(node) or get(node)
            for cls, get in terms._CHILDREN.items()})
        pair = terms._Pair(left, right)
        plan = terms._plan(pair)[0]
        assert len(walked) == 2
        assert walked[0] is right and walked[1] is right.left
        assert plan[-1] == (terms._Pair, 100_001, len(plan) - 2)

    def test_cold_and_warm_plans_give_the_same_results(self, corpus):
        models = [q0(), mk(6), gf(2, 2)]

        def results(t):
            return (print_term(t), to_basic(t),
                    closed_to_simple_fraction_q0(t),
                    *(eval_term(m, t) for m in models))

        for t in corpus:
            cold = []
            for f in (print_term, to_basic, closed_to_simple_fraction_q0,
                      *(lambda t, m=m: eval_term(m, t) for m in models)):
                is_closed(ONE)  # plans another term
                cold.append(f(t))
            is_closed(t)
            assert results(t) == tuple(cold)


def test_plan_pauses_the_collector_and_restores_its_state():
    enabled = gc.isenabled()
    collections = []

    def spy(phase, info):
        collections.append(phase)
    big = power(Var("x"), 20_000)
    try:
        gc.enable()
        terms._plan(ONE)
        gc.callbacks.append(spy)
        try:
            terms._plan(big)
        finally:
            gc.callbacks.remove(spy)
        assert collections == []
        with pytest.raises(TypeError, match="not a term"):
            terms._plan(Add(big, 5))
        assert gc.isenabled()
        gc.disable()
        with pytest.raises(TypeError, match="not a term"):
            terms._plan(Add(big, 5))
        terms._plan(big)
        assert not gc.isenabled()
    finally:
        (gc.enable if enabled else gc.disable)()
