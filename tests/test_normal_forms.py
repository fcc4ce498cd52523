import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from meadow import (
    Add, Div, Inv, Mul, Neg, ONE, Var, ZERO,
    BasicTerm, MixedSignatureError, NotRingTermError, OpenTermError,
    SignedFraction, VALID,
    check_eq, cr_normal, eval_term, guard, is_basic_term, mk, mk_numeral,
    parse, print_term, q0, render_basic, tidy, to_basic,
)

from gen import random_ring_term, random_term


def summand_triples(b: BasicTerm) -> list[tuple[int, int, int]]:
    return [(s.sign, s.num, s.den) for s in b]


class TestSignedFraction:
    def test_validation(self):
        with pytest.raises(ValueError):
            SignedFraction(0, 1, 1)
        with pytest.raises(ValueError):
            SignedFraction(1, 0, 1)
        with pytest.raises(ValueError):
            SignedFraction(1, 1, -2)

    def test_round_trips(self):
        s = SignedFraction(-1, 3, 2)
        assert s.as_fraction() == Fraction(-3, 2)
        assert s.negate().as_fraction() == Fraction(3, 2)
        assert eval_term(q0(), s.to_term()) == Fraction(-3, 2)

    def test_eval_in_matches_term_evaluation(self):
        s = SignedFraction(-1, 3, 2)
        for model in (q0(), mk(6)):
            assert s.eval_in(model) == eval_term(model, s.to_term())
        # numerals too large to spell out as unary chains still evaluate
        big = SignedFraction(1, 10**15, 7)
        assert big.eval_in(q0()) == Fraction(10**15, 7)
        assert big.eval_in(mk(5)) == 0

    def test_basic_term_eval_in(self):
        assert BasicTerm(()).eval_in(mk(6)) == 0
        b = BasicTerm((SignedFraction(1, 1, 2), SignedFraction(-1, 1, 3)))
        for model in (q0(), mk(6), mk(7)):
            assert b.eval_in(model) == eval_term(model, b.to_term())


class TestToBasic:
    def test_numerals(self):
        assert summand_triples(to_basic(ZERO)) == []
        assert summand_triples(to_basic(ONE)) == [(1, 1, 1)]
        assert summand_triples(to_basic(mk_numeral(3))) == [(1, 3, 1)]
        assert summand_triples(to_basic(mk_numeral(-3))) == [(-1, 3, 1)]

    def test_division_by_zero_vanishes(self):
        assert summand_triples(to_basic(parse("1/0"))) == []
        assert summand_triples(to_basic(parse("5/(2 - 2)"))) == []

    def test_single_fraction_swaps(self):
        assert summand_triples(to_basic(parse("2/3"))) == [(1, 2, 3)]
        assert summand_triples(to_basic(parse("1/(2/3)"))) == [(1, 3, 2)]

    def test_pinned_expansion(self):
        # dividing by a sum case-splits on the vanishing denominator
        b = to_basic(parse("1/(1 + 1/2)"))
        assert summand_triples(b) == [(1, 1, 1), (-1, 2, 2), (1, 4, 6)]
        assert b.q0_value() == Fraction(2, 3)
        # in characteristic 2 the divisor is 1 + 0 and the value is 1
        two = mk(2)
        assert eval_term(two, b.to_term()) == eval_term(two, parse("1/(1 + 1/2)")) == 1

    def test_same_kernel_merging(self):
        # 1/2 * 1/2 and similar share the kernel {2} and combine
        assert summand_triples(to_basic(parse("(1/2)*(1/2)"))) == [(1, 1, 4)]
        assert summand_triples(to_basic(parse("(1/2)*(3/4)"))) == [(1, 3, 8)]

    def test_addition_concatenates(self):
        assert summand_triples(to_basic(parse("1/2 + 1/3"))) == \
            [(1, 1, 2), (1, 1, 3)]
        assert summand_triples(to_basic(parse("2 - 2"))) == \
            [(1, 2, 1), (-1, 2, 1)]

    def test_open_term_rejected(self):
        with pytest.raises(OpenTermError):
            to_basic(parse("x + 1"))

    def test_inverse_signature_rejected(self):
        with pytest.raises(MixedSignatureError):
            to_basic(Inv(mk_numeral(2)))

    def test_sound_across_models(self, all_models, rationals):
        rng = random.Random(501)
        for _ in range(150):
            t = random_term(rng, 6, closed=True)
            b = to_basic(t).to_term()
            for model in all_models:
                assert eval_term(model, b) == eval_term(model, t), \
                    (model.name, t)

    def test_output_matches_grammar(self):
        rng = random.Random(502)
        for _ in range(150):
            t = random_term(rng, 6, closed=True)
            assert is_basic_term(to_basic(t).to_term())

    def test_idempotent_on_own_output(self):
        rng = random.Random(503)
        for _ in range(50):
            t = random_term(rng, 5, closed=True)
            b = to_basic(t)
            again = to_basic(b.to_term())
            assert b.q0_value() == again.q0_value()
            assert eval_term(mk(6), b.to_term()) == eval_term(mk(6), again.to_term())


class TestIsBasicTerm:
    def test_accepts_grammar_members(self):
        assert is_basic_term(ZERO)
        assert is_basic_term(parse("2/3"))
        assert is_basic_term(parse("-(2/3)"))
        assert is_basic_term(parse("2/3 + 4/5"))
        assert is_basic_term(
            BasicTerm((SignedFraction(1, 1, 1), SignedFraction(-1, 2, 2))).to_term()
        )

    def test_rejects_others(self):
        assert not is_basic_term(ONE)
        assert not is_basic_term(parse("0/3"))
        assert not is_basic_term(parse("x/3"))
        assert not is_basic_term(parse("(1/2)/3"))
        assert not is_basic_term(parse("2*3"))


def test_render_basic():
    b = to_basic(parse("2/3"))
    assert render_basic(b) == "2/3"
    assert render_basic(BasicTerm(())) == "0"


def test_render_basic_is_the_printed_term(corpus_basic):
    # to_term() spells numerals as chains with one node per unit, so the
    # comparison is limited to forms where that stays small (946 of 1000)
    small = [b for _, b in corpus_basic
             if sum(s.num + s.den for s in b) <= 10_000]
    assert len(small) > 900
    for b in small:
        assert render_basic(b) == print_term(b.to_term())
    b = to_basic(parse("-1/2 + 1 - 3"))
    assert render_basic(b) == print_term(b.to_term()) \
        == "-((0 + 1)/2) + (0 + 1)/(0 + 1) - 3/(0 + 1)"


class TestCrNormal:
    @pytest.mark.parametrize("text,value", [
        ("0", 0), ("1", 1), ("2 + 3", 5), ("2*3 - 7", -1), ("-(2 + 2)", -4),
        ("(1 + 1)*(1 + 1 + 1)", 6),
    ])
    def test_pinned(self, text, value):
        assert cr_normal(parse(text)) == value

    def test_agrees_with_models(self, all_models):
        rng = random.Random(504)
        for _ in range(100):
            t = random_ring_term(rng, 6, closed=True)
            n = cr_normal(t)
            for model in all_models:
                assert eval_term(model, t) == eval_term(model, mk_numeral(n))

    def test_rejects_division(self):
        with pytest.raises(NotRingTermError):
            cr_normal(parse("1/2"))
        with pytest.raises(NotRingTermError):
            cr_normal(Inv(ONE))

    def test_rejects_open_terms(self):
        with pytest.raises(OpenTermError):
            cr_normal(Var("x"))


class TestGuard:
    def test_shape(self):
        x = Var("x")
        assert guard(x) == Div(x, x)
        with pytest.raises(MixedSignatureError):
            guard(Inv(x))

    def test_guard_values_in_fields(self, m5, rationals):
        # in a field the guard is the 0/1 indicator of invertibility
        for r in range(5):
            expect = 0 if r == 0 else 1
            assert eval_term(m5, guard(Var("r")), {"r": r}) == expect
        assert eval_term(rationals, guard(ZERO)) == 0
        assert eval_term(rationals, guard(mk_numeral(7))) == 1

    def test_guard_values_in_products_are_idempotents(self, m6):
        # mod 6 the guard of r is the idempotent matching r's support,
        # e.g. 2/2 = 4; it is still a unit for r itself
        seen = []
        for r in range(6):
            e = eval_term(m6, guard(Var("r")), {"r": r})
            seen.append(e)
            assert m6.mul(e, e) == e
            assert m6.mul(e, r) == r
        assert seen == [0, 1, 4, 3, 4, 1]

    def test_guard_idempotent_everywhere(self, all_models):
        g = guard(Var("r"))
        for model in all_models:
            assert check_eq(model, Mul(g, g), g).verdict in (VALID, "sampled_ok")


class TestTidy:
    def test_sorts_summands(self):
        b = BasicTerm((SignedFraction(1, 1, 3), SignedFraction(-1, 1, 2),
                       SignedFraction(1, 1, 2)))
        assert summand_triples(tidy(b)) == \
            [(1, 1, 2), (-1, 1, 2), (1, 1, 3)]

    def test_reduces_when_both_checks_agree(self):
        # 4/6 and 2/3 agree in the rationals and mod 6, so tidy reduces
        b = BasicTerm((SignedFraction(1, 4, 6),))
        assert summand_triples(tidy(b)) == [(1, 2, 3)]

    def test_reduction_blocked_by_finite_witness(self):
        # 5/10 equals 1/2 in the rationals but not mod 5: there 10 is 0,
        # so 5/10 is 0 while 1/2 is not
        b = BasicTerm((SignedFraction(1, 5, 10),))
        assert summand_triples(tidy(b, finite_model=mk(5))) == [(1, 5, 10)]
        five = mk(5)
        assert eval_term(five, b.to_term()) == 0
        assert eval_term(five, SignedFraction(1, 1, 2).to_term()) != 0

    def test_preserves_value_in_checked_models(self, rationals, m6):
        rng = random.Random(505)
        for _ in range(50):
            t = random_term(rng, 5, closed=True)
            b = to_basic(t)
            tidied = tidy(b)
            assert tidied.q0_value() == b.q0_value()
            assert eval_term(m6, tidied.to_term()) == eval_term(m6, b.to_term())


@settings(max_examples=60, deadline=None)
@given(st.integers(-30, 30), st.integers(-30, 30), st.integers(-30, 30))
def test_basic_of_linear_combinations(a, b, c):
    t = Add(Add(mk_numeral(a), mk_numeral(b)), Neg(mk_numeral(c)))
    basic = to_basic(t)
    assert basic.q0_value() == Fraction(a + b - c)
    assert cr_normal(t) == a + b - c


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 40), st.integers(1, 40))
def test_basic_of_single_fraction_is_itself(n, m):
    t = Div(mk_numeral(n), mk_numeral(m))
    assert summand_triples(to_basic(t)) == [(1, n, m)]
