import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from meadow import (
    Add, Div, Inv, Mul, Neg, ONE, Var, ZERO,
    BasicTerm, MixedSignatureError, NotRingTermError, OpenTermError,
    SignedFraction, SimpleClosedFraction, VALID,
    check_eq, closed_to_simple_fraction_q0, cr_normal, eval_term, guard,
    is_basic_term, mk, mk_numeral, model_from_spec, parse, print_term, q0,
    render_basic, tidy, to_basic, to_sum_of_simple_fractions,
)
from meadow import normal_forms
from meadow.normal_forms import render_quotient, split_reciprocal
from meadow.polynomials import MultiPoly

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
        for model in (q0(), mk(6), model_from_spec("gf:2^2")):
            zero = BasicTerm(()).eval_in(model)
            assert zero == model.zero and type(zero) is type(model.zero)
        b = BasicTerm((SignedFraction(1, 1, 2), SignedFraction(-1, 1, 3)))
        assert len(b) == 2
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

    @pytest.mark.parametrize("pairs, merged", [
        ([], []), ([(3, -4)], [(-3, 4)]), ([(0, 5)], [])])
    def test_merging_at_most_one_summand(self, pairs, merged):
        # as grouping gives it: a 0 summand over the same kernel joins the
        # group and leaves the result as it is
        assert normal_forms._merge_kernels(pairs) == merged
        for _, d in pairs:
            assert normal_forms._merge_kernels(pairs + [(0, abs(d))]) == merged

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


def test_render_quotient_is_the_printed_term(corpus):
    # the closed q0 fraction of each corpus term whose numeral spelling
    # stays small (975 of 1000), then zero, +-1 and denominator 1
    values = [closed_to_simple_fraction_q0(t) for t in corpus]
    small = [f for f in values if f.num + f.den <= 10_000]
    assert len(small) > 900
    pinned = [SimpleClosedFraction.from_fraction(Fraction(v)) for v in
              (0, 1, -1, 5, -5, Fraction(1, 7), Fraction(-1, 7))]
    for f in small + pinned:
        assert render_quotient(f.sign * f.num, f.den) == print_term(f.to_term())
    assert [render_quotient(f.sign * f.num, f.den) for f in pinned] == [
        "0/(0 + 1)", "(0 + 1)/(0 + 1)", "-(0 + 1)/(0 + 1)", "5/(0 + 1)",
        "-5/(0 + 1)", "(0 + 1)/7", "-(0 + 1)/7"]


def _digest(data) -> str:
    return hashlib.sha256(repr(data).encode()).hexdigest()


def test_case_split_outputs_are_pinned(corpus_basic):
    """Digests taken before to_basic and to_sum_of_simple_fractions shared
    one case-split, split_reciprocal; it still gives the same output."""
    basic = [tuple(summand_triples(b)) for _, b in corpus_basic]
    assert _digest(basic) == (
        "ceba6ae6a0546c6934778ccedeb7a81aadaa77ea1de01b53298b2c3d5db180b4")

    rng = random.Random(1400)
    terms = [random_term(rng, 6, names=("x", "y", "z")) for _ in range(200)]
    terms += [parse(text) for text in (
        "1/(1/2+1/3)", "1/(x/2 + 3/y + z)", "1/(1/x)", "1/(1/x + 1/y)",
        "1/(x - x)", "1/(1 + 2)", "(x+1)/(x/y - y/x + 1)", "1/(2/x + 3/x)",
        "1/(x/2 - x/2 + 1/y)", "x/(1/(1/x + y))")]
    sums = []
    for t in terms:
        s = to_sum_of_simple_fractions(t)
        sums.append((tuple((n.terms, d.terms) for n, d in s),
                     print_term(s.to_term())))
    assert _digest(sums) == (
        "73c36dd75c87c2d2c822028d9ec73e16a874eb67fe7394281faa97303cc2e9e9")

    # over integers and over constant polynomials the routine agrees
    rng = random.Random(4242)
    splits = []
    for _ in range(400):
        divisor = [(rng.choice([-1, 1]) * rng.randint(1, 5), rng.randint(1, 6))
                   for _ in range(rng.randint(1, 4))]
        ints = split_reciprocal(divisor, 1)
        polys = split_reciprocal(
            [(MultiPoly.constant(n), MultiPoly.constant(d)) for n, d in divisor],
            MultiPoly.constant(1))
        assert polys == [(MultiPoly.constant(n), MultiPoly.constant(d))
                         for n, d in ints], divisor
        splits.append(ints)
    assert _digest(splits) == (
        "e404213fa8705ff697ec2be38a3f876bf9be51c499536e4cdb34381527568e73")


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

    def test_reduces_without_building_numerals(self, monkeypatch):
        # As numeral chains 2^20/2^19 has 1.5 million nodes; tidy compares
        # the summands' values without spelling them.
        b = to_basic(parse("2^20/2^19"))

        def no_numerals(n):
            raise AssertionError(f"numeral chain for {n} built")

        monkeypatch.setattr(normal_forms, "mk_numeral", no_numerals)
        assert summand_triples(tidy(b)) == [(1, 2, 1)]

    def test_preserves_value_in_checked_models(self, rationals, m6):
        rng = random.Random(505)
        for _ in range(50):
            t = random_term(rng, 5, closed=True)
            b = to_basic(t)
            tidied = tidy(b)
            assert tidied.q0_value() == b.q0_value()
            assert eval_term(m6, tidied.to_term()) == eval_term(m6, b.to_term())

    def test_corpus_tidy_is_pinned(self, corpus_basic):
        # only the finite model decides a reduction, so each one tidies
        # the corpus its own way
        tidied = [
            (spec, [summand_triples(tidy(b, spec and model_from_spec(spec)))
                    for _, b in corpus_basic])
            for spec in (None, "mk:5", "mk:30", "gf:2^2")]
        assert _digest(tidied) == (
            "3c10f7cf859fab08676f6928145a7a29a718c43429ad1d71b32e9c37b20ed646")


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
