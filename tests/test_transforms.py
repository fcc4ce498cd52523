import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from meadow import (
    Add, Div, Mul, Neg, ONE, Var, ZERO,
    ExponentPair, InfiniteCarrierError, MixedSignatureError, OpenTermError,
    REFUTED, SAMPLED_OK, Sampled, SimpleClosedFraction, UniPoly, VALID,
    check_eq, closed_to_simple_fraction_q0,
    closed_to_simple_fraction_q0_via_basic, contains_div, eliminate_division,
    eval_term, falsify_simple_fraction_claim, find_annihilating_exponents,
    gf, guard_identities, is_simple_fraction, mk, mk_numeral, parse,
    iter_subterms, print_term, q0, term_to_data, to_simple_fraction_finite,
    to_sum_of_simple_fractions, variables,
)
from meadow.cli import _dumps

from gen import random_open_terms, random_term


class TestSimpleClosedFraction:
    def test_lowest_terms_enforced(self):
        with pytest.raises(ValueError):
            SimpleClosedFraction(1, 4, 6)
        with pytest.raises(ValueError):
            SimpleClosedFraction(-1, 0, 1)

    def test_from_fraction(self):
        assert SimpleClosedFraction.from_fraction(Fraction(-4, 6)) == \
            SimpleClosedFraction(-1, 2, 3)
        assert SimpleClosedFraction.from_fraction(Fraction(0)) == \
            SimpleClosedFraction(1, 0, 1)

    def test_term_keeps_division_outermost(self):
        f = SimpleClosedFraction(-1, 2, 3)
        assert is_simple_fraction(f.to_term())
        assert print_term(f.to_term()) == "-2/3"
        assert eval_term(q0(), f.to_term()) == Fraction(-2, 3)


class TestClosedSimpleFractionQ0:
    @pytest.mark.parametrize("text,sign,num,den", [
        ("1 + 1/2", 1, 3, 2),
        ("1/0", 1, 0, 1),
        ("1/(1 + 1/2)", 1, 2, 3),
        ("-(3/9)", -1, 1, 3),
        ("2 - 2", 1, 0, 1),
    ])
    def test_pinned(self, text, sign, num, den):
        f = closed_to_simple_fraction_q0(parse(text))
        assert (f.sign, f.num, f.den) == (sign, num, den)

    def test_open_terms_rejected(self):
        with pytest.raises(OpenTermError):
            closed_to_simple_fraction_q0(parse("x"))

    def test_both_paths_agree(self, corpus):
        for t in corpus[:300]:
            direct = closed_to_simple_fraction_q0(t)
            via = closed_to_simple_fraction_q0_via_basic(t)
            assert direct == via, print_term(t)


class TestExponentPairs:
    def test_validation(self):
        with pytest.raises(ValueError):
            ExponentPair(1, 1)
        with pytest.raises(ValueError):
            ExponentPair(2, 0)

    PINNED = [(2, (2, 1)), (3, (3, 1)), (5, (5, 1)), (6, (3, 1)),
              (7, (7, 1)), (10, (5, 1)), (15, (5, 1)), (30, (5, 1))]

    @pytest.mark.parametrize("k,pair", PINNED)
    def test_modular_pairs(self, k, pair):
        found = find_annihilating_exponents(mk(k))
        assert (found.n, found.m) == pair

    def test_galois_closed_form(self, g4, g9):
        assert find_annihilating_exponents(g4) == ExponentPair(4, 1)
        assert find_annihilating_exponents(g9) == ExponentPair(9, 1)

    def test_galois_shortcut_matches_search(self):
        # a prime field is also a modular model; the closed form and the
        # search must land on the same pair
        assert find_annihilating_exponents(gf(5, 1)) == \
            find_annihilating_exponents(mk(5))

    def test_pair_actually_annihilates(self, finite_models):
        x = Var("x")
        for model in finite_models:
            pair = find_annihilating_exponents(model)
            report = check_eq(model, parse(f"x^{pair.n}"), parse(f"x^{pair.m}"))
            assert report.verdict == VALID, model.name

    def test_infinite_carrier_rejected(self, rationals):
        with pytest.raises(InfiniteCarrierError):
            find_annihilating_exponents(rationals)


class TestEliminateDivision:
    def test_pinned_shapes(self, m2, m3):
        assert eliminate_division(m2, parse("1/x")) == Var("x")
        assert print_term(to_simple_fraction_finite(m2, parse("1/x"))) == "x/1"
        assert print_term(to_simple_fraction_finite(m2, parse("1 + x"))) == \
            "(1 + x)/1"
        out = eliminate_division(m3, parse("1/(1/x)"))
        assert not contains_div(out)
        assert check_eq(m3, out, Var("x")).verdict == VALID

    def test_reciprocal_power_identity(self):
        x = Var("x")
        for k in (2, 3, 5, 6, 7, 10, 15, 30):
            model = mk(k)
            pair = find_annihilating_exponents(model)
            e = 2 * (pair.n - pair.m) - 1
            report = check_eq(model, Div(ONE, x), parse(f"x^{e}"))
            assert report.verdict == VALID, (k, e)

    def test_leaves_ring_terms_alone(self, m6):
        t = parse("x*y + 3")
        assert eliminate_division(m6, t) == t

    def test_numerals_survive_untouched(self, m6):
        t = parse("100/7")
        out = eliminate_division(m6, t)
        assert not contains_div(out)
        assert eval_term(m6, out) == eval_term(m6, t)

    def test_property_on_random_terms(self, m2, m3, m6, g4):
        for model in (m2, m3, m6, g4):
            terms = random_open_terms(seed=700 + model.size, count=50, depth=5)
            for t in terms:
                simple = to_simple_fraction_finite(model, t)
                assert is_simple_fraction(simple)
                assert check_eq(model, t, simple).verdict == VALID, \
                    (model.name, print_term(t))

    def test_infinite_carrier_rejected(self, rationals):
        with pytest.raises(InfiniteCarrierError):
            eliminate_division(rationals, parse("1/x"))


class TestSumOfSimpleFractions:
    def test_already_simple_passes_through(self):
        s = to_sum_of_simple_fractions(parse("x/y"))
        assert [(print_term(n.to_term()), print_term(d.to_term()))
                for n, d in s] == [("x", "y")]

    def test_reciprocal_of_reciprocal(self, all_models):
        s = to_sum_of_simple_fractions(parse("1/(1/x)"))
        assert [(print_term(n.to_term()), print_term(d.to_term()))
                for n, d in s] == [("x*x", "x")]
        x = Var("x")
        for model in all_models:
            report = check_eq(model, s.to_term(), x)
            assert report.verdict in (VALID, SAMPLED_OK), model.name

    def test_two_reciprocals_expansion(self, m6, rationals):
        t = parse("1/(1/x + 1/y)")
        s = to_sum_of_simple_fractions(t)
        assert len(s) == 5
        assert check_eq(m6, t, s.to_term()).verdict == VALID
        assert check_eq(rationals, t, s.to_term(),
                        Sampled(1000, 0)).verdict == SAMPLED_OK

    def test_mixed_sum_expansion(self, m6):
        t = parse("1/(1 + 1/x)")
        s = to_sum_of_simple_fractions(t)
        rendered = [(print_term(n.to_term()), print_term(d.to_term()))
                    for n, d in s]
        assert rendered == [("1", "1"), ("-x", "x"), ("x*x", "x*x + x")]
        assert check_eq(m6, t, s.to_term()).verdict == VALID

    def test_zero_collapses_to_empty_sum(self):
        assert len(to_sum_of_simple_fractions(ZERO)) == 0
        # a zero numerator polynomial drops its summand outright
        assert len(to_sum_of_simple_fractions(parse("0*x/y"))) == 0
        # cancellation across summands is not attempted
        s = to_sum_of_simple_fractions(parse("x - x"))
        assert len(s) == 2
        assert check_eq(mk(6), s.to_term(), ZERO).verdict == VALID

    def test_inverse_signature_rejected(self):
        from meadow import Inv
        with pytest.raises(MixedSignatureError):
            to_sum_of_simple_fractions(Inv(Var("x")))

    def test_summands_are_simple_fractions(self):
        rng = random.Random(71)
        for _ in range(60):
            t = random_term(rng, 6)
            s = to_sum_of_simple_fractions(t)
            term = s.to_term()
            if s.summands:
                for n, d in s:
                    assert is_simple_fraction(Div(n.to_term(), d.to_term()))
            assert not any(n.is_zero for n, _ in s)

    def test_semantic_property(self, m6, g4, rationals):
        rng = random.Random(72)
        for _ in range(60):
            t = random_term(rng, 6)
            s = to_sum_of_simple_fractions(t).to_term()
            assert check_eq(m6, t, s).verdict == VALID, print_term(t)
            if len(variables(t)) <= 2:
                assert check_eq(g4, t, s).verdict == VALID, print_term(t)
            assert check_eq(rationals, t, s,
                            Sampled(300, 0)).verdict == SAMPLED_OK, \
                print_term(t)


def _unshared_term(s):
    """The sum of fractions rendered with a fresh object for every node."""
    def poly(p):
        acc = None
        for m, c in p.terms:
            factors = [ONE if abs(c) == 1 else mk_numeral(abs(c))] \
                if abs(c) != 1 or not m else []
            for v, e in m:
                factors += [Var(v)]
                for _ in range(e - 1):
                    factors[-1] = Mul(factors[-1], Var(v))
            mono = factors[0]
            for f in factors[1:]:
                mono = Mul(mono, f)
            mono = Neg(mono) if c < 0 else mono
            acc = mono if acc is None else Add(acc, mono)
        return ZERO if acc is None else acc

    acc = None
    for n, d in s:
        part = Div(poly(n), poly(d))
        acc = part if acc is None else Add(acc, part)
    return ZERO if acc is None else acc


def test_rendered_sum_shares_factors_with_unchanged_text_and_json():
    rng = random.Random(1400)
    for _ in range(40):
        s = to_sum_of_simple_fractions(random_term(rng, 6))
        shared, plain = s.to_term(), _unshared_term(s)
        assert print_term(shared) == print_term(plain)
        assert _dumps(term_to_data(shared)) == _dumps(term_to_data(plain))
    s = to_sum_of_simple_fractions(parse("1/(2/(x*x) + 2/(y*x))"))
    nodes = list(iter_subterms(s.to_term()))
    for kind in (Var, Mul, Add):
        objects = [n for n in nodes if isinstance(n, kind)]
        assert len({id(n) for n in objects}) < len(objects), kind
    xs = {id(n) for n in nodes if n == Var("x")}
    twos = {id(n) for n in nodes if n == mk_numeral(2)}
    assert len(xs) == len(twos) == 1


class TestLowerBound:
    def test_single_fraction_candidate_refuted(self, rationals):
        lhs = parse("1/x + 1/y")
        candidate = parse("(y + x)/(x*y)")
        at_zero = {"x": Fraction(0), "y": Fraction(1)}
        assert eval_term(rationals, lhs, at_zero) == 1
        assert eval_term(rationals, candidate, at_zero) == 0
        report = check_eq(rationals, lhs, candidate, Sampled(2000, 0))
        assert report.verdict == REFUTED

    def test_decomposition_needs_at_least_two_summands(self):
        s = to_sum_of_simple_fractions(parse("1/x + 1/y"))
        assert len(s) >= 2


class TestFalsifier:
    def test_constructed_witness_for_trivial_claim(self):
        one = UniPoly.constant("x", 1)
        q = falsify_simple_fraction_claim(one, one)
        assert q == Fraction(1, 3)
        assert 1 + 1 / q != 1

    def test_agreeing_pair_fails_exactly_at_zero(self):
        x = UniPoly.identity("x")
        one = UniPoly.constant("x", 1)
        assert falsify_simple_fraction_claim(x + one, x) == 0

    def test_constant_mismatch_detected_at_zero(self):
        one = UniPoly.constant("x", 1)
        two = UniPoly.constant("x", 2)
        assert falsify_simple_fraction_claim(two, one) == 0

    def test_witness_always_verifies(self):
        rng = random.Random(73)
        for _ in range(150):
            f = UniPoly.make(
                "x", [rng.randint(-6, 6) for _ in range(rng.randint(1, 4))]
            )
            g = UniPoly.make(
                "x", [rng.randint(-6, 6) for _ in range(rng.randint(1, 4))]
            )
            q = falsify_simple_fraction_claim(f, g)
            lhs = 1 + (Fraction(1) / q if q != 0 else Fraction(0))
            g_val = g.eval_exact(q)
            rhs = f.eval_exact(q) / g_val if g_val != 0 else Fraction(0)
            assert lhs != rhs, (f.coeffs, g.coeffs, q)


class TestGuardIdentities:
    def test_names(self):
        names = [name for name, _, _ in guard_identities()]
        assert names == ["guard_idempotent", "dead_branch_vanishes",
                         "guarded_reciprocal_single",
                         "guarded_reciprocal_pair"]

    def test_valid_everywhere(self, all_models):
        for model in all_models:
            strategy = None if model.is_finite else Sampled(2000, 0)
            for name, lhs, rhs in guard_identities():
                report = check_eq(model, lhs, rhs, strategy)
                assert report.verdict in (VALID, SAMPLED_OK), \
                    (model.name, name, report.counterexample)


@settings(max_examples=50, deadline=None)
@given(st.integers(-60, 60), st.integers(-60, 60))
def test_q0_fraction_of_numeral_quotient(a, b):
    t = Div(mk_numeral(a), mk_numeral(b))
    f = closed_to_simple_fraction_q0(t)
    if b == 0:
        assert f == SimpleClosedFraction(1, 0, 1)
    else:
        assert f.as_fraction() == Fraction(a, b)
