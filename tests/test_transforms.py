import math
import random
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from meadow import (
    Add, Div, Mul, Neg, ONE, Var, ZERO,
    CarrierTooLargeError, ExponentPair, InfiniteCarrierError,
    MixedSignatureError, OpenTermError,
    REFUTED, SAMPLED_OK, Sampled, SimpleClosedFraction, UniPoly, VALID,
    check_eq, claim_sides, closed_to_simple_fraction_q0,
    closed_to_simple_fraction_q0_via_basic, contains_div, eliminate_division,
    eval_term, falsify_simple_fraction_claim, find_annihilating_exponents,
    gf, guard_identities, is_simple_fraction, mk, mk_numeral, parse,
    iter_subterms, power, print_term, q0, term_to_data, to_canonical,
    to_simple_fraction_finite,
    to_sum_of_simple_fractions, variables,
)
from meadow.cli import _dumps
from meadow.polynomials import MultiPoly
from meadow.transforms import _merge_equal_denominators

from gen import random_open_terms, random_term


class TestSimpleClosedFraction:
    def test_lowest_terms_enforced(self):
        with pytest.raises(ValueError):
            SimpleClosedFraction(1, 4, 6)
        with pytest.raises(ValueError):
            SimpleClosedFraction(-1, 0, 1)

    @pytest.mark.parametrize("sign, num, den, message", [
        (0, 1, 2, "sign must be"), (2, 1, 2, "sign must be"),
        (1, -1, 2, "num must be >= 0"), (1, 1, 0, "den >= 1"),
    ])
    def test_sign_and_range_enforced(self, sign, num, den, message):
        with pytest.raises(ValueError, match=message):
            SimpleClosedFraction(sign, num, den)

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


def _least_pair_by_search(model) -> ExponentPair:
    """The least (n, m), ordered by n then m, with x**n = x**m on the
    whole carrier, read off a table of the carrier's powers."""
    carrier = list(model.carrier)
    powers = [None, tuple(carrier)]  # powers[e][i] = carrier[i] ** e
    while True:
        powers.append(tuple(model.mul(v, x)
                            for v, x in zip(powers[-1], carrier)))
        n = len(powers) - 1
        for m in range(1, n):
            if powers[n] == powers[m]:
                return ExponentPair(n, m)


def _square_free(k: int) -> bool:
    return all(k % (d * d) for d in range(2, math.isqrt(k) + 1))


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
        # a prime field is also a modular model; the two closed forms,
        # q - 1 and lcm(p - 1) over the primes of k, must give one pair
        assert find_annihilating_exponents(gf(5, 1)) == \
            find_annihilating_exponents(mk(5))

    def test_modular_closed_form_matches_search(self):
        square_free = [k for k in range(2, 101) if _square_free(k)]
        assert len(square_free) == 60
        for k in square_free:
            model = mk(k)
            assert find_annihilating_exponents(model) == \
                _least_pair_by_search(model), k

    @pytest.mark.parametrize("p,n", [(2, 1), (2, 2), (2, 3), (2, 4),
                                     (3, 1), (3, 2), (3, 3), (5, 2), (7, 2)])
    def test_galois_closed_form_matches_search(self, p, n):
        model = gf(p, n)
        assert find_annihilating_exponents(model) == \
            _least_pair_by_search(model)

    def test_pair_needs_no_table_of_powers(self):
        # a table of the powers of all 2003 residues takes over 100 MB
        model = mk(2003)
        tracemalloc.start()
        try:
            pair = find_annihilating_exponents(model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert pair == ExponentPair(2003, 1)
        assert peak < 1 << 20, peak

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
        with pytest.raises(InfiniteCarrierError,
                           match="^q0 admits no uniform power identity$"):
            eliminate_division(rationals, parse("1/x"))

    @pytest.mark.parametrize("model, e", [(gf(2, 20), 2 ** 21 - 3),
                                          (mk(1048573), 2 * 1048572 - 1)],
                             ids=["gf:2^20", "mk:1048573"])
    def test_power_above_the_parser_bound_is_refused(self, model, e):
        # each reciprocal would become a product of about 2 million factors
        start = time.perf_counter()
        with pytest.raises(CarrierTooLargeError) as info:
            to_simple_fraction_finite(model, parse("1/x + 1/(x + 1)"))
        assert time.perf_counter() - start < 1
        assert str(info.value) == (
            f"{model.name} rewrites 1/x as x^{e}, a power above the "
            "x^100000 that the parser expands")

    def test_many_divisions_above_the_parser_bound_are_refused(self):
        # each division becomes its own product of 99 995 factors
        model = mk(49999)
        start = time.perf_counter()
        with pytest.raises(CarrierTooLargeError) as info:
            to_simple_fraction_finite(model, parse("1/a + 1/b + 1/c"))
        assert time.perf_counter() - start < 1
        assert str(info.value) == (
            "mk:49999 rewrites 3 divisions as powers x^99995, 299985 "
            "factors in all, more than the 100000 that the parser expands")
        assert eliminate_division(model, parse("1/a")) == power(Var("a"),
                                                                99995)


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
        assert len(s) == 4
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
        # x/1 and -x/1 share a denominator, merge, and cancel to nothing
        s = to_sum_of_simple_fractions(parse("x - x"))
        assert len(s) == 0
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


PINNED_DIVISIONS = (
    "1/(1/2+1/3)", "1/(x/2 + 3/y + z)", "1/(1/x)", "1/(1/x + 1/y)",
    "1/(x - x)", "1/(1 + 2)", "(x+1)/(x/y - y/x + 1)", "1/(2/x + 3/x)",
    "1/(x/2 - x/2 + 1/y)", "x/(1/(1/x + y))")


def _reciprocal_of_reciprocals(k):
    return parse("1/(" + " + ".join(f"1/x{i}" for i in range(k)) + ")")


class TestMergedSummands:
    """Summands with equal denominator polynomials are added up."""

    @pytest.fixture(scope="class")
    def decomposed(self):
        rng = random.Random(1400)
        terms = [random_term(rng, 6, names=("x", "y", "z")) for _ in range(200)]
        terms += [parse(text) for text in PINNED_DIVISIONS]
        return [(t, to_sum_of_simple_fractions(t)) for t in terms]

    def test_equal_to_the_input_in_every_model(self, decomposed,
                                               finite_models, rationals):
        for t, s in decomposed:
            out = s.to_term()
            for model in finite_models:
                assert check_eq(model, t, out).verdict == VALID, \
                    (model.name, print_term(t))
            assert check_eq(rationals, t, out,
                            Sampled(1000, 0)).verdict == SAMPLED_OK, \
                print_term(t)

    def test_no_two_summands_share_a_denominator(self, decomposed):
        sums = [s for _, s in decomposed]
        sums += [to_sum_of_simple_fractions(_reciprocal_of_reciprocals(k))
                 for k in range(1, 6)]
        for s in sums:
            dens = [d for _, d in s]
            assert len(set(dens)) == len(dens)
            assert not any(n.is_zero for n, _ in s)
        assert sum(len(s) for s in sums[:200]) == 330  # 1264 unmerged

    def test_pinned_counts(self):
        # unmerged: 3^k - 2^k summands, 1, 5, 19, 65, 211, 665
        assert [len(to_sum_of_simple_fractions(_reciprocal_of_reciprocals(k)))
                for k in range(1, 7)] == [1, 4, 14, 48, 162, 536]
        # unmerged: 10, the two copies' summands side by side
        assert len(to_sum_of_simple_fractions(
            parse("1/(1/x+1/y) + 1/(1/x+1/y)"))) == 4
        s = to_sum_of_simple_fractions(parse("1/(2/x + 3/x)"))
        assert [(print_term(n.to_term()), print_term(d.to_term()))
                for n, d in s] == [("x*x", "5*x")]

    @pytest.mark.parametrize("pairs, merged", [
        ([], []), ([(3, -4)], [(3, -4)]), ([(0, 5)], []),
        ([("x", "y")], [("x", "y")])])
    def test_merging_at_most_one_summand(self, pairs, merged):
        def poly(c):
            return (MultiPoly.variable(c) if isinstance(c, str)
                    else MultiPoly.constant(c))
        pairs = [(poly(f), poly(g)) for f, g in pairs]
        merged = [(poly(f), poly(g)) for f, g in merged]
        assert _merge_equal_denominators(pairs) == merged
        # as grouping gives it: a 0 summand over the same denominator
        # joins the group and leaves the result as it is
        zero = MultiPoly.constant(0)
        for _, g in pairs:
            assert _merge_equal_denominators(pairs + [(zero, g)]) == merged

    def test_unlike_denominators_stay_apart(self, rationals):
        s = to_sum_of_simple_fractions(parse("1/x + 1/y"))
        assert [(print_term(n.to_term()), print_term(d.to_term()))
                for n, d in s] == [("1", "x"), ("1", "y")]
        # the general merge over the product of the denominators is unsound
        report = check_eq(rationals, parse("1/x + 1/y"),
                          parse("(x + y)/(x*y)"), Sampled(1000, 0))
        assert report.verdict == REFUTED
        at = {"x": Fraction(0), "y": Fraction(1)}
        assert eval_term(rationals, s.to_term(), at) == 1
        assert eval_term(rationals, parse("(x + y)/(x*y)"), at) == 0


def _unshared_poly(terms):
    """Polynomial monomials (m, c) rendered with a fresh object per node."""
    acc = None
    for m, c in terms:
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


def _unshared_term(s):
    """The sum of fractions rendered with a fresh object for every node."""
    acc = None
    for n, d in s:
        part = Div(_unshared_poly(n.terms), _unshared_poly(d.terms))
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
    # one-variable polynomials render the same way, high degree first
    rng = random.Random(1401)
    for _ in range(300):
        f = UniPoly.make("x", [rng.randint(-3, 3)
                               for _ in range(rng.randint(0, 6))])
        monomials = [((("x", i),) if i else (), c)
                     for i, c in enumerate(f.coeffs) if c][::-1]
        assert f.to_term() == _unshared_poly(monomials), f


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


class TestClaimSides:
    # (f, g, the rational roots of g)
    CASES = [("1", "1", []), ("x + 1", "x", [0]), ("0", "x*x + 1", []),
             ("x*x - 4", "2*x - 3", [Fraction(3, 2)]),
             ("3*x*x + 1", "x*x - x", [0, 1]), ("0", "1 - x", [1])]

    @pytest.mark.parametrize("f_text, g_text, roots", CASES)
    def test_sides_match_the_evaluator(self, rationals, f_text, g_text, roots):
        f = to_canonical(parse(f_text), "x")
        g = to_canonical(parse(g_text), "x")
        lhs_term = parse("1 + 1/x")
        rhs_term = Div(f.to_term(), g.to_term())
        rng = random.Random(2024)
        points = [Fraction(0), *map(Fraction, roots)] + [
            Fraction(rng.randint(-50, 50), rng.randint(1, 30))
            for _ in range(20)]
        assert all(g.eval_exact(r) == 0 for r in roots)
        for q in points:
            assert claim_sides(f, g, q) == (
                eval_term(rationals, lhs_term, {"x": q}),
                eval_term(rationals, rhs_term, {"x": q})), q


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
