import random
import re
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from meadow import (
    Add, Div, Mul, Neg, ONE, Var, ZERO,
    InfiniteCarrierError, MultiPoly, NotPolynomialError, PremiseFailedError,
    UniPoly,
    annihilator, constant_over, degree_over, eval_term, gf, mk, mk_numeral,
    non_trivial_over, parse, print_term, q0, roots_over, to_canonical,
    verified_annihilator,
)

from gen import random_ring_term


def upoly(*coeffs, var="x"):
    return UniPoly.make(var, coeffs)


class TestUniPoly:
    def test_make_normalizes(self):
        assert upoly(1, 2, 0, 0).coeffs == (1, 2)
        assert upoly(0).coeffs == ()
        assert upoly().is_zero

    def test_constructors(self):
        assert UniPoly.constant("x", 5).coeffs == (5,)
        assert UniPoly.identity("x").coeffs == (0, 1)

    def test_coefficient_is_total(self):
        f = upoly(1, 2)
        assert f.coefficient(0) == 1
        assert f.coefficient(7) == 0

    def test_arithmetic(self):
        f = upoly(1, 1)          # 1 + x
        g = upoly(-1, 1)         # -1 + x
        assert (f * g).coeffs == (-1, 0, 1)
        assert (f + g).coeffs == (0, 2)
        assert (f - f).is_zero
        assert (-f).coeffs == (-1, -1)

    def test_mixing_constants_is_fine(self):
        c = UniPoly.constant("y", 3)
        f = upoly(0, 1)
        assert (f + c).variable == "x"
        assert (f + c).coeffs == (3, 1)
        assert (c + f).variable == "x"
        assert (c + f).coeffs == (3, 1)
        with pytest.raises(ValueError):
            upoly(0, 1) * UniPoly.identity("y")

    def test_eval_exact(self):
        f = upoly(1, 0, 1)
        assert f.eval_exact(Fraction(1, 2)) == Fraction(5, 4)
        assert upoly().eval_exact(3) == 0

    def test_eval_in_model(self, m6, g4):
        f = upoly(1, 1)
        assert f.eval_in(m6, 5) == 0
        assert type(f.eval_in(q0(), Fraction(1, 2))) is Fraction
        a = g4.generator
        assert f.eval_in(g4, a) == g4.add(g4.one, a)

    def test_to_term_rendering(self):
        assert print_term(upoly(-1, 0, 1).to_term()) == "x*x - 1"
        assert print_term(upoly(1, 2).to_term()) == "2*x + 1"
        assert print_term(upoly(0, 1, 0, -1).to_term()) == "-(x*x*x) + x"
        assert print_term(upoly(1).to_term()) == "1"
        assert upoly().to_term() == ZERO

    def test_to_term_value_agrees(self, rationals):
        rng = random.Random(61)
        for _ in range(50):
            f = upoly(*[rng.randint(-5, 5) for _ in range(rng.randint(0, 5))])
            v = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            assert eval_term(rationals, f.to_term(), {"x": v}) == f.eval_exact(v)


class TestToCanonical:
    def test_pinned(self):
        assert to_canonical(parse("(x + 1)*(x - 1)"), "x").coeffs == (-1, 0, 1)
        assert to_canonical(parse("x*x + x - x"), "x").coeffs == (0, 0, 1)
        assert to_canonical(parse("3"), "x").coeffs == (3,)
        assert to_canonical(ZERO, "x").is_zero

    def test_numerals_fold(self):
        assert to_canonical(parse("2*x + 3*x"), "x").coeffs == (0, 5)

    def test_rejects_division_and_foreign_variables(self):
        with pytest.raises(NotPolynomialError):
            to_canonical(parse("1/x"), "x")
        with pytest.raises(NotPolynomialError):
            to_canonical(parse("x + y"), "x")

    @pytest.mark.parametrize("text, message", [
        ("x/y", "polynomials are division-free"),
        ("y + x/x", "unexpected variable 'y'; polynomial is in 'x'"),
        ("x*-(z/x) + y", "polynomials are division-free"),
        ("x*(x + z) + y", "unexpected variable 'z'; polynomial is in 'x'"),
    ])
    def test_first_offender_in_preorder_names_the_error(self, text, message):
        with pytest.raises(NotPolynomialError, match=f"^{re.escape(message)}$"):
            to_canonical(parse(text), "x")

    def test_shared_subterms_are_checked_once(self):
        # 60 doublings of x + 1: a tree of 2^62 - 1 nodes, 63 distinct ones
        script = (
            "from meadow import Div, Var, ONE, NotPolynomialError, to_canonical\n"
            "t = Var('x') + ONE\n"
            "for _ in range(60):\n"
            "    t = t + t\n"
            "assert to_canonical(t, 'x').coeffs == (2**60, 2**60)\n"
            "for bad in (Div(t, t), t + Var('y')):\n"
            "    try:\n"
            "        to_canonical(bad, 'x')\n"
            "    except NotPolynomialError:\n"
            "        pass\n"
            "    else:\n"
            "        raise AssertionError(bad)\n"
        )
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr

    def test_round_trip_through_terms(self):
        rng = random.Random(62)
        for _ in range(60):
            t = random_ring_term(rng, 5, names=("x",))
            f = to_canonical(t, "x")
            assert to_canonical(f.to_term(), "x") == f

    def test_inverse_of_eval(self, rationals):
        rng = random.Random(63)
        for _ in range(60):
            t = random_ring_term(rng, 5, names=("x",))
            f = to_canonical(t, "x")
            v = Fraction(rng.randint(-9, 9))
            assert eval_term(rationals, t, {"x": v}) == f.eval_exact(v)


class TestModelRelativeViews:
    def test_degree_drops_vanishing_leaders(self, m2, m3):
        f = upoly(0, 1, 0, 2)        # 2x^3 + x
        assert degree_over(m2, f) == 1
        assert degree_over(q0(), f) == 3

    def test_degree_none_when_all_vanish(self, m3):
        f = upoly(0, 6, 0, 0, 0, 3)  # 3x^5 + 6x
        assert degree_over(m3, f) is None
        assert not non_trivial_over(m3, f)

    def test_constant_over(self, m2):
        assert constant_over(m2, upoly(1, 2, 4))
        assert not constant_over(m2, upoly(0, 1))

    def test_roots_over(self, m6, g4):
        assert roots_over(m6, upoly(0, 1)) == {0}
        # x^2 + x + 1 has the two non-subfield elements as roots in GF(4)
        assert roots_over(g4, upoly(1, 1, 1)) == {(0, 1), (1, 1)}
        assert roots_over(m6, upoly(0, 1, 1)) == {0, 2, 3, 5}

    def test_roots_need_finite_carrier(self):
        with pytest.raises(InfiniteCarrierError):
            roots_over(q0(), upoly(0, 1))


class TestCoefficientZeroLink:
    """All coefficients vanish iff nothing of f survives, on prime-power
    carriers while the degree stays below the carrier size."""

    CASES = [
        ("m2", 1), ("m3", 2), ("m5", 4), ("m7", 4), ("g4", 3), ("g9", 4),
    ]

    @pytest.mark.parametrize("fixture,max_deg", CASES)
    def test_biconditional_under_degree_cap(self, fixture, max_deg, request):
        model = request.getfixturevalue(fixture)
        rng = random.Random(64)
        for _ in range(200):
            deg = rng.randint(0, max_deg)
            f = upoly(*[rng.randint(-6, 6) for _ in range(deg + 1)])
            all_vanish = all(
                model.of_int(c) == model.zero for c in f.coeffs
            )
            identically_zero = all(
                f.eval_in(model, v) == model.zero for v in model.carrier
            )
            assert all_vanish == identically_zero, (model.name, f.coeffs)
            assert non_trivial_over(model, f) == (not all_vanish)

    def test_vanishing_coeffs_always_suffice(self, finite_models):
        # one direction needs no degree cap and no primality
        for model in finite_models:
            k = 0 if not hasattr(model, "k") else model.k
            f = upoly(*[k * c for c in (1, -2, 3)]) if k else upoly(0)
            assert all(
                f.eval_in(model, v) == model.zero for v in model.carrier
            )

    def test_cap_is_tight_for_m2(self, m2):
        # x^2 + x vanishes on the whole carrier with nonzero coefficients
        f = upoly(0, 1, 1)
        assert non_trivial_over(m2, f)
        assert roots_over(m2, f) == {0, 1}

    def test_fails_without_primality(self, m6):
        # x(x-1)(x-2)(x-3)(x-4)(x-5) mod 6: identically zero, coeffs not
        f = upoly(1)
        for r in range(6):
            f = f * upoly(-r, 1)
        assert non_trivial_over(m6, f)
        assert roots_over(m6, f) == set(range(6))


class TestAnnihilator:
    def test_pinned_coefficients(self):
        x = UniPoly.identity("x")
        one = UniPoly.constant("x", 1)
        assert annihilator(x + one, one).coeffs == (0, 1, 0, -1)
        assert annihilator(x, one).coeffs == (0, 1, 1, -1)
        assert annihilator(one, one).coeffs == (0, 1)

    def test_verified_in_m2(self, m2):
        x = UniPoly.identity("x")
        one = UniPoly.constant("x", 1)
        h = verified_annihilator(m2, x + one, one)
        assert h.coeffs == (0, 1, 0, -1)
        assert roots_over(m2, h) == {0, 1}
        assert non_trivial_over(m2, h)
        # the linear coefficient is g(0)^2 = 1, so h survives mod 2
        assert h.coefficient(1) == 1

    def test_premise_failure_wrong_candidate(self, m2):
        one = UniPoly.constant("x", 1)
        with pytest.raises(PremiseFailedError):
            verified_annihilator(m2, one, one)

    def test_premise_failure_vanishing_g0(self, m2):
        x = UniPoly.identity("x")
        one = UniPoly.constant("x", 1)
        # 1 + 1/x = (x+1)/x fails at x = 0 (1 vs 0), and g(0) = 0 too
        with pytest.raises(PremiseFailedError):
            verified_annihilator(m2, x + one, x)


class TestMultiPoly:
    def test_constants_and_variables(self):
        assert MultiPoly.constant(0).is_zero
        assert MultiPoly.constant(1).is_one
        assert MultiPoly.variable("x").variables() == ("x",)

    def test_arithmetic_and_ordering(self):
        x = MultiPoly.variable("x")
        y = MultiPoly.variable("y")
        p = (x + y) * (x + y)
        assert p == x * x + MultiPoly.constant(2) * x * y + y * y
        # descending graded-lex rendering
        assert print_term(p.to_term()) == "x*x + 2*x*y + y*y"

    def test_cancellation(self):
        x = MultiPoly.variable("x")
        assert (x - x).is_zero
        assert (x * x - x * x).to_term() == ZERO

    def test_eval_exact(self):
        x = MultiPoly.variable("x")
        y = MultiPoly.variable("y")
        p = x * y + MultiPoly.constant(-3)
        assert p.eval_exact({"x": Fraction(2), "y": Fraction(5)}) == 7

    def test_to_term_value_agrees(self, m6):
        rng = random.Random(65)
        x, y = MultiPoly.variable("x"), MultiPoly.variable("y")
        basis = [x, y, MultiPoly.constant(2), x * y, y * y]
        p = MultiPoly.constant(0)
        for q in basis:
            if rng.random() < 0.8:
                p = p + q
        for a in range(6):
            for b in range(6):
                want = p.eval_exact({"x": a, "y": b}) % 6
                got = eval_term(m6, p.to_term(), {"x": a, "y": b})
                assert got == m6.of_int(int(want))

    def test_unit_and_zero_operands(self):
        x, y = MultiPoly.variable("x"), MultiPoly.variable("y")
        one, zero = MultiPoly.constant(1), MultiPoly.constant(0)
        for p in (x * y + MultiPoly.constant(-3), x, one, zero):
            assert p * one == one * p == p
            assert p + zero == zero + p == p
        p = x * y + MultiPoly.constant(-3)
        assert p * one is p and one * p is p
        assert p + zero is p and zero + p is p

    def test_constant_rendering(self):
        assert print_term(MultiPoly.constant(1).to_term()) == "1"
        assert print_term(MultiPoly.constant(-2).to_term()) == "-2"
        assert MultiPoly.constant(0).to_term() == ZERO


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-9, 9), max_size=5),
       st.lists(st.integers(-9, 9), max_size=5),
       st.fractions(min_value=-20, max_value=20))
def test_unipoly_ring_homomorphism(cs, ds, v):
    f, g = upoly(*cs), upoly(*ds)
    assert (f + g).eval_exact(v) == f.eval_exact(v) + g.eval_exact(v)
    assert (f * g).eval_exact(v) == f.eval_exact(v) * g.eval_exact(v)
    assert (-f).eval_exact(v) == -f.eval_exact(v)
