import random
from fractions import Fraction

import numpy as np
import pytest

from meadow import (
    Add, Div, Inv, Mul, ONE, Var, ZERO,
    CarrierTooLargeError, CheckReport, Exhaustive, InfiniteExhaustiveError,
    NonSquareFreeError, NotPrimeError, REFUTED, RationalMeadow, SAMPLED_OK,
    Sampled, UnboundVariableError, VALID,
    characteristic, check_eq, crt_decompose, derived_division_identities,
    division_axioms, eval_term, gf, inverse_axioms, mk, mk_numeral,
    model_from_spec, parse, q0, ring_axioms,
)
from meadow.models import MAX_TABLE_CARRIER, _op_tables

x = Var("x")
y = Var("y")


def _assert_suite_holds(model, suite, strategy=None):
    for name, lhs, rhs in suite:
        report = check_eq(model, lhs, rhs, strategy)
        assert report.verdict in (VALID, SAMPLED_OK), (model.name, name, report)


class TestAxiomSuites:
    def test_finite_models_satisfy_all_axioms(self, finite_models):
        suites = (ring_axioms() + division_axioms() + inverse_axioms()
                  + derived_division_identities())
        for model in finite_models:
            _assert_suite_holds(model, suites, Exhaustive())

    def test_rationals_satisfy_all_axioms_sampled(self, rationals):
        suites = (ring_axioms() + division_axioms() + inverse_axioms()
                  + derived_division_identities())
        _assert_suite_holds(rationals, suites, Sampled(2000, 0))

    def test_suite_names_are_unique(self):
        names = [n for n, _, _ in
                 ring_axioms() + division_axioms() + inverse_axioms()
                 + derived_division_identities()]
        assert len(names) == len(set(names)) == 19


class TestRationals:
    def test_division_is_total(self, rationals):
        assert rationals.div(Fraction(3), Fraction(0)) == 0
        assert rationals.div(Fraction(3), Fraction(2)) == Fraction(3, 2)

    def test_eval_pinned_values(self, rationals):
        assert eval_term(rationals, parse("1 + 1/2")) == Fraction(3, 2)
        assert eval_term(rationals, parse("1/0")) == 0

    def test_element_io(self, rationals):
        assert rationals.parse_element("-3/4") == Fraction(-3, 4)
        assert rationals.format_element(Fraction(3, 2)) == "3/2"

    def test_infinite_carrier_guards(self, rationals):
        assert not rationals.is_finite
        with pytest.raises(InfiniteExhaustiveError):
            rationals.size
        with pytest.raises(InfiniteExhaustiveError):
            check_eq(rationals, x, x, Exhaustive())


class TestModular:
    def test_carrier_and_ops(self, m6):
        assert m6.carrier == list(range(6))
        assert m6.add(5, 3) == 2
        assert m6.neg(2) == 4
        assert m6.mul(4, 5) == 2

    def test_weak_inverse_laws(self, m6, m30):
        for model in (m6, m30):
            for b in model.carrier:
                w = model.weak_inverse[b]
                assert model.mul(model.mul(b, w), b) == b
                assert model.mul(model.mul(w, b), w) == w

    def test_division_by_zero(self, m6):
        assert all(m6.div(a, 0) == 0 for a in m6.carrier)

    def test_non_square_free_rejected(self):
        for k in (4, 9, 12, 18):
            with pytest.raises(NonSquareFreeError) as err:
                mk(k)
            assert err.value.k == k

    def test_modulus_lower_bound(self):
        with pytest.raises(ValueError):
            mk(1)

    def test_prime_case_is_field_division(self, m5):
        # on a prime carrier the weak inverse is the field inverse
        for b in range(1, 5):
            assert m5.mul(b, m5.weak_inverse[b]) == 1

    def test_element_io(self, m6):
        assert m6.parse_element("4") == 4
        with pytest.raises(ValueError):
            m6.parse_element("6")
        assert m6.format_element(4) == "4"


class TestCrt:
    def test_decomposition_of_30(self):
        dec = crt_decompose(30)
        assert dec.primes == (2, 3, 5)
        assert [f.k for f in dec.factors] == [2, 3, 5]
        for v in range(30):
            assert dec.from_components(dec.to_components(v)) == v

    def test_division_matches_componentwise(self, m30):
        dec = crt_decompose(30)
        for a in range(30):
            for b in range(30):
                parts = [
                    f.div(a % p, b % p)
                    for f, p in zip(dec.factors, dec.primes)
                ]
                assert m30.div(a, b) == dec.from_components(parts)

    def test_rejects_square_factors(self):
        with pytest.raises(NonSquareFreeError):
            crt_decompose(12)

    def test_weak_inverses_match_search(self):
        # The construction takes componentwise field inverses; the search
        # takes the definition b*w*b = b, w*b*w = w literally.
        square_free = 0
        for k in range(2, 101):
            found = [[w for w in range(k)
                      if b * w * b % k == b and w * b * w % k == w]
                     for b in range(k)]
            if all(k % (d * d) for d in range(2, 11)):
                square_free += 1
                assert [[w] for w in mk(k).weak_inverse] == found, k
            else:
                assert [] in found, k
                with pytest.raises(NonSquareFreeError) as err:
                    mk(k)
                assert err.value.k == k
        assert square_free == 60


def _brute_force_tables(model):
    """The op tables straight from the element operations, pair by pair."""
    elems = [model.element_at(i) for i in range(model.size)]
    index = {e: i for i, e in enumerate(elems)}

    def table(op):
        return np.array([[index[op(a, b)] for b in elems] for a in elems],
                        dtype=np.int64)

    neg = np.array([index[model.neg(a)] for a in elems], dtype=np.int64)
    return table(model.add), table(model.mul), neg, table(model.div)


class TestOpTables:
    EXTRA = ("gf:2^3", "gf:2^5", "gf:3^3", "gf:5^2", "gf:7^2", "mk:210")

    def test_match_element_operations(self, finite_models):
        models = finite_models + [model_from_spec(s) for s in self.EXTRA]
        for model in models:
            for got, want in zip(_op_tables(model), _brute_force_tables(model)):
                assert got.dtype == want.dtype == np.int64, model.name
                assert got.shape == want.shape, model.name
                assert got.flags.c_contiguous, model.name
                assert np.array_equal(got, want), model.name

    def test_gf256_against_element_operations(self):
        g = gf(2, 8)
        assert g.modulus == (1, 0, 0, 0, 1, 1, 0, 1, 1)
        assert g.generator == (0, 1, 0, 0, 0, 0, 0, 0)
        assert g.carrier[:4] == [(0,) * 8, (1,) + (0,) * 7,
                                 (0, 1) + (0,) * 6, (1, 1) + (0,) * 6]
        add, mul, neg, div = _op_tables(g)
        assert [add.shape, mul.shape, neg.shape, div.shape] == [
            (256, 256), (256, 256), (256,), (256, 256)]
        at = g.element_at
        assert all(at(int(neg[i])) == g.neg(at(i)) for i in range(256))
        rng = random.Random(8)
        for _ in range(5000):
            i, j = rng.randrange(256), rng.randrange(256)
            a, b = at(i), at(j)
            assert at(int(add[i, j])) == g.add(a, b)
            assert at(int(mul[i, j])) == g.mul(a, b)
            assert at(int(div[i, j])) == g.div(a, b)

    def test_carrier_bound(self):
        big = gf(2, 12)
        assert big.size == 4096 > MAX_TABLE_CARRIER
        with pytest.raises(CarrierTooLargeError) as err:
            check_eq(big, x, x, Exhaustive())
        assert str(err.value).startswith("gf:2^12 has 4096 elements")
        assert "--samples" in str(err.value)
        assert not hasattr(big, "_op_tables")
        report = check_eq(big, x * x, x, Sampled(50, 0))
        assert report.verdict == REFUTED


class TestGalois:
    def test_gf4_construction(self, g4):
        assert g4.modulus == (1, 1, 1)
        assert g4.carrier == [(0, 0), (1, 0), (0, 1), (1, 1)]
        assert g4.generator == (0, 1)
        # the generator squares to its successor: a^2 = a + 1
        assert g4.mul(g4.generator, g4.generator) == (1, 1)

    def test_gf9_construction(self, g9):
        assert g9.modulus == (1, 0, 1)
        assert g9.size == 9
        # a^2 = -1 = 2 under x^2 + 1
        assert g9.mul(g9.generator, g9.generator) == (2, 0)

    def test_prime_field_degenerate_case(self):
        g3 = gf(3, 1)
        assert g3.size == 3
        assert [g3.index_of(e) for e in g3.carrier] == [0, 1, 2]
        m3 = mk(3)
        for a in g3.carrier:
            for b in g3.carrier:
                got = g3.div(a, b)
                want = m3.div(g3.index_of(a), g3.index_of(b))
                assert g3.index_of(got) == want

    def test_division_by_zero(self, g4):
        assert all(g4.div(e, g4.zero) == g4.zero for e in g4.carrier)

    @pytest.mark.parametrize("p, n", [(2, 1), (3, 1), (2, 2), (3, 2), (2, 8)])
    def test_generator_is_root_of_modulus(self, p, n):
        g = gf(p, n)
        acc = g.zero
        for c in reversed(g.modulus):
            acc = g.add(g.mul(acc, g.generator), g.of_int(c))
        assert acc == g.zero

    def test_field_inverses(self, g9):
        for e in g9.carrier:
            if e == g9.zero:
                continue
            assert g9.mul(e, g9.div(g9.one, e)) == g9.one

    def test_not_prime_rejected(self):
        with pytest.raises(NotPrimeError) as err:
            gf(4, 2)
        assert err.value.p == 4
        with pytest.raises(ValueError):
            gf(2, 0)

    def test_element_io(self, g4):
        assert g4.format_element((1, 1)) == "a + 1"
        assert g4.format_element((0, 0)) == "0"
        assert g4.parse_element("a + 1") == (1, 1)
        assert g4.parse_element("0") == (0, 0)
        g9 = gf(3, 2)
        assert g9.format_element((2, 2)) == "2*a + 2"


class TestEvalTerm:
    def test_numerals(self, m6):
        assert eval_term(m6, mk_numeral(10)) == 4
        assert eval_term(m6, mk_numeral(-1)) == 5

    def test_assignment(self, m6):
        t = parse("x*y + 1")
        assert eval_term(m6, t, {"x": 2, "y": 3}) == 1

    def test_unbound_variable(self, m6):
        with pytest.raises(UnboundVariableError) as err:
            eval_term(m6, x)
        assert err.value.name == "x"

    def test_inversive_terms_translate(self, rationals):
        assert eval_term(rationals, Inv(mk_numeral(2))) == Fraction(1, 2)
        assert eval_term(rationals, Inv(ZERO)) == 0


class TestCheckEq:
    def test_closed_equation_single_evaluation(self, m6):
        report = check_eq(m6, parse("1 + 1"), parse("2"))
        assert report == CheckReport(VALID, None, 1)

    def test_counterexample_is_lexicographically_least(self, m2, m6, g4):
        r = check_eq(m2, x, Add(x, ONE))
        assert r.verdict == REFUTED and r.counterexample == {"x": 0}
        r = check_eq(m6, Mul(x, y), ZERO)
        assert r.counterexample == {"x": 1, "y": 1}
        r = check_eq(g4, Mul(x, x), x)
        assert r.counterexample == {"x": (0, 1)}

    def test_scalar_sides_broadcast(self, m6):
        report = check_eq(m6, Mul(x, ZERO), ZERO)
        assert report.verdict == VALID
        assert report.evaluations == 6

    def test_sampled_is_deterministic(self, rationals):
        first = check_eq(rationals, Div(x, y), Mul(x, Div(ONE, y)),
                         Sampled(500, 42))
        second = check_eq(rationals, Div(x, y), Mul(x, Div(ONE, y)),
                          Sampled(500, 42))
        assert first == second == CheckReport(SAMPLED_OK, None, 500, 42)

    def test_sampled_refutation_reports_first_failure(self, rationals):
        report = check_eq(rationals, Mul(x, x), x, Sampled(1000, 0))
        assert report.verdict == REFUTED
        assert report.counterexample is not None
        cx = report.counterexample["x"]
        assert cx * cx != cx
        assert 1 <= report.evaluations <= 1000

    def test_inv_sides_are_translated(self, m6):
        report = check_eq(m6, Inv(Inv(x)), x)
        assert report.verdict == VALID

    @pytest.mark.parametrize("count", [0, -5])
    def test_sampled_rejects_counts_below_one(self, count):
        with pytest.raises(ValueError):
            Sampled(count)

    def test_equal_subterms_are_evaluated_once(self):
        calls = []

        class Counting(RationalMeadow):
            def mul(self, a, b):
                calls.append((a, b))
                return a * b

        model = Counting()
        cube = parse("x*x*x")
        assert eval_term(model, Add(cube, parse("x*x*x")), {"x": 2}) == 16
        assert len(calls) == 2
        calls.clear()
        report = check_eq(model, Add(cube, ONE), Add(ONE, parse("x*x*x")),
                          Sampled(3))
        assert report.verdict == SAMPLED_OK
        assert len(calls) == 2 * 3


class TestCharacteristic:
    def test_values(self, rationals, m2, m6, m30, g4, g9):
        assert characteristic(rationals) == 0
        assert characteristic(m2) == 2
        assert characteristic(m6) == 6
        assert characteristic(m30) == 30
        assert characteristic(g4) == 2
        assert characteristic(g9) == 3


class TestModelFromSpec:
    def test_round_trips(self):
        assert model_from_spec("q0").name == "q0"
        assert model_from_spec("mk:6").name == "mk:6"
        assert model_from_spec("gf:2^2").name == "gf:2^2"

    @pytest.mark.parametrize("bad", ["", "m6", "gf:4", "gf:2", "zk:3"])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            model_from_spec(bad)

    def test_propagates_domain_errors(self):
        with pytest.raises(NonSquareFreeError):
            model_from_spec("mk:4")
        with pytest.raises(NotPrimeError):
            model_from_spec("gf:6^1")
