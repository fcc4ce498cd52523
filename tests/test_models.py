import itertools
import math
import operator
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from meadow import (
    Add, Div, Inv, Mul, Neg, ONE, Var, ZERO,
    CarrierTooLargeError, CheckReport, Exhaustive, InfiniteExhaustiveError,
    NonSquareFreeError, NotPrimeError, REFUTED, SAMPLED_OK,
    Sampled, UnboundVariableError, VALID,
    characteristic, check_eq, crt_decompose, derived_division_identities,
    division_axioms, eval_term, gf, inverse_axioms, mk, mk_numeral,
    model_from_spec, parse, power, q0, ring_axioms,
    to_simple_fraction_finite, to_sum_of_simple_fractions, variables,
)
from meadow import models
from meadow.models import (
    MAX_TABLE_CARRIER, _PAIR_OPS, _WIDE, _first_irreducible, _op_tables,
)
from meadow.terms import fold

from gen import random_term

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

    def test_weak_inverses_are_built_with_the_op_tables(self):
        m30 = mk(30)
        assert m30.div(7, 11) == 7 * 11 % 30  # 11 is its own inverse mod 30
        assert "weak_inverse" not in vars(m30)
        assert check_eq(m30, parse("x*(1/x)*x"), x).verdict == VALID
        assert len(vars(m30)["weak_inverse"]) == 30

    def test_division_builds_no_weak_inverse_table(self):
        m = mk(1048573)
        w = m.div(1, 3)
        assert "weak_inverse" not in vars(m)
        assert 3 * w % m.k == 1


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


def _first_irreducible_by_products(p, n):
    """The first monic degree-n polynomial over F_p, ordered by its
    low-to-high coefficient tuple, that is no product of two monic
    polynomials of lower degree."""
    def monic(d):
        return [tail + (1,) for tail in itertools.product(range(p), repeat=d)]

    def times(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
        return tuple(out)

    reducible = {times(a, b) for d in range(1, n // 2 + 1)
                 for a in monic(d) for b in monic(n - d)}
    return next(c for c in monic(n) if c not in reducible)


class TestIrreducibleModulus:
    def test_matches_search_over_products(self):
        primes = [p for p in range(2, 4097)
                  if all(p % d for d in range(2, int(p ** 0.5) + 1))]
        checked = 0
        for p in primes:
            n = 1
            while p ** n <= 4096:
                assert _first_irreducible(p, n) == \
                    _first_irreducible_by_products(p, n), (p, n)
                checked += 1
                n += 1
        assert checked == len(primes) + 40

    def test_search_skips_multiples_of_x(self, monkeypatch):
        calls = []
        is_irreducible = models._is_irreducible

        def counting(poly, p):
            calls.append(poly)
            return is_irreducible(poly, p)

        monkeypatch.setattr(models, "_is_irreducible", counting)
        assert _first_irreducible(2, 16) == (
            1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1, 0, 1, 1)
        assert all(poly[0] for poly in calls)
        assert len(calls) <= 100  # 32 790 when all of a_0 = 0 is tried first


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

    def test_carrier_is_built_on_first_use(self):
        g = gf(2, 20)
        assert g.size == 2 ** 20 and g.is_finite
        assert eval_term(g, x * x + ONE, {"x": g.generator}) == g.element_at(5)
        assert g.parse_element("a") == g.generator
        report = check_eq(g, x * y, y * x, Sampled(count=50, seed=3))
        assert report.verdict == SAMPLED_OK
        assert "carrier" not in vars(g)
        # sampling draws the element at a uniform index, carrier or not
        first, second = random.Random(5), random.Random(5)
        g9 = gf(3, 2)
        for _ in range(20):
            assert (g.random_element(first)
                    == g.element_at(second.randrange(2 ** 20)))
            assert (g9.random_element(first)
                    == g9.carrier[second.randrange(len(g9.carrier))])

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


class TestFiniteBase:
    def test_carrier_is_listed_only_when_read(self):
        tracemalloc.start()
        try:
            m = mk(1048573)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, peak
        assert eval_term(m, ONE / (ONE + ONE)) == 524287
        assert check_eq(m, x * y, y * x, Sampled(50, 3)).verdict == SAMPLED_OK
        assert "carrier" not in vars(m)
        m6 = mk(6)
        assert "carrier" not in vars(m6)
        assert m6.carrier == list(range(6)) and "carrier" in vars(m6)

    def test_carrier_lists_the_elements_in_index_order(self, finite_models):
        for model in finite_models:
            assert model.carrier == [model.element_at(i)
                                     for i in range(model.size)]

    def test_sampling_draws_a_uniform_index(self, finite_models):
        for model in finite_models + [mk(1048573), gf(2, 11)]:
            for seed in range(10):
                assert (model.random_element(random.Random(seed))
                        == model.element_at(
                            random.Random(seed).randrange(model.size)))


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

    def test_unbound_variable_is_the_first_reached_and_nothing_runs(self):
        calls = []

        def counted(name, op):
            def run(*args):
                calls.append(name)
                return op(*args)
            return run

        class Counting(models.RationalMeadow):
            def _program_ops(self):
                return _PAIR_OPS._replace(**{
                    name: counted(name, op)
                    for name, op in _PAIR_OPS._asdict().items()})

        t = parse("y + x")
        for model in (q0(), Counting()):
            with pytest.raises(UnboundVariableError) as err:
                eval_term(model, t, {"z": Fraction(1)})
            assert err.value.name == "y"
        assert calls == []
        assert eval_term(Counting(), t, {"x": 1, "y": Fraction(1, 2)}) == 1.5
        assert "add" in calls and "lower" in calls

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

    def test_unknown_strategy_is_type_error(self, m6):
        with pytest.raises(TypeError, match="unknown strategy 'exhaustive'"):
            check_eq(m6, x, x, "exhaustive")

    @pytest.mark.parametrize("count", [0, -5])
    def test_sampled_rejects_counts_below_one(self, count):
        with pytest.raises(ValueError):
            Sampled(count)

    def test_equal_subterms_are_evaluated_once(self):
        calls = []

        class Counting(models.ModularMeadow):
            def mul(self, a, b):
                calls.append((a, b))
                return super().mul(a, b)

        model = Counting(101)
        cube = parse("x*x*x")
        assert eval_term(model, Add(cube, parse("x*x*x")), {"x": 2}) == 16
        assert len(calls) == 2
        calls.clear()
        report = check_eq(model, Add(cube, ONE), Add(ONE, parse("x*x*x")),
                          Sampled(3))
        assert report.verdict == SAMPLED_OK
        assert len(calls) == 2 * 3


def _brute_force_check(model, lhs, rhs):
    """Verdict and counterexample from eval_term on every assignment, in
    lexicographic order over the carrier with variables in name order."""
    names = sorted(set(variables(lhs)) | set(variables(rhs)))
    for values in itertools.product(model.carrier, repeat=len(names)):
        env = dict(zip(names, values))
        if eval_term(model, lhs, env) != eval_term(model, rhs, env):
            return REFUTED, env
    return VALID, None


def _no_tables(model):
    raise AssertionError(f"op tables of {model.name} built")


class TestChunkedSweep:
    def test_matches_brute_force_on_every_finite_model(self, finite_models):
        rng = random.Random(2718)
        for model in finite_models:
            names = ("x", "y") if model.size > 9 else ("x", "y", "z")
            terms = [random_term(rng, 4, names=names) for _ in range(12)]
            verdicts = []
            for lhs, other in zip(terms, terms[1:] + terms[:1]):
                same = to_simple_fraction_finite(model, lhs)
                for rhs in (same, Add(same, ONE), other):
                    report = check_eq(model, lhs, rhs)
                    assert (report.verdict, report.counterexample) == \
                        _brute_force_check(model, lhs, rhs), \
                        (model.name, lhs, rhs)
                    count = len(set(variables(lhs)) | set(variables(rhs)))
                    assert report.evaluations == model.size ** count
                    verdicts.append(report.verdict)
            assert set(verdicts) == {VALID, REFUTED}, model.name

    @pytest.mark.parametrize("lhs, rhs, witness", [
        ("a + b + c + d", "b + c + d", {"a": 1, "b": 0, "c": 0, "d": 0}),
        ("a*d + b + c", "b + c", {"a": 1, "b": 0, "c": 0, "d": 1}),
        ("b*e + c + d + a", "a + c + d",
         {"a": 0, "b": 1, "c": 0, "d": 0, "e": 1}),
    ])
    def test_least_counterexample_outside_the_first_chunk(self, m30, lhs,
                                                          rhs, witness):
        # a chunk holds the last three variables over mk:30
        assert 30 ** 3 <= models.SWEEP_CHUNK < 30 ** 4
        lhs, rhs = parse(lhs), parse(rhs)
        report = check_eq(m30, lhs, rhs)
        assert report == CheckReport(REFUTED, witness, 30 ** len(witness))
        assert _brute_force_check(m30, lhs, rhs) == (REFUTED, witness)

    def test_memory_is_bounded_by_the_chunk(self, m30):
        lhs = parse("(a + b)*(c + d + e)")
        rhs = parse("a*c + a*d + a*e + b*c + b*d + b*e")
        _op_tables(m30)
        tracemalloc.start()
        try:
            report = check_eq(m30, lhs, rhs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report == CheckReport(VALID, None, 30 ** 5)
        assert peak < 16 << 20, peak

    def test_oversized_sweep_is_refused_before_tables(self, monkeypatch):
        monkeypatch.setattr(models.GaloisMeadow, "_build_tables", _no_tables)
        g = gf(2, 8)
        lhs, rhs = parse("a+b+c+d+e+f+g"), parse("g+f+e+d+c+b+a")
        with pytest.raises(CarrierTooLargeError) as err:
            check_eq(g, lhs, rhs)
        assert str(err.value) == (
            "gf:2^8 has 256 elements, so 7 variables give "
            f"{256 ** 7} assignments, more than the {1 << 30} that "
            "exhaustive checking sweeps: check by sampling instead "
            "(--strategy sampled --samples N)")
        assert not hasattr(g, "_op_tables")
        assert check_eq(g, lhs, rhs, Sampled(20)).verdict == SAMPLED_OK

    def test_six_variables_over_mk30_are_within_the_bound(self, m30):
        # read first: without the chunked sweep this check needs GBs
        assert 30 ** 6 <= models.MAX_ASSIGNMENTS
        lhs = parse("a + b + c + d + e + f")
        report = check_eq(m30, lhs, Add(lhs, ONE))
        assert report == CheckReport(REFUTED, dict.fromkeys("abcdef", 0),
                                     30 ** 6)


class TestCharacteristic:
    def test_values(self, rationals, m2, m6, m30, g4, g9):
        assert characteristic(rationals) == 0
        assert characteristic(m2) == 2
        assert characteristic(m6) == 6
        assert characteristic(m30) == 30
        assert characteristic(g4) == 2
        assert characteristic(g9) == 3


def test_characteristic_matches_counting():
    # the least k >= 1 with 1 + ... + 1 (k ones) = 0, counted out
    for model in [mk(k) for k in (2, 3, 5, 6, 7, 10, 30, 210)] + \
            [gf(2, 1), gf(2, 3), gf(3, 2), gf(5, 2)]:
        acc, count = model.one, 1
        while acc != model.zero:
            acc, count = model.add(acc, model.one), count + 1
        assert characteristic(model) == count, model.name


class TestModelFromSpec:
    def test_round_trips(self):
        assert model_from_spec("q0").name == "q0"
        assert model_from_spec("mk:6").name == "mk:6"
        assert model_from_spec("gf:2^2").name == "gf:2^2"

    @pytest.mark.parametrize("bad", ["", "m6", "gf:4", "gf:2", "zk:3"])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            model_from_spec(bad)

    @pytest.mark.parametrize("bad", [
        "mk:", "mk:x", "mk:6^2", "gf:2^x", "gf:2^", "gf:2^3^4", "gf:4", "zk:3",
    ])
    def test_malformed_specifier_is_named(self, bad):
        with pytest.raises(ValueError) as err:
            model_from_spec(bad)
        assert str(err.value) == (f"bad model specifier {bad!r}: "
                                  "expected q0, mk:<k> or gf:<p>^<n>")

    def test_propagates_domain_errors(self):
        with pytest.raises(NonSquareFreeError):
            model_from_spec("mk:4")
        with pytest.raises(NotPrimeError):
            model_from_spec("gf:6^1")

    def test_carrier_bound(self):
        # at most 2^20 elements; the size is checked before any O(q) work
        for spec in ("mk:1048577", "mk:99999999977", "gf:2^21",
                     "gf:1031^2", "gf:99999999977^1", "gf:2^99999999999"):
            with pytest.raises(CarrierTooLargeError) as err:
                model_from_spec(spec)
            assert str(err.value).startswith(f"{spec} has ")
        with pytest.raises(NonSquareFreeError):
            model_from_spec("mk:1048576")
        assert model_from_spec("gf:2^16").size == 65536
        # cheap argument checks keep their errors
        with pytest.raises(ValueError, match="modulus must be at least 2"):
            model_from_spec("mk:1")
        for spec in ("gf:2^0", "gf:2^-1"):
            with pytest.raises(ValueError, match="extension degree"):
                model_from_spec(spec)
        with pytest.raises(NotPrimeError):
            model_from_spec("gf:4^1")


# -- q0 programs on integer pairs, against a Fraction reference -------------

def _fraction_div(a, b):
    return Fraction(0) if b == 0 else a / b


def _reciprocal(a):
    return _fraction_div(Fraction(1), a)


def _reference_program(*terms):
    """The terms folded into one list of steps run with Fraction arithmetic
    and x/0 = 0, equal steps once; calling the result with an assignment
    gives each term's value."""
    steps, index = [], {}

    def emit(op, a, b=None):
        i = index.setdefault((op, a, b), len(steps))
        if i == len(steps):
            steps.append((op, a, b))
        return i

    ops = {Add: lambda a, b: emit(operator.add, a, b),
           Mul: lambda a, b: emit(operator.mul, a, b),
           Div: lambda a, b: emit(_fraction_div, a, b),
           Neg: lambda a: emit(operator.neg, a),
           Inv: lambda a: emit(_reciprocal, a)}
    outputs = [fold(t, lambda node, n: emit(None, node.name) if n is None
                    else emit(None, None, Fraction(n)), ops) for t in terms]

    def run(env):
        values = []
        for op, a, b in steps:
            if op is None:
                values.append(env[a] if a is not None else b)
            elif b is None:
                values.append(op(values[a]))
            else:
                values.append(op(values[a], values[b]))
        return [values[i] for i in outputs]
    return run


def _reference_check(lhs, rhs, strategy):
    run = _reference_program(lhs, rhs)
    names = sorted(set(variables(lhs)) | set(variables(rhs)))
    rng, draw = random.Random(strategy.seed), q0().random_element
    for i in range(strategy.count):
        env = {name: draw(rng) for name in names}
        left, right = run(env)
        if left != right:
            return CheckReport(REFUTED, env, i + 1, strategy.seed)
    return CheckReport(SAMPLED_OK, None, strategy.count, strategy.seed)


@pytest.fixture(scope="module")
def c07_pairs():
    """The c07 corpus with each term's rendered sum of fractions."""
    rng = random.Random(1400)
    terms = [random_term(rng, 6, names=("x", "y", "z")) for _ in range(200)]
    return [(t, to_sum_of_simple_fractions(t).to_term()) for t in terms]


def _cycled_sum(n):
    """x + x/2 + ... + x/6 + x + x/2 + ..., n summands."""
    nums = [mk_numeral(k) for k in range(7)]
    t = x
    for i in range(1, n):
        k = i % 6 + 1
        t = Add(t, x if k == 1 else Div(x, nums[k]))
    return t


class TestPairEvaluator:
    @pytest.mark.parametrize("count, seed", [(20, 7), (1000, 0)])
    def test_c07_reports_match_fraction_reference(self, c07_pairs, rationals,
                                                  count, seed):
        strategy = Sampled(count, seed)
        for t, rendered in c07_pairs:
            for rhs in (rendered, Add(rendered, ONE)):
                assert check_eq(rationals, t, rhs, strategy) \
                    == _reference_check(t, rhs, strategy)

    @pytest.mark.parametrize("build", [
        lambda: _cycled_sum(64_000),
        lambda: power(x, 20_000),
        lambda: power(Add(x, ONE), 20_000),
        lambda: power(Add(Div(ONE, Add(x, ONE)), Div(x, mk_numeral(3))), 2000),
    ], ids=["cycled_sum", "x_power", "x_plus_1_power", "mixed_power"])
    def test_large_values_are_exact(self, rationals, build):
        t = build()
        run = _reference_program(t)
        for value in (Fraction(3, 7), Fraction(0)):
            got = eval_term(rationals, t, {"x": value})
            assert type(got) is Fraction
            assert got == run({"x": value})[0]

    def test_counterexamples_are_fractions(self, rationals):
        report = check_eq(rationals, Div(x, y), Add(Div(x, y), ONE),
                          Sampled(5, 3))
        assert report.verdict == REFUTED
        assert all(type(v) is Fraction for v in report.counterexample.values())

    @pytest.mark.parametrize("text, env", [
        ("x/(y - y)", {"x": Fraction(-2, 3), "y": Fraction(5)}),
        ("(-x)/(-y)", {"x": Fraction(-2, 3), "y": Fraction(-14, 9)}),
        ("-x/y + x/y", {"x": Fraction(-2, 3), "y": Fraction(-14, 9)}),
        # an unreduced pair (d = 6) with a numerator past 2**64, inverted
        ("1/(x^40*y*z)", {"x": 6, "y": Fraction(2, 3), "z": Fraction(3, 2)}),
        # reduced wide pairs meeting unreduced narrow ones
        ("x^30 + y*z", {"x": Fraction(3, 7), "y": Fraction(2, 3),
                        "z": Fraction(3, 2)}),
        ("x^30 * (y*z) / (z*y*x^29)", {"x": Fraction(3, 7),
                                       "y": Fraction(2, 3),
                                       "z": Fraction(-3, 2)}),
    ])
    def test_mixed_widths_and_signs(self, rationals, text, env):
        t = parse(text)
        assert eval_term(rationals, t, env) == _reference_program(t)(env)[0]

    def test_pair_ops_keep_wide_pairs_in_lowest_terms(self):
        rng = random.Random(5)

        def pair():
            # narrow pairs may be unreduced, wide ones are in lowest terms
            if rng.random() < 0.5:
                g = rng.randint(1, 50)
                return (rng.randint(-10 ** rng.randint(0, 40), 10 ** 40) * g,
                        rng.randint(1, 2 ** 50) * g)
            f = Fraction(rng.randint(-2 ** 100, 2 ** 100),
                         rng.randint(2 ** 64, 2 ** 100))
            return f.numerator, f.denominator

        ops = _PAIR_OPS
        for _ in range(3000):
            a, b = pair(), pair()
            fa, fb = ops.lower(a), ops.lower(b)
            for op, want in ((ops.add, fa + fb), (ops.mul, fa * fb),
                             (ops.div, fa / fb if fb else Fraction(0))):
                n, d = op(a, b)
                assert d > 0 and Fraction(n, d) == want
                assert d < _WIDE or math.gcd(n, d) == 1
            assert ops.same(a, ops.lift(fa))
            assert not ops.same(a, ops.add(a, (1, 1)))
