"""The package exports exactly the union of its modules' ``__all__``."""
import meadow
from meadow import (
    errors, models, normal_forms, polynomials, syntax, terms, transforms,
)

MODULES = (errors, models, normal_forms, polynomials, syntax, terms,
           transforms)

# The 98 names the package exported while it kept its own list.
PINNED = {
    "Add", "BasicTerm", "CarrierTooLargeError", "CheckReport",
    "CrtDecomposition", "Div", "ExponentPair", "Exhaustive", "GaloisMeadow",
    "InfiniteCarrierError", "InfiniteExhaustiveError", "Inv", "MeadowError",
    "MeadowModel", "MixedSignatureError", "ModularMeadow", "Monomial", "Mul",
    "MultiPoly", "Neg", "NoWitnessConstructedError", "NonSquareFreeError",
    "NotPolynomialError", "NotPrimeError", "NotRingTermError", "ONE", "One",
    "OpenTermError", "ParseError", "PremiseFailedError", "REFUTED",
    "RationalMeadow", "SAMPLED_OK", "Sampled", "SignatureError",
    "SignedFraction", "SimpleClosedFraction", "SumOfSimpleFractions", "Term",
    "UnboundVariableError", "UniPoly", "VALID", "Var", "ZERO", "Zero",
    "annihilator", "characteristic", "check_eq",
    "closed_to_simple_fraction_q0", "closed_to_simple_fraction_q0_via_basic",
    "constant_over", "contains_div", "contains_inv", "cr_normal",
    "crt_decompose", "degree_over", "derived_division_identities",
    "division_axioms", "eliminate_division", "eval_term",
    "falsify_simple_fraction_claim", "find_annihilating_exponents", "gf",
    "guard", "guard_identities", "inverse_axioms", "is_basic_term",
    "is_closed", "is_divisive", "is_fraction", "is_inversive",
    "is_simple_fraction", "iter_subterms", "mk", "mk_numeral",
    "model_from_spec", "non_trivial_over", "numeral_value", "parse", "power",
    "print_term", "q0", "render_basic", "ring_axioms", "roots_over",
    "substitute", "term_from_data", "term_to_data", "tidy", "to_basic",
    "to_canonical", "to_divisive", "to_inversive", "to_simple_fraction_finite",
    "to_sum_of_simple_fractions", "variables", "verified_annihilator",
    "wrap_as_fraction",
}
ADDED = {"fold", "product", "render_quotient", "split_reciprocal",
         "claim_sides"}


def test_all_is_the_union_of_the_modules_lists():
    union = [name for module in MODULES for name in module.__all__]
    assert len(union) == len(set(union))
    assert sorted(meadow.__all__) == sorted(union)


def test_every_export_is_the_modules_own_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(meadow, name) is getattr(module, name), name


def test_exports_are_the_pinned_names_plus_five():
    assert len(PINNED) == 98
    assert set(meadow.__all__) == PINNED | ADDED
    assert len(meadow.__all__) == 103
