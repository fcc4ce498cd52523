"""Fraction transformations and their limits, made executable.

Four constructions live here:

* ``closed_to_simple_fraction_q0`` -- over the rationals every closed
  term collapses to one reduced fraction; computed by exact evaluation
  and, as a cross-check, by folding the basic form with the merge rule
  that is valid in characteristic zero.
* ``eliminate_division`` / ``to_simple_fraction_finite`` -- a finite
  model satisfies x**n = x**m for the least pair (n, m) = (l + 1, 1),
  l being the model's unit exponent, which turns every reciprocal into
  a power: 1/q = q**(2(n-m)-1).  Division disappears, so any term
  becomes a simple fraction over that model.
* ``to_sum_of_simple_fractions`` -- with variables present, no single
  fraction suffices across models; instead any term in the division
  signature becomes a finite sum of polynomial fractions, case-split
  by guards over which denominators vanish.  The case-split is
  ``normal_forms.split_reciprocal``, shared with ``to_basic``.
* ``falsify_simple_fraction_claim`` -- for any claimed polynomial
  fraction equal to 1 + 1/x over the rationals, constructs an exact
  rational point refuting the claim; ``claim_sides`` evaluates both
  sides of the claim at a point.
"""
from __future__ import annotations

import math
from fractions import Fraction

from .errors import (
    CarrierTooLargeError, InfiniteCarrierError, NoWitnessConstructedError,
    OpenTermError,
)
from .models import eval_term, q0
from .normal_forms import product, split_reciprocal, to_basic
from .polynomials import MultiPoly, _poly_term
from .syntax import _MAX_LITERAL
from .terms import (
    Add, Div, Inv, Mul, Neg, One, Term, Var, ZERO, ONE, _Record, _plan,
    _require_divisive, fold, is_closed, mk_numeral, power, wrap_as_fraction,
)

__all__ = [
    "SimpleClosedFraction",
    "closed_to_simple_fraction_q0", "closed_to_simple_fraction_q0_via_basic",
    "ExponentPair", "find_annihilating_exponents",
    "eliminate_division", "to_simple_fraction_finite",
    "SumOfSimpleFractions", "to_sum_of_simple_fractions",
    "claim_sides", "falsify_simple_fraction_claim", "guard_identities",
]


class SimpleClosedFraction(_Record):
    """A closed fraction n/m in lowest terms, sign carried separately.

    num = 0 forces sign + and den = 1, so zero has one spelling.  The
    rendered term keeps division outermost: negatives become (-n)/m.
    """

    __slots__ = ("sign", "num", "den")

    def _validate(self):
        sign, num, den = self.sign, self.num, self.den
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        if num < 0 or den < 1:
            raise ValueError("num must be >= 0 and den >= 1")
        if math.gcd(num, den) != 1 and num != 0:
            raise ValueError("fraction must be in lowest terms")
        if num == 0 and (sign != 1 or den != 1):
            raise ValueError("zero is spelled +0/1")

    @classmethod
    def from_fraction(cls, value: Fraction) -> "SimpleClosedFraction":
        if value == 0:
            return cls(1, 0, 1)
        sign = 1 if value > 0 else -1
        return cls(sign, abs(value.numerator), value.denominator)

    def as_fraction(self) -> Fraction:
        return Fraction(self.sign * self.num, self.den)

    def to_term(self) -> Term:
        return Div(mk_numeral(self.sign * self.num), mk_numeral(self.den))


def closed_to_simple_fraction_q0(p: Term) -> SimpleClosedFraction:
    """The one reduced fraction a closed term equals over the rationals.

    Computed by exact evaluation; other models may disagree with the
    result, which is the whole point of the finite and sum-of-fraction
    transforms.
    """
    if not is_closed(p):
        raise OpenTermError("only closed terms collapse to one fraction")
    return SimpleClosedFraction.from_fraction(eval_term(q0(), p))


def closed_to_simple_fraction_q0_via_basic(p: Term) -> SimpleClosedFraction:
    """Same result as closed_to_simple_fraction_q0, by a different route.

    The value of the basic form in the rationals (``BasicTerm.q0_value``),
    which never evaluates p itself.  Shipped as an independent path so
    the two implementations audit each other in the tests.
    """
    return SimpleClosedFraction.from_fraction(to_basic(p).q0_value())


class ExponentPair(_Record):
    """Exponents n > m >= 1 with x**n = x**m across a model's carrier."""

    __slots__ = ("n", "m")

    def _validate(self):
        if not self.n > self.m >= 1:
            raise ValueError("need n > m >= 1")


def find_annihilating_exponents(model) -> ExponentPair:
    """Least (n, m), ordered by n then m, with x**n = x**m everywhere.

    Finite carriers only.  The shipped finite models have no nonzero
    nilpotents, so x**n = x**m with n > m >= 1 holds everywhere exactly
    when the unit exponent l divides n - m; the least pair is (l + 1, 1).
    """
    if not model.is_finite:
        raise InfiniteCarrierError(
            f"{model.name} admits no uniform power identity"
        )
    return ExponentPair(model.unit_exponent + 1, 1)


def eliminate_division(model, t: Term) -> Term:
    """Rewrite t to a division-free term the model cannot distinguish.

    Innermost first, each p/q becomes p * q**e with e = 2(n-m)-1 from
    the model's exponent pair; e = 1 drops the power wrapper, and a
    dividend of exactly 1 drops the product, so the common shapes stay
    readable.  inv(q) is read as 1/q.  Each distinct division builds
    its own power of e factors, so a model and term whose e, or whose
    count of distinct divisions times e, is above the largest power the
    parser expands, x^100000, are refused with CarrierTooLargeError
    before anything is built.
    """
    pair = find_annihilating_exponents(model)
    e = 2 * (pair.n - pair.m) - 1
    if e > _MAX_LITERAL:
        raise CarrierTooLargeError(
            f"{model.name} rewrites 1/x as x^{e}, a power above the "
            f"x^{_MAX_LITERAL} that the parser expands")
    plan = _plan(t)[0]
    if len(plan) * e > _MAX_LITERAL:   # else too few divisions to count
        k = sum(cls is Div or cls is Inv for cls, _, _ in plan)
        if k * e > _MAX_LITERAL:
            raise CarrierTooLargeError(
                f"{model.name} rewrites {k} divisions as powers x^{e}, "
                f"{k * e} factors in all, more than the {_MAX_LITERAL} "
                "that the parser expands")

    def quotient(num: Term, den: Term) -> Term:
        body = den if e == 1 else power(den, e)
        return body if isinstance(num, One) else Mul(num, body)

    return fold(t, lambda node, n: node, {
        Add: Add, Mul: Mul, Neg: Neg,
        Div: quotient, Inv: lambda den: quotient(ONE, den)})


def to_simple_fraction_finite(model, t: Term) -> Term:
    """One simple fraction the model cannot tell from t: elim / 1."""
    return wrap_as_fraction(eliminate_division(model, t))


class SumOfSimpleFractions(_Record):
    """Sum of polynomial fractions; each summand is (numerator, denominator)."""

    __slots__ = ("summands",)

    def __iter__(self):
        return iter(self.summands)

    def __len__(self):
        return len(self.summands)

    def to_term(self) -> Term:
        """The sum as one term.  Its summands share one object per
        distinct coefficient numeral, variable power and polynomial, so
        ``fold`` walks each of those once."""
        if not self.summands:
            return ZERO
        shared: dict = {}
        parts = [Div(_poly_term(n, shared), _poly_term(d, shared))
                 for n, d in self.summands]
        acc = parts[0]
        for part in parts[1:]:
            acc = Add(acc, part)
        return acc


def _merge_equal_denominators(pairs: list) -> list:
    """Summands (numerator, denominator) with equal denominator
    polynomials added up, a/d + b/d = (a + b)/d, which holds in every
    divisive meadow because x/y = x*(1/y) and multiplication distributes.
    Groups whose numerators cancel to 0 are dropped; the rest keep the
    order in which their denominators first appear.  A list of at most
    one summand has nothing to group and only drops a zero numerator."""
    if len(pairs) < 2:
        return [(f, g) for f, g in pairs if not f.is_zero]
    groups: dict[MultiPoly, MultiPoly] = {}
    for f, g in pairs:
        groups[g] = groups[g] + f if g in groups else f
    return [(f, g) for g, f in groups.items() if not f.is_zero]


def to_sum_of_simple_fractions(t: Term) -> SumOfSimpleFractions:
    """Decompose any term in the division signature, open or closed.

    The rendered sum evaluates identically to t in every model under
    every assignment.  Sums concatenate, negation flips numerators,
    products multiply componentwise, and reciprocals of sums expand by
    the guard case-split ``normal_forms.split_reciprocal``, the one
    ``to_basic`` uses, here over polynomials.  A single summand goes
    through the case-split too, so 1/(1/x) becomes x*x/x.

    Every list the fold builds at a sum, product or quotient merges its
    summands with equal denominator polynomials and drops those whose
    numerator polynomial cancels to zero, so no two summands of the
    result share a denominator.  Unlike denominators are never put over
    a common one: 1/x + 1/y = (x + y)/(x*y) fails in q0 at x = 0, y = 1.
    A term with ``inv`` is refused with MixedSignatureError.
    """
    _require_divisive(t)
    one = MultiPoly.constant(1)

    def leaf(node: Term, n: int | None) -> list[tuple[MultiPoly, MultiPoly]]:
        f = MultiPoly.variable(node.name) if n is None else MultiPoly.constant(n)
        return [] if f.is_zero else [(f, one)]

    # A folded list already has distinct denominators and nonzero
    # numerators, so a divisor goes to split_reciprocal as it is.
    merge = _merge_equal_denominators
    return SumOfSimpleFractions(tuple(fold(t, leaf, {
        Add: lambda left, right: merge(left + right),
        Neg: lambda arg: [(-f, g) for f, g in arg],
        Mul: lambda left, right: merge(product(left, right)),
        Div: lambda num, den: merge(product(num, split_reciprocal(den, one))),
    })))


def claim_sides(f, g, q) -> tuple[Fraction, Fraction]:
    """Both sides of the claim 1 + 1/x = f/g at x = q, in q0.

    f and g are one-variable polynomials; the sides are 1 + 1/q and
    f(q)/g(q), computed with q0's own totalized add and div, so either
    quotient is 0 where its divisor is.
    """
    m = q0()
    return (m.add(m.one, m.div(m.one, q)),
            m.div(f.eval_in(m, q), g.eval_in(m, q)))


def falsify_simple_fraction_claim(f, g) -> Fraction:
    """An exact rational q where 1 + 1/q differs from f(q)/g(q).

    f and g are canonical one-variable polynomials, and both sides come
    from ``claim_sides``.  If they already differ at 0, 0 is the
    witness.  Otherwise g(0) is nonzero; pick eps small enough that |g|
    stays above |g(0)|/2 on [0, eps] (a coefficient slope bound),
    overbound |f| there by a, and take q below both eps/2 and
    1/(ceil(2a/|g(0)|)+1) so that 1 + 1/q outgrows the largest value f/g
    can reach.  The sides are compared at that q once more before it is
    returned.
    """
    lhs, rhs = claim_sides(f, g, Fraction(0))
    if lhs != rhs:
        return Fraction(0)
    g0 = abs(Fraction(g.coefficient(0)))
    slope = sum(i * abs(c) for i, c in enumerate(g.coeffs) if i >= 1)
    eps = Fraction(1) if slope == 0 else min(Fraction(1), g0 / (2 * slope))
    bound_f = sum(
        (abs(c) * eps ** i for i, c in enumerate(f.coeffs)), Fraction(0)
    )
    bound_g = g0 / 2
    q = min(eps / 2, Fraction(1, math.ceil(2 * bound_f / g0) + 1))
    lhs, rhs = claim_sides(f, g, q)
    if not (lhs > bound_f / bound_g and lhs != rhs):
        raise NoWitnessConstructedError(
            f"bound chain failed at q = {q} for f = {f}, g = {g}"
        )
    return q


def guard_identities() -> list[tuple[str, Term, Term]]:
    """The guard laws the sum decomposition relies on, as named equations.

    Each is valid in every shipped model; the test suite checks them
    exhaustively on the finite models and by sampling on the rationals.
    """
    x, y, z, w = Var("x"), Var("y"), Var("z"), Var("w")
    e_y = Div(y, y)
    e_w = Div(w, w)
    pair_divisor = Add(Div(x, y), Div(z, w))
    merged = Div(Mul(y, w), Add(Mul(x, w), Mul(z, y)))
    return [
        ("guard_idempotent", Mul(e_y, e_y), e_y),
        ("dead_branch_vanishes",
         Mul(Div(x, y), Add(ONE, Neg(e_y))), ZERO),
        ("guarded_reciprocal_single",
         Mul(e_y, Div(ONE, Div(x, y))), Mul(e_y, Div(y, x))),
        ("guarded_reciprocal_pair",
         Mul(Mul(e_y, e_w), Div(ONE, pair_divisor)),
         Mul(Mul(e_y, e_w), merged)),
    ]
