"""Fraction transformations and their limits, made executable.

Four constructions live here:

* ``closed_to_simple_fraction_q0`` -- over the rationals every closed
  term collapses to one reduced fraction; computed by exact evaluation
  and, as a cross-check, by folding the basic form with the merge rule
  that is valid in characteristic zero.
* ``eliminate_division`` / ``to_simple_fraction_finite`` -- a finite
  model satisfies x**n = x**m for some least pair, which turns every
  reciprocal into a power: 1/q = q**(2(n-m)-1).  Division disappears,
  so any term becomes a simple fraction over that model.
* ``to_sum_of_simple_fractions`` -- with variables present, no single
  fraction suffices across models; instead any term in the division
  signature becomes a finite sum of polynomial fractions, case-split
  by guards over which denominators vanish.
* ``falsify_simple_fraction_claim`` -- for any claimed polynomial
  fraction equal to 1 + 1/x over the rationals, constructs an exact
  rational point refuting the claim.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    InfiniteCarrierError, MixedSignatureError, NoWitnessConstructedError,
    OpenTermError,
)
from .models import GaloisMeadow, eval_term, q0
from .normal_forms import to_basic
from .polynomials import MultiPoly, _poly_term
from .terms import (
    Add, Div, Inv, Mul, Neg, One, Term, Var, ZERO, ONE,
    contains_inv, fold, is_closed, mk_numeral, power, wrap_as_fraction,
)

__all__ = [
    "SimpleClosedFraction",
    "closed_to_simple_fraction_q0", "closed_to_simple_fraction_q0_via_basic",
    "ExponentPair", "find_annihilating_exponents",
    "eliminate_division", "to_simple_fraction_finite",
    "SumOfSimpleFractions", "to_sum_of_simple_fractions",
    "falsify_simple_fraction_claim", "guard_identities",
]


@dataclass(frozen=True)
class SimpleClosedFraction:
    """A closed fraction n/m in lowest terms, sign carried separately.

    num = 0 forces sign + and den = 1, so zero has one spelling.  The
    rendered term keeps division outermost: negatives become (-n)/m.
    """

    sign: int
    num: int
    den: int

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        if self.num < 0 or self.den < 1:
            raise ValueError("num must be >= 0 and den >= 1")
        if math.gcd(self.num, self.den) != 1 and self.num != 0:
            raise ValueError("fraction must be in lowest terms")
        if self.num == 0 and (self.sign != 1 or self.den != 1):
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

    Folds the basic form left to right with the characteristic-zero
    merge n/m + n'/m' = (n*m' + n'*m)/(m*m'), then reduces once at the
    end.  Shipped as an independent path so the two implementations
    audit each other in the tests.
    """
    basic = to_basic(p)
    num, den = 0, 1
    for s in basic.summands:
        num = num * s.den + s.sign * s.num * den
        den = den * s.den
    return SimpleClosedFraction.from_fraction(Fraction(num, den))


@dataclass(frozen=True)
class ExponentPair:
    """Exponents n > m >= 1 with x**n = x**m across a model's carrier."""

    n: int
    m: int

    def __post_init__(self):
        if not self.n > self.m >= 1:
            raise ValueError("need n > m >= 1")


def find_annihilating_exponents(model) -> ExponentPair:
    """Least (n, m), ordered by n then m, with x**n = x**m everywhere.

    Finite carriers only; existence follows because the power maps
    x -> x**k repeat eventually.  Field extensions short-cut to
    (order, 1), which the search provably returns anyway (the unit
    group is cyclic of order q - 1).
    """
    if not model.is_finite:
        raise InfiniteCarrierError(
            f"{model.name} admits no uniform power identity"
        )
    if isinstance(model, GaloisMeadow):
        return ExponentPair(model.size, 1)
    carrier = list(model.carrier)
    powers = [None, tuple(carrier)]  # powers[e][i] = carrier[i] ** e
    n = 1
    while True:
        n += 1
        powers.append(tuple(
            model.mul(v, carrier[i]) for i, v in enumerate(powers[n - 1])
        ))
        for m in range(1, n):
            if powers[n] == powers[m]:
                return ExponentPair(n, m)
        if n > model.size ** 2 + 1:
            raise AssertionError(f"power search overran on {model.name}")


def eliminate_division(model, t: Term) -> Term:
    """Rewrite t to a division-free term the model cannot distinguish.

    Innermost first, each p/q becomes p * q**e with e = 2(n-m)-1 from
    the model's exponent pair; e = 1 drops the power wrapper, and a
    dividend of exactly 1 drops the product, so the common shapes stay
    readable.  inv(q) is read as 1/q.
    """
    if not model.is_finite:
        raise InfiniteCarrierError(
            f"cannot eliminate division over {model.name}"
        )
    pair = find_annihilating_exponents(model)
    e = 2 * (pair.n - pair.m) - 1

    def quotient(num: Term, den: Term) -> Term:
        body = den if e == 1 else power(den, e)
        return body if isinstance(num, One) else Mul(num, body)

    return fold(t, lambda node, n: node, {
        Add: Add, Mul: Mul, Neg: Neg,
        Div: quotient, Inv: lambda den: quotient(ONE, den)})


def to_simple_fraction_finite(model, t: Term) -> Term:
    """One simple fraction the model cannot tell from t: elim / 1."""
    return wrap_as_fraction(eliminate_division(model, t))


@dataclass(frozen=True)
class SumOfSimpleFractions:
    """Sum of polynomial fractions; each summand is (numerator, denominator)."""

    summands: tuple[tuple[MultiPoly, MultiPoly], ...]

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


def _invert_fraction_list(
    divisor: list[tuple[MultiPoly, MultiPoly]],
) -> list[tuple[MultiPoly, MultiPoly]]:
    """Fraction list for 1 / (sum of polynomial fractions).

    Case-splits on which denominators vanish: for each surviving set S
    the sum collapses to N_S / D_S, and the indicator of that event is
    the product of guards g/g over S and complements 1 - g/g outside.
    Expanding complements over subsets T and folding guards in yields
    plain fractions (-1)**|T| * (G * D_S) / (G * N_S) with G the product
    of the S-and-T denominators.  Constant-1 denominators never vanish,
    so sets dropping them are skipped; subsets with identically zero
    N_S contribute fractions with denominator polynomial 0, which every
    model evaluates to 0, and are dropped as well.  Output grows as
    3**n in the summand count n.
    """
    if not divisor:
        return []
    nums = [f for f, _ in divisor]
    dens = [g for _, g in divisor]
    forced = [i for i, g in enumerate(dens) if g.is_one]
    free = [i for i, g in enumerate(dens) if not g.is_one]
    one = MultiPoly.constant(1)
    out: list[tuple[MultiPoly, MultiPoly]] = []
    for s_bits in range(1 << len(free)):
        survivors = forced + [i for b, i in enumerate(free) if s_bits >> b & 1]
        if not survivors:
            continue
        survivors.sort()
        d_s = one
        for i in survivors:
            d_s = d_s * dens[i]
        n_s = MultiPoly.constant(0)
        for i in survivors:
            prod = nums[i]
            for j in survivors:
                if j != i:
                    prod = prod * dens[j]
            n_s = n_s + prod
        if n_s.is_zero:
            continue
        rest = [i for i in free if i not in survivors]
        for t_bits in range(1 << len(rest)):
            extra = [i for b, i in enumerate(rest) if t_bits >> b & 1]
            g_u = one
            for i in survivors + extra:
                g_u = g_u * dens[i]
            num = g_u * d_s
            if len(extra) % 2:
                num = -num
            out.append((num, g_u * n_s))
    return out


def to_sum_of_simple_fractions(t: Term) -> SumOfSimpleFractions:
    """Decompose any term in the division signature, open or closed.

    The rendered sum evaluates identically to t in every model under
    every assignment.  Sums concatenate, negation flips numerators,
    products multiply componentwise, and reciprocals of sums expand by
    the guard case-split in _invert_fraction_list.  Summands whose
    numerator polynomial is identically zero are dropped.
    """
    if contains_inv(t):
        raise MixedSignatureError(
            "decomposition works on the binary-division signature; "
            "translate inv() away first"
        )
    one = MultiPoly.constant(1)

    def leaf(node: Term, n: int | None) -> list[tuple[MultiPoly, MultiPoly]]:
        f = MultiPoly.variable(node.name) if n is None else MultiPoly.constant(n)
        return [] if f.is_zero else [(f, one)]

    def product(left, right) -> list[tuple[MultiPoly, MultiPoly]]:
        return [(f1 * f2, g1 * g2) for f1, g1 in left for f2, g2 in right]

    fractions = fold(t, leaf, {
        Add: lambda left, right: left + right,
        Neg: lambda arg: [(-f, g) for f, g in arg],
        Mul: product,
        Div: lambda num, den: product(num, _invert_fraction_list(den)),
    })
    summands = [(f, g) for f, g in fractions if not f.is_zero]
    return SumOfSimpleFractions(tuple(summands))


def falsify_simple_fraction_claim(f, g) -> Fraction:
    """An exact rational q where 1 + 1/q differs from f(q)/g(q).

    f and g are canonical one-variable polynomials.  If the sides
    already differ at 0 under totalized division, 0 is the witness.
    Otherwise g(0) is nonzero; pick eps small enough that |g| stays
    above |g(0)|/2 on [0, eps] (a coefficient slope bound), overbound
    |f| there by a, and take q below both eps/2 and 1/(ceil(2a/|g(0)|)+1)
    so that 1 + 1/q outgrows the largest value f/g can reach.  The
    returned witness is re-verified by exact evaluation first.
    """

    def lhs(q: Fraction) -> Fraction:
        return Fraction(1) + (Fraction(0) if q == 0 else Fraction(1) / q)

    def rhs(q: Fraction) -> Fraction:
        gv = g.eval_exact(q)
        return Fraction(0) if gv == 0 else f.eval_exact(q) / gv

    zero = Fraction(0)
    if lhs(zero) != rhs(zero):
        return zero
    g0 = abs(Fraction(g.coefficient(0)))
    slope = sum(i * abs(c) for i, c in enumerate(g.coeffs) if i >= 1)
    eps = Fraction(1) if slope == 0 else min(Fraction(1), g0 / (2 * slope))
    bound_f = sum(
        (abs(c) * eps ** i for i, c in enumerate(f.coeffs)), Fraction(0)
    )
    bound_g = g0 / 2
    q = min(eps / 2, Fraction(1, math.ceil(2 * bound_f / g0) + 1))
    if not (lhs(q) > bound_f / bound_g and lhs(q) != rhs(q)):
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
