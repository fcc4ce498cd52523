"""Normal forms for closed terms: sums of signed numeral fractions.

Every closed term in the division signature equals, in all shipped
models, a sum of summands +-(n/m) with n, m >= 1 integer numerals (the
empty sum standing for 0).  ``to_basic`` computes such a form by
structural induction; ``cr_normal`` is the division-free special case
where the whole term collapses to one signed integer.

The rewrites used here are exactly the ones that hold in every
zero-totalized field: totalized reciprocals distribute over products and
swap over single fractions, and summands whose denominators share one
square-free kernel may be put over a common denominator.  General
fraction merging and gcd cancellation are deliberately absent from
``to_basic`` because finite models refute them; ``tidy`` offers them as
a separate pass that re-verifies every instance semantically.

The reciprocal of a sum is the guard case-split ``split_reciprocal``.
It and the pairwise ``product`` work on (numerator, denominator) pairs
over any coefficient ring: ``to_basic`` folds integer pairs, sign in
the numerator, and ``transforms.to_sum_of_simple_fractions`` polynomial
pairs.
"""
from __future__ import annotations

import functools
import math
from fractions import Fraction

from .errors import NotRingTermError, OpenTermError
from .terms import (
    Add, Div, Inv, Mul, Neg, One, Term, ZERO, _Record, _require_divisive,
    contains_div, contains_inv, fold, is_closed, mk_numeral,
)

__all__ = [
    "SignedFraction", "BasicTerm",
    "to_basic", "is_basic_term",
    "split_reciprocal", "product",
    "cr_normal", "guard", "tidy",
]


class SignedFraction(_Record):
    """One summand +-(num/den); num and den stay at least 1."""

    __slots__ = ("sign", "num", "den")

    def _validate(self):
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        if self.num < 1 or self.den < 1:
            raise ValueError("numerator and denominator must be positive")

    def negate(self) -> "SignedFraction":
        return SignedFraction(-self.sign, self.num, self.den)

    def as_fraction(self) -> Fraction:
        """Value in the rationals; other characteristics may disagree."""
        return Fraction(self.sign * self.num, self.den)

    def to_term(self, numeral=mk_numeral) -> Term:
        """-(n/m) or n/m, each integer spelled by ``numeral``."""
        body = Div(numeral(self.num), numeral(self.den))
        return Neg(body) if self.sign < 0 else body

    def eval_in(self, model):
        """Value of ``to_term()`` in ``model``, as a one-summand sum's."""
        return BasicTerm((self,)).eval_in(model)


class BasicTerm(_Record):
    """A sum of signed numeral fractions; no summands means 0."""

    __slots__ = ("summands",)

    def __iter__(self):
        return iter(self.summands)

    def __len__(self):
        return len(self.summands)

    def to_term(self, numeral=mk_numeral) -> Term:
        """The summands added left to right, 0 for none; ``numeral(n)``
        builds each integer's term, a chain unless ``print_result`` asks."""
        if not self.summands:
            return ZERO
        return functools.reduce(Add, [s.to_term(numeral) for s in self])

    def eval_in(self, model):
        """Value of ``to_term()`` in ``model`` without building the term.

        Its numerals can be too large to spell as chains, one node per
        unit, so each goes through ``of_int``; the sum folds the model's
        program ops and is lowered once.
        """
        ops = model._program_ops()
        acc = ops.lift(model.zero)
        for s in self.summands:
            body = ops.div(ops.lift(model.of_int(s.num)),
                           ops.lift(model.of_int(s.den)))
            acc = ops.add(acc, ops.neg(body) if s.sign < 0 else body)
        return ops.lower(acc)

    def q0_value(self) -> Fraction:
        """Value in the rationals, merged left to right by
        n/m + n'/m' = (n*m' + n'*m)/(m*m') and reduced once."""
        num, den = 0, 1
        for s in self.summands:
            num = num * s.den + s.sign * s.num * den
            den *= s.den
        return Fraction(num, den)


def _strip_shared(a: int, b: int) -> int:
    """a with every prime factor it shares with b divided out."""
    while (g := math.gcd(a, b)) > 1:
        a //= g
    return a


def _same_kernel(a: int, b: int) -> bool:
    """True when a and b have the same set of prime factors."""
    return _strip_shared(a, b) == 1 and _strip_shared(b, a) == 1


def _merge_kernels(pairs: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Combine summands (n, d) whose denominators share a square-free kernel.

    Such summands go over the common denominator lcm; this is sound in
    every model because a prime divides one of the denominators exactly
    when it divides all of them, so in any characteristic either every
    term involved is a divide-by-zero (and both sides vanish) or none
    is.  Merging across different kernels is not sound and is never
    done.  A negative denominator moves its sign to the numerator;
    summands that cancel to numerator 0 are dropped; order is by first
    appearance of each kernel.  A list of at most one summand has
    nothing to group, so it only gets the sign move and the drop.
    """
    if len(pairs) < 2:
        return [(-n, -d) if d < 0 else (n, d) for n, d in pairs if n]
    groups: list[list[tuple[int, int]]] = []
    for n, d in pairs:
        if d < 0:
            n, d = -n, -d
        for group in groups:
            if _same_kernel(group[0][1], d):
                group.append((n, d))
                break
        else:
            groups.append([(n, d)])
    out = []
    for group in groups:
        den = math.lcm(*(d for _, d in group))
        num = sum(n * (den // d) for n, d in group)
        if num != 0:
            out.append((num, den))
    return out


def split_reciprocal(divisor: list, one) -> list:
    """Summands (numerator, denominator) for 1/(sum of the divisor's).

    Generic over the coefficient ring: ``one`` is its unit, the integer
    1 for closed basic forms or the constant polynomial 1 for sums of
    polynomial fractions.  No single fraction works in all models, so
    the result case-splits on which denominators vanish: for each
    candidate set S of surviving indices the sum collapses to N_S / D_S
    with D_S the product of the S-denominators and N_S the matching
    numerator sum, and the indicator of "exactly S survives" is a
    product of guards g/g and complements 1 - g/g.  Expanding the
    complements over subsets T of the complement of S and folding each
    guard product into the fraction gives plain summands

        (-1)^|T| * (G*D_S) / (G*N_S),   G = product of dens in S u T.

    Denominators equal to ``one`` never vanish, so sets S that drop them
    are skipped, and so are sets whose N_S is zero: their summands
    divide by 0, which every model evaluates to 0.  Summand count is
    bounded by 3^n for n divisor summands.
    """
    nums = [f for f, _ in divisor]
    dens = [g for _, g in divisor]
    zero = one - one
    forced = [i for i, g in enumerate(dens) if g == one]
    free = [i for i, g in enumerate(dens) if g != one]
    out = []
    for s_bits in range(1 << len(free)):
        survivors = forced + [i for b, i in enumerate(free) if s_bits >> b & 1]
        if not survivors:
            continue
        survivors.sort()
        d_s = math.prod((dens[i] for i in survivors), start=one)
        n_s = sum((math.prod((dens[j] for j in survivors if j != i),
                             start=nums[i]) for i in survivors), zero)
        if n_s == zero:
            continue
        rest = [i for i in free if i not in survivors]
        for t_bits in range(1 << len(rest)):
            extra = [i for b, i in enumerate(rest) if t_bits >> b & 1]
            g_u = math.prod((dens[i] for i in survivors + extra), start=one)
            num = g_u * d_s
            out.append((-num if len(extra) % 2 else num, g_u * n_s))
    return out


def product(left: list, right: list) -> list:
    """Pairwise products of two summand lists (numerator, denominator)."""
    return [(f1 * f2, g1 * g2) for f1, g1 in left for f2, g2 in right]


def _basic_div(num: list, den: list) -> list:
    den = _merge_kernels(den)
    if len(den) == 1:  # one summand swaps, s/(n/m) = s/(m/n), everywhere
        inverse = [(d, n) for n, d in den]
    else:
        inverse = split_reciprocal(den, 1)
    return _merge_kernels(product(_merge_kernels(num), inverse))


_BASIC = {
    Add: lambda left, right: left + right,
    Neg: lambda arg: [(-n, d) for n, d in arg],
    Mul: lambda left, right: _merge_kernels(
        product(_merge_kernels(left), _merge_kernels(right))),
    Div: _basic_div,
}


def to_basic(p: Term) -> BasicTerm:
    """Basic form of a closed term in the division signature; a term
    with ``inv`` raises MixedSignatureError.

    The result evaluates identically to p in every shipped model.  Sums
    concatenate, negation flips signs, products multiply pairwise, and
    division multiplies by the inverted divisor list; products and
    quotients also merge summands sharing a denominator kernel, which
    keeps intermediate lists short.  Fractions are not reduced and
    unlike-denominator summands are never combined; see ``tidy``.

    Summands are (numerator, denominator) integer pairs until the end.
    Cost is dominated by inverting many-summand divisors (see
    ``split_reciprocal``); terms whose divisors merge to a handful of
    summands transform quickly.
    """
    if not is_closed(p):
        raise OpenTermError("basic forms exist for closed terms only")
    _require_divisive(p)
    pairs = fold(p, lambda node, n: [(n, 1)] if n else [], _BASIC)
    return BasicTerm(tuple(SignedFraction(1 if n > 0 else -1, abs(n), d)
                           for n, d in pairs))


# is_basic_term folds a term to its shape: the integer of a numeral,
# "fraction" for n/m with numerals n, m >= 1, "sum" for another basic
# term, None for one that is not basic.
_BASIC_SHAPES = (0, "fraction", "sum")
_SHAPE = {
    Add: lambda left, right: (
        "sum" if left in _BASIC_SHAPES and right in _BASIC_SHAPES else None),
    Neg: lambda arg: "sum" if arg == "fraction" else None,
    Div: lambda num, den: (
        "fraction" if type(num) is type(den) is int and num > 0 and den > 0
        else None),
    Mul: lambda left, right: None,
    Inv: lambda arg: None,
}


def is_basic_term(t: Term) -> bool:
    """Whether t is literally a sum built from 0 and signed numeral
    fractions n/m, -(n/m) with n, m >= 1 (any association of +)."""
    # the constant 1 is not the numeral 0 + 1
    shape = fold(t, lambda node, n: None if isinstance(node, One) else n,
                 _SHAPE)
    return shape in _BASIC_SHAPES


def cr_normal(p: Term) -> int:
    """The integer a closed ring term (no division) evaluates to.

    mk_numeral of the result equals p in every model.
    """
    if contains_div(p) or contains_inv(p):
        raise NotRingTermError("the term uses division")
    if not is_closed(p):
        raise OpenTermError("no numeral form for open terms")

    return fold(p, lambda node, n: n,
                {Add: int.__add__, Mul: int.__mul__, Neg: int.__neg__})


def guard(r: Term) -> Term:
    """r/r: evaluates to 1 where r is invertible and 0 where r vanishes.

    Idempotent under product in every model, and absorbs into any
    context it multiplies: (r/r) * C[s] equals (r/r) * C[(r/r) * s].
    An r with ``inv`` raises MixedSignatureError.
    """
    _require_divisive(r)
    return Div(r, r)


def tidy(b: BasicTerm, finite_model=None) -> BasicTerm:
    """Sorted, instance-verified cosmetic cleanup of a basic term.

    Summands are sorted by (den, -sign, num); reordering is sound
    everywhere since addition is commutative and associative.  Each
    summand with gcd(num, den) > 1 is replaced by the reduced fraction
    only if the replacement evaluates identically in one finite model
    (default: the square-free modulus 6); only a finite model can refuse,
    since in the rationals the reduction is the same number.  That check
    is per-instance, not a proof: a reduction it accepts can still fail
    in some other model, which is why ``to_basic`` never reduces.
    """
    from .models import mk

    finite = finite_model if finite_model is not None else mk(6)
    out = []
    for s in b.summands:
        g = math.gcd(s.num, s.den)
        if g > 1:
            reduced = SignedFraction(s.sign, s.num // g, s.den // g)
            if s.eval_in(finite) == reduced.eval_in(finite):
                s = reduced
        out.append(s)
    out.sort(key=lambda f: (f.den, -f.sign, f.num))
    return BasicTerm(tuple(out))
