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
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import MixedSignatureError, NotRingTermError, OpenTermError
from .terms import (
    Add, Div, Inv, Mul, Neg, One, Term, ZERO,
    contains_div, contains_inv, fold, is_closed, mk_numeral,
)

__all__ = [
    "SignedFraction", "BasicTerm",
    "to_basic", "is_basic_term", "render_basic",
    "cr_normal", "guard", "tidy",
]


@dataclass(frozen=True)
class SignedFraction:
    """One summand +-(num/den); num and den stay at least 1."""

    sign: int
    num: int
    den: int

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        if self.num < 1 or self.den < 1:
            raise ValueError("numerator and denominator must be positive")

    def negate(self) -> "SignedFraction":
        return SignedFraction(-self.sign, self.num, self.den)

    def as_fraction(self) -> Fraction:
        """Value in the rationals; other characteristics may disagree."""
        return Fraction(self.sign * self.num, self.den)

    def to_term(self) -> Term:
        body = Div(mk_numeral(self.num), mk_numeral(self.den))
        return Neg(body) if self.sign < 0 else body

    def eval_in(self, model):
        """Value of ``to_term()`` in ``model`` without building the term.

        num and den can be astronomically large after a few nested
        products; materializing them as numeral chains allocates one
        node per unit, so evaluation goes through ``of_int`` directly.
        """
        body = model.div(model.of_int(self.num), model.of_int(self.den))
        return model.neg(body) if self.sign < 0 else body


@dataclass(frozen=True)
class BasicTerm:
    """A sum of signed numeral fractions; no summands means 0."""

    summands: tuple[SignedFraction, ...]

    def __iter__(self):
        return iter(self.summands)

    def __len__(self):
        return len(self.summands)

    def to_term(self) -> Term:
        if not self.summands:
            return ZERO
        acc = self.summands[0].to_term()
        for s in self.summands[1:]:
            acc = Add(acc, s.to_term())
        return acc

    def eval_in(self, model):
        """Value of ``to_term()`` in ``model`` without building the term."""
        if not self.summands:
            return model.zero
        acc = self.summands[0].eval_in(model)
        for s in self.summands[1:]:
            acc = model.add(acc, s.eval_in(model))
        return acc

    def q0_value(self) -> Fraction:
        return sum((s.as_fraction() for s in self.summands), Fraction(0))


def _strip_shared(a: int, b: int) -> int:
    """a with every prime factor it shares with b divided out."""
    while (g := math.gcd(a, b)) > 1:
        a //= g
    return a


def _same_kernel(a: int, b: int) -> bool:
    """True when a and b have the same set of prime factors."""
    return _strip_shared(a, b) == 1 and _strip_shared(b, a) == 1


def _merge_kernels(fractions: list[SignedFraction]) -> list[SignedFraction]:
    """Combine summands whose denominators share a square-free kernel.

    Such summands go over the common denominator lcm; this is sound in
    every model because a prime divides one of the denominators exactly
    when it divides all of them, so in any characteristic either every
    term involved is a divide-by-zero (and both sides vanish) or none
    is.  Merging across different kernels is not sound and is never
    done.  Summands that cancel to numerator 0 are dropped; order is by
    first appearance of each kernel.
    """
    groups: list[list[SignedFraction]] = []
    for f in fractions:
        for group in groups:
            if _same_kernel(group[0].den, f.den):
                group.append(f)
                break
        else:
            groups.append([f])
    out = []
    for group in groups:
        den = math.lcm(*(f.den for f in group))
        num = sum(f.sign * f.num * (den // f.den) for f in group)
        if num != 0:
            out.append(SignedFraction(1 if num > 0 else -1, abs(num), den))
    return out


def _invert(divisor: list[SignedFraction]) -> list[SignedFraction]:
    """Summand list for 1/(sum of the given fractions).

    A single summand s/(n/m) just swaps to s/(m/n); that matches the
    reciprocal laws directly, including every divide-by-zero case.

    For several summands no single fraction works in all models, so the
    result case-splits on which denominators vanish: for each candidate
    set S of surviving indices the sum collapses to N_S / D_S with
    D_S the product of the S-denominators and N_S the matching
    numerator sum, and the indicator of "exactly S survives" is a
    product of guards g/g and complements 1 - g/g.  Expanding the
    complements over subsets T of the complement of S and folding each
    guard product into the fraction gives plain summands

        (-1)^|T| * (G*D_S) / (G*N_S),   G = product of dens in S u T.

    Denominator-1 summands never vanish, so sets S that drop them are
    skipped.  Summand count is bounded by 3^n; callers keep divisor
    lists short by merging first.
    """
    if not divisor:
        return []
    if len(divisor) == 1:
        f = divisor[0]
        return [SignedFraction(f.sign, f.den, f.num)]

    dens = [f.den for f in divisor]
    nums = [f.sign * f.num for f in divisor]
    forced = [i for i, d in enumerate(dens) if d == 1]
    free = [i for i, d in enumerate(dens) if d != 1]
    out: list[SignedFraction] = []
    for s_bits in range(1 << len(free)):
        survivors = forced + [i for b, i in enumerate(free) if s_bits >> b & 1]
        if not survivors:
            continue
        survivors.sort()
        d_s = math.prod(dens[i] for i in survivors)
        n_s = sum(
            nums[i] * math.prod(dens[j] for j in survivors if j != i)
            for i in survivors
        )
        if n_s == 0:
            continue
        rest = [i for i in free if not (i in survivors)]
        for t_bits in range(1 << len(rest)):
            extra = [i for b, i in enumerate(rest) if t_bits >> b & 1]
            g = math.prod(dens[i] for i in survivors + extra)
            sign = (-1) ** len(extra) * (1 if n_s > 0 else -1)
            out.append(SignedFraction(sign, g * d_s, g * abs(n_s)))
    return out


def _product(left: list[SignedFraction],
             right: list[SignedFraction]) -> list[SignedFraction]:
    return [
        SignedFraction(a.sign * b.sign, a.num * b.num, a.den * b.den)
        for a in left
        for b in right
    ]


def _basic_leaf(node: Term, n: int) -> list[SignedFraction]:
    return [SignedFraction(1 if n > 0 else -1, abs(n), 1)] if n else []


def _no_inverse(arg):
    raise MixedSignatureError("to_basic expects the binary-division "
                              "signature; translate inv() away first")


_BASIC = {
    Add: lambda left, right: left + right,
    Neg: lambda arg: [f.negate() for f in arg],
    Mul: lambda left, right: _merge_kernels(
        _product(_merge_kernels(left), _merge_kernels(right))),
    Div: lambda num, den: _merge_kernels(
        _product(_merge_kernels(num), _invert(_merge_kernels(den)))),
    Inv: _no_inverse,
}


def to_basic(p: Term) -> BasicTerm:
    """Basic form of a closed term in the division signature.

    The result evaluates identically to p in every shipped model.  Sums
    concatenate, negation flips signs, products multiply pairwise, and
    division multiplies by the inverted divisor list; products and
    quotients also merge summands sharing a denominator kernel, which
    keeps intermediate lists short.  Fractions are not reduced and
    unlike-denominator summands are never combined; see ``tidy``.

    Cost is dominated by inverting many-summand divisors (see
    ``_invert``); terms whose divisors merge to a handful of summands
    transform quickly.
    """
    if not is_closed(p):
        raise OpenTermError("basic forms exist for closed terms only")
    return BasicTerm(tuple(fold(p, _basic_leaf, _BASIC)))


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


def render_basic(b: BasicTerm) -> str:
    """The text print_term(b.to_term()), spelled from the summands.

    Numerators and denominators cost their digits here, where the term
    would spell each as a numeral chain with one node per unit.
    """
    def operand(n: int) -> str:
        # the numeral 1 is the chain 0 + 1, so a quotient parenthesizes it
        return "(0 + 1)" if n == 1 else str(n)

    parts = []
    for s in b.summands:
        body = f"{operand(s.num)}/{operand(s.den)}"
        if parts:
            parts.append((" + " if s.sign > 0 else " - ") + body)
        else:
            parts.append(body if s.sign > 0 else f"-({body})")
    return "".join(parts) or "0"


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
    """
    if contains_inv(r):
        raise MixedSignatureError("guards are built in the division signature")
    return Div(r, r)


def tidy(b: BasicTerm, finite_model=None) -> BasicTerm:
    """Sorted, instance-verified cosmetic cleanup of a basic term.

    Summands are sorted by (den, -sign, num); reordering is sound
    everywhere since addition is commutative and associative.  Each
    summand with gcd(num, den) > 1 is replaced by the reduced fraction
    only if the replacement evaluates identically in the rationals and
    in one finite model (default: the square-free modulus 6).  That
    check is per-instance, not a proof: a reduction both checks accept
    can still fail in some other model, which is why ``to_basic`` never
    reduces.
    """
    from .models import eval_term, mk, q0

    finite = finite_model if finite_model is not None else mk(6)
    rationals = q0()
    out = []
    for s in b.summands:
        g = math.gcd(s.num, s.den)
        if g > 1:
            reduced = SignedFraction(s.sign, s.num // g, s.den // g)
            same_q0 = (eval_term(rationals, s.to_term())
                       == eval_term(rationals, reduced.to_term()))
            same_finite = (eval_term(finite, s.to_term())
                           == eval_term(finite, reduced.to_term()))
            if same_q0 and same_finite:
                s = reduced
        out.append(s)
    out.sort(key=lambda f: (f.den, -f.sign, f.num))
    return BasicTerm(tuple(out))
