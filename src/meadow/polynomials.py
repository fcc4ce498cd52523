"""Integer-coefficient polynomials: canonical forms and model-relative facts.

``UniPoly`` is the canonical shape a division-free one-variable term
expands to under the ring laws; coefficients are stored low-to-high and
printing is high-to-low.  Degree, triviality, constancy and roots are
all relative to a model, because a nonzero integer coefficient may
vanish there (2x is trivial over the two-element model).

``MultiPoly`` is the sparse multivariate counterpart used as the
numerators and denominators of simple fractions by the transforms
module; monomials are kept in descending graded-lexicographic order so
equality and printing are deterministic.

``annihilator`` builds, for a candidate fraction f/g claimed equal to
1 + 1/x over some model, a polynomial that the claim forces every
carrier element to satisfy; small carriers make that impossible to
sustain, which is the lever several demonstrations use.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence

from .errors import (
    InfiniteCarrierError, NotPolynomialError, PremiseFailedError,
)
from .terms import (
    Add, Div, Inv, Mul, Neg, Term, Var, ZERO, ONE, _Record, _setattr,
    fold, mk_numeral,
)

__all__ = [
    "UniPoly", "Monomial", "MultiPoly", "to_canonical",
    "degree_over", "non_trivial_over", "constant_over", "roots_over",
    "annihilator", "verified_annihilator",
]


def _const_term(n: int) -> Term:
    # positive constants in rendered polynomials; 1 prints as "1"
    return ONE if n == 1 else mk_numeral(n)


class UniPoly(_Record):
    """Canonical one-variable polynomial over the integers.

    coeffs[i] is the coefficient of variable**i; the top entry is
    nonzero (the zero polynomial stores an empty tuple).  Use ``make``
    to normalize raw coefficient lists.
    """

    __slots__ = ("variable", "coeffs")

    def __init__(self, variable: str, coeffs: tuple[int, ...]):
        _setattr(self, "variable", variable)
        _setattr(self, "coeffs", coeffs)

    @classmethod
    def make(cls, variable: str, coeffs: Sequence[int]) -> "UniPoly":
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        return cls(variable, tuple(cs))

    @classmethod
    def constant(cls, variable: str, c: int) -> "UniPoly":
        return cls.make(variable, [c])

    @classmethod
    def identity(cls, variable: str) -> "UniPoly":
        return cls(variable, (0, 1))

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    def coefficient(self, i: int) -> int:
        return self.coeffs[i] if i < len(self.coeffs) else 0

    def _joint_variable(self, other: "UniPoly") -> str:
        if self.variable == other.variable:
            return self.variable
        if other.is_constant:
            return self.variable
        if self.is_constant:
            return other.variable
        raise ValueError(
            f"cannot mix polynomials in {self.variable!r} and {other.variable!r}"
        )

    def __add__(self, other: "UniPoly") -> "UniPoly":
        var = self._joint_variable(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return UniPoly.make(
            var, [self.coefficient(i) + other.coefficient(i) for i in range(n)]
        )

    def __neg__(self) -> "UniPoly":
        return UniPoly(self.variable, tuple(-c for c in self.coeffs))

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        return self + (-other)

    def __mul__(self, other: "UniPoly") -> "UniPoly":
        var = self._joint_variable(other)
        if self.is_zero or other.is_zero:
            return UniPoly(var, ())
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return UniPoly.make(var, out)

    def eval_exact(self, value) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * Fraction(value) + c
        return acc

    def eval_in(self, model, value):
        """Horner evaluation with the model's operations."""
        acc = model.zero
        for c in reversed(self.coeffs):
            acc = model.add(model.mul(acc, value), model.of_int(c))
        return acc

    def to_term(self) -> Term:
        """High-to-low sum of monomials, subtraction for negatives."""
        return MultiPoly.from_dict({
            ((self.variable, i),) if i else (): c
            for i, c in enumerate(self.coeffs)}).to_term()


def to_canonical(t: Term, var: str) -> UniPoly:
    """Expand a division-free term over one variable into canonical form.

    Pure ring-law expansion with exact integer coefficients, so the
    result evaluates identically to t in every model at every point.
    """
    # The first offender in pre-order names the error, as in a tree walk.
    def stranger(v, n):
        if n is None and v.name != var:
            return f"unexpected variable {v.name!r}; polynomial is in {var!r}"

    division = "polynomials are division-free"
    problem = fold(t, stranger, {
        Add: lambda a, b: a or b, Mul: lambda a, b: a or b, Neg: lambda a: a,
        Div: lambda a, b: division, Inv: lambda a: division})
    if problem:
        raise NotPolynomialError(problem)
    return fold(t, lambda node, n: UniPoly.identity(var) if n is None
                else UniPoly.constant(var, n),
                {Add: UniPoly.__add__, Mul: UniPoly.__mul__, Neg: UniPoly.__neg__})


def degree_over(model, f: UniPoly) -> int | None:
    """Largest index whose coefficient does not vanish in the model.

    None when every coefficient vanishes there (nothing of f is left).
    """
    deg = None
    for i, c in enumerate(f.coeffs):
        if model.of_int(c) != model.zero:
            deg = i
    return deg


def non_trivial_over(model, f: UniPoly) -> bool:
    """Some coefficient survives in the model."""
    return degree_over(model, f) is not None


def constant_over(model, f: UniPoly) -> bool:
    """Every coefficient of a positive power vanishes in the model."""
    return all(
        model.of_int(c) == model.zero for c in f.coeffs[1:]
    )


def roots_over(model, f: UniPoly) -> set:
    """All carrier elements where f evaluates to zero."""
    if not model.is_finite:
        raise InfiniteCarrierError(
            f"cannot enumerate roots over {model.name}"
        )
    return {v for v in model.carrier if f.eval_in(model, v) == model.zero}


def annihilator(f: UniPoly, g: UniPoly) -> UniPoly:
    """x**2 * g**2 + x * g**2 - f * x**2 * g, in canonical form.

    When a model validates 1 + 1/x = f/g everywhere and g(0) does not
    vanish there, every carrier element is a root of this polynomial,
    while its linear coefficient g(0)**2 keeps it non-trivial over the
    model.  Both premises are the caller's to establish; see
    verified_annihilator.
    """
    var = f.variable if not f.is_constant else g.variable
    x = UniPoly.identity(var)
    g2 = g * g
    return x * x * g2 + x * g2 - f * x * x * g


def verified_annihilator(model, f: UniPoly, g: UniPoly) -> UniPoly:
    """annihilator(f, g) after checking both premises in the model.

    Premises: the model validates 1 + 1/x = f/g (exhaustively when
    finite, sampled otherwise), and g(0) does not vanish in it.
    """
    from .models import REFUTED, check_eq

    var = f.variable if not f.is_constant else g.variable
    x = Var(var)
    claim_lhs = Add(ONE, Div(ONE, x))
    claim_rhs = Div(f.to_term(), g.to_term())
    report = check_eq(model, claim_lhs, claim_rhs)
    if report.verdict == REFUTED:
        raise PremiseFailedError(
            f"{model.name} refutes 1 + 1/{var} = f/g at {report.counterexample}"
        )
    if model.of_int(g.coefficient(0)) == model.zero:
        raise PremiseFailedError(f"g(0) vanishes in {model.name}")
    return annihilator(f, g)


# -- sparse multivariate polynomials ----------------------------------------

Monomial = tuple[tuple[str, int], ...]


def _mono_degree(m: Monomial) -> int:
    return sum(e for _, e in m)


def _mono_key(m: Monomial):
    # Descending graded lex: higher total degree first, then more weight
    # on alphabetically earlier variables.
    return (-_mono_degree(m), tuple((v, -e) for v, e in m))


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    exps: dict[str, int] = dict(a)
    for v, e in b:
        exps[v] = exps.get(v, 0) + e
    return tuple(sorted(exps.items()))


class MultiPoly(_Record):
    """Sparse integer polynomial in any number of variables.

    terms maps monomials (sorted (variable, exponent) pairs, exponents
    at least 1) to nonzero coefficients, stored as a tuple in
    descending graded-lexicographic order.  Use ``from_dict`` or the
    ``constant``/``variable`` constructors.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: tuple[tuple[Monomial, int], ...]):
        _setattr(self, "terms", terms)

    @classmethod
    def from_dict(cls, d: Mapping[Monomial, int]) -> "MultiPoly":
        clean = {m: c for m, c in d.items() if c != 0}
        return cls(tuple(sorted(clean.items(), key=lambda mc: _mono_key(mc[0]))))

    @classmethod
    def constant(cls, c: int) -> "MultiPoly":
        return cls.from_dict({(): c})

    @classmethod
    def variable(cls, name: str) -> "MultiPoly":
        return cls.from_dict({((name, 1),): 1})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_one(self) -> bool:
        return self.terms == (((), 1),)

    def variables(self) -> tuple[str, ...]:
        names = {v for m, _ in self.terms for v, _ in m}
        return tuple(sorted(names))

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        acc = dict(self.terms)
        for m, c in other.terms:
            acc[m] = acc.get(m, 0) + c
        return MultiPoly.from_dict(acc)

    def __neg__(self) -> "MultiPoly":
        return MultiPoly(tuple((m, -c) for m, c in self.terms))

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + (-other)

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        acc: dict[Monomial, int] = {}
        for m1, c1 in self.terms:
            for m2, c2 in other.terms:
                m = _mono_mul(m1, m2)
                acc[m] = acc.get(m, 0) + c1 * c2
        return MultiPoly.from_dict(acc)

    def eval_exact(self, assignment: Mapping[str, object]) -> Fraction:
        total = Fraction(0)
        for m, c in self.terms:
            v = Fraction(c)
            for name, e in m:
                v *= Fraction(assignment[name]) ** e
            total += v
        return total

    def to_term(self) -> Term:
        return _poly_term(self, {})


def _poly_term(poly: MultiPoly, shared: dict) -> Term:
    """poly as a term.  Its coefficient numerals, variable powers and the
    whole term are taken from ``shared``, or built and added there, so
    renderings that share the dict share those subterm objects."""
    if poly.is_zero:
        return ZERO
    if poly in shared:
        return shared[poly]
    acc: Term | None = None
    for m, c in poly.terms:
        factors: list[Term] = []
        if abs(c) != 1 or not m:
            if abs(c) not in shared:
                shared[abs(c)] = _const_term(abs(c))
            factors.append(shared[abs(c)])
        for v, e in m:
            factors.append(_shared_power(v, e, shared))
        mono = factors[0]
        for factor in factors[1:]:
            mono = Mul(mono, factor)
        signed = Neg(mono) if c < 0 else mono
        acc = signed if acc is None else Add(acc, signed)
    assert acc is not None
    shared[poly] = acc
    return acc


def _shared_power(v: str, e: int, shared: dict) -> Term:
    """v*v*...*v with e factors, associated to the left; each power v^k,
    k <= e, is built once per dict, as v^(k-1) * v."""
    base = shared.setdefault((v, 1), Var(v))
    k = e
    while (v, k) not in shared:
        k -= 1
    for k in range(k + 1, e + 1):
        shared[v, k] = Mul(shared[v, k - 1], base)
    return shared[v, e]
