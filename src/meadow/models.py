"""Concrete models with total division, and equation checking over them.

Three families are provided, all with exact arithmetic and decidable
equality; the two finite ones share the base ``FiniteMeadow``:

* ``q0()``            -- the rational numbers with x/0 = 0.
* ``mk(k)``           -- Z/kZ for square-free k, division through the unique
                         weak inverse of each residue.
* ``gf(p, n)``        -- the order-p^n Galois field as residues modulo a
                         fixed irreducible polynomial, with x/0 = 0.

Each model states one arithmetic, its program ops (``_program_ops``):
``eval_term`` and ``check_eq`` fold terms with them (``terms.fold``), and
the element ops ``add``, ``mul``, ``neg`` and ``div`` and the numerals
derive from them.  A check folds both sides as one plan, so structurally
equal subterms of either side are computed once per assignment.  The
finite models compute on their own elements; ``q0`` computes on integer
pairs (n, d) with d > 0, see ``RationalMeadow``, and hands back
``Fraction`` values.  A sampled check draws working values (``_draw``)
and folds them as they are; only a witness is lowered to elements, so
``q0`` builds a ``Fraction`` for a counterexample alone.
``random_element`` is the lowered draw.

``check_eq`` decides equations over a finite model by exhausting all
assignments, and tests them on an infinite model by deterministic
seeded sampling.  A sweep gives each variable only the elements below
the model's ``sweep_base``, which decide every assignment (for ``mk:k``
the residues below k's largest prime, see ``ModularMeadow``); a report's
``evaluations`` counts the size**n assignments decided.  The one
assignment of a check with no variables, and while numpy is not loaded a
sweep of at most ``SMALL_SWEEP``, are folded one by one, as sampling
does, since the sweep ops and numpy cost more.  Any other sweep is
vectorized over the model's ``_sweep_ops``, numpy vectors of O(q)
entries built (and numpy imported) on the first such sweep, in chunks of
at most ``SWEEP_CHUNK`` assignments in lexicographic order; a variable
with more values than that is swept in slices.  Over ``gf:p^n`` the
first variable takes only the least element of each orbit of x -> x**p,
which keeps the least counterexample (``_first_values``).  A sweep of
more than ``MAX_ASSIGNMENTS`` is refused before either path runs, and a
sampled check of more than ``MAX_SAMPLES`` draws before the first.
Finite carriers above ``MAX_CARRIER`` are refused before anything is
built.  Reports are plain data and are reproducible: same model,
equation, strategy and seed give the identical report.  Everything runs
in one thread; determinism is part of the contract.
"""
from __future__ import annotations

import itertools
import math
import operator
import random
import re
import sys
from fractions import Fraction
from functools import cached_property
from math import gcd
from typing import Any, Callable, Mapping, NamedTuple, Sequence

from .errors import (
    CarrierTooLargeError, InfiniteExhaustiveError, MeadowError,
    NonSquareFreeError, NotPrimeError, ParseError, SignatureError,
    UnboundVariableError,
)
from .terms import (
    Add, Div, Inv, Mul, Neg, Term, Var, ZERO, ONE, _Pair, _Record, _plan,
    fold, variables,
)
from .syntax import _MAX_LITERAL

__all__ = [
    "MeadowModel", "RationalMeadow", "ModularMeadow", "GaloisMeadow",
    "q0", "mk", "gf", "model_from_spec",
    "CrtDecomposition", "crt_decompose",
    "Exhaustive", "Sampled", "CheckReport",
    "VALID", "REFUTED", "SAMPLED_OK",
    "eval_term", "check_eq", "characteristic",
    "ring_axioms", "division_axioms", "inverse_axioms",
    "derived_division_identities",
]

VALID = "valid"
REFUTED = "refuted"
SAMPLED_OK = "sampled_ok"


class Exhaustive(_Record):
    """Check every assignment; only meaningful on finite carriers."""

    __slots__ = ()


class Sampled(_Record):
    """Check ``count`` seeded pseudo-random assignments, at most
    ``MAX_SAMPLES``."""

    __slots__ = ("count", "seed")
    _defaults = (10_000, 0)

    def _validate(self):
        if self.count < 1:
            raise MeadowError(
                f"sample count must be at least 1, got {self.count}")
        if self.count > MAX_SAMPLES:
            raise CarrierTooLargeError(
                f"{self.count} samples are more than the {MAX_SAMPLES} "
                "that a sampled check draws")


class CheckReport(_Record):
    __slots__ = ("verdict", "counterexample", "evaluations", "seed")
    _defaults = (None,)


def _itself(e):
    return e


class MeadowModel:
    """Common interface of the shipped models.

    Elements are plain hashable Python values compared with ==; subclasses
    fix the representation.  Each states ``is_finite``, ``size``,
    ``carrier`` and ``characteristic``; an infinite model has carrier
    None and refuses ``size``.  Finite ones derive from ``FiniteMeadow``.
    Each states one arithmetic, its program ops ``_ops``, and the element
    ops ``add``, ``mul``, ``neg`` and ``div`` derive from them here, as do
    ``zero`` and ``one``: in every model they are the numerals 0 and 1.
    """

    name: str
    is_finite: bool
    size: int
    carrier: list | None
    characteristic: int

    zero = cached_property(lambda self: self.of_int(0))
    one = cached_property(lambda self: self.of_int(1))

    def _program_ops(self) -> "ProgramOps":
        """The ops terms are evaluated with, on working values."""
        return self._ops

    def add(self, a, b):
        ops = self._program_ops()
        return ops.lower(ops.add(ops.lift(a), ops.lift(b)))

    def mul(self, a, b):
        ops = self._program_ops()
        return ops.lower(ops.mul(ops.lift(a), ops.lift(b)))

    def neg(self, a):
        ops = self._program_ops()
        return ops.lower(ops.neg(ops.lift(a)))

    def div(self, a, b):
        ops = self._program_ops()
        return ops.lower(ops.div(ops.lift(a), ops.lift(b)))

    def random_element(self, rng: random.Random):
        """The element a sampled check's draw ``_draw(rng)`` stands for."""
        return self._program_ops().lower(self._draw(rng))

    def format_element(self, e) -> str:
        return str(e)

    def __repr__(self):
        return f"<{type(self).__name__} {self.name}>"


class FiniteMeadow(MeadowModel):
    """A model whose ``size`` elements are numbered 0..size-1.

    Subclasses set ``size`` and the ``unit_exponent`` e, the least e >= 1
    with u**e = 1 for every unit u, so that x**(e + 1) = x for every x and
    the weak inverse of b is b**(2e - 1).  ``element_at`` and ``index_of``
    map numbers to elements, which the program ops compute on, and back;
    an element is its own number unless a subclass says otherwise.  Numeral
    n is the element numbered n mod the characteristic, so ``zero`` and
    ``one`` are those numbered 0 and 1.  The carrier list is built only
    when something reads it, so a large model costs nothing up front.
    Each also derives ``sweep_base``: an exhaustive check sweeps only the
    elements numbered below it, for every variable, and that decides it
    over the whole carrier (``size`` for a field; see ``ModularMeadow``).
    """

    is_finite = True
    unit_exponent: int
    sweep_base: int

    @cached_property
    def carrier(self) -> list:
        """All elements in index order, built on first use."""
        return [self.element_at(i) for i in range(self.size)]

    element_at = index_of = staticmethod(_itself)

    def of_int(self, n: int):
        return self.element_at(n % self.characteristic)

    def _draw(self, rng: random.Random):
        """A working value for a sampled check: a uniform element, which
        the model's program ops compute on as it is."""
        return self.element_at(rng.randrange(self.size))

    @property
    def _first_values(self):
        """The indices the first variable of a vectorized sweep takes."""
        import numpy as np
        return np.arange(self.sweep_base)


def _not_an_element(model: MeadowModel, text: str) -> MeadowError:
    return MeadowError(f"{text!r} is not an element of {model.name}")


class ProgramOps(NamedTuple):
    """How terms are evaluated in a model.

    Ops compute on working values: ``lift`` makes one from an element,
    ``lower`` turns one back into the element it stands for, and
    ``same`` tells whether two stand for the same element.
    """

    lift: Callable[[Any], Any]
    lower: Callable[[Any], Any]
    same: Callable[[Any, Any], bool]
    add: Callable[[Any, Any], Any]
    mul: Callable[[Any, Any], Any]
    neg: Callable[[Any], Any]
    div: Callable[[Any, Any], Any]


# The decimal form of Fraction's text, with the exponent's digits as the
# group; Fraction reads underscores between digits from Python 3.11 on.
_DIGITS = r"\d+(?:_\d+)*" if sys.version_info >= (3, 11) else r"\d+"
_DECIMAL = (rf"\s*[-+]?(?=\d|\.\d)(?:{_DIGITS})?(?:\.(?:{_DIGITS})?)?"
            rf"e[-+]?({_DIGITS})\s*")


class RationalMeadow(MeadowModel):
    """Exact rationals with division totalized by x/0 = 0.

    Elements are ``Fraction`` values.  The program ops, which evaluation
    and the element ops run, compute on integer pairs (n, d) with d > 0:
    n/d is 0 exactly when n is, so x/0 = 0 needs no reduced form, and two
    pairs are compared by cross-multiplying.  A pair whose denominator is
    below 2**64 may be unreduced; ops on two such pairs skip the gcd that
    each ``Fraction`` op pays, and a result whose denominator reaches
    2**64 is reduced once.  A pair whose denominator is at least 2**64 is
    always in lowest terms, and ops involving one follow ``Fraction``'s
    own cross-gcd steps, so legitimately large values cost what they cost
    with ``Fraction``.
    """

    is_finite = False
    carrier = None

    def __init__(self):
        self.name = "q0"
        self.characteristic = 0
        self._ops = _PAIR_OPS

    @property
    def size(self) -> int:
        raise InfiniteExhaustiveError(f"{self.name} has an infinite carrier")

    def of_int(self, n: int):
        return Fraction(n)

    def _draw(self, rng: random.Random):
        # A working value for a sampled check, a pair n/d.  Numerators may
        # be 0, deliberately: sampled assignments must be able to hit the
        # totalized x/0 = 0 branches.
        return rng.randint(-99, 99), rng.randint(1, 99)

    def parse_element(self, text: str):
        # Fraction builds the power of 10 of an exponent, as in 1e-5, whole
        exponent = re.fullmatch(_DECIMAL, text, re.IGNORECASE)
        digits = exponent[1].replace("_", "").lstrip("0") if exponent else ""
        if (len(digits) > len(str(_MAX_LITERAL))
                or int(digits or 0) > _MAX_LITERAL):
            raise MeadowError(f"the exponent of {text!r} is too large"
                              f" (limit {_MAX_LITERAL})")
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError):
            raise _not_an_element(self, text) from None


# Pairs with a denominator below _WIDE may be unreduced; the others are
# in lowest terms.
_WIDE = 1 << 64


def _lowest(n: int, d: int) -> tuple[int, int]:
    g = gcd(n, d)
    return (n, d) if g == 1 else (n // g, d // g)


def _reduced(a):
    """The pair a in lowest terms, which a wide pair already is."""
    return a if a[1] >= _WIDE else _lowest(*a)


def _pair_add(a, b):
    na, da = a
    nb, db = b
    if da < _WIDE and db < _WIDE:
        if da == db:
            n, d = na + nb, da
        else:
            n, d = na * db + nb * da, da * db
        return (n, d) if d < _WIDE else _lowest(n, d)
    (na, da), (nb, db) = _reduced(a), _reduced(b)
    g = gcd(da, db)
    if g == 1:
        return na * db + nb * da, da * db
    s = da // g
    t = na * (db // g) + nb * s
    g2 = gcd(t, g)
    if g2 == 1:
        return t, s * db
    return t // g2, s * (db // g2)


def _pair_mul(a, b):
    na, da = a
    nb, db = b
    if da < _WIDE and db < _WIDE:
        n, d = na * nb, da * db
        return (n, d) if d < _WIDE else _lowest(n, d)
    (na, da), (nb, db) = _reduced(a), _reduced(b)
    g1 = gcd(na, db)
    if g1 > 1:
        na, db = na // g1, db // g1
    g2 = gcd(nb, da)
    if g2 > 1:
        nb, da = nb // g2, da // g2
    return na * nb, da * db


def _pair_div(a, b):
    n, d = b
    if n == 0:
        return 0, 1
    if n < 0:
        n, d = -n, -d
    if n >= _WIDE and abs(d) < _WIDE:   # 1/b = d/n is wide: lowest terms
        d, n = _lowest(d, n)
    return _pair_mul(a, (d, n))


_PAIR_OPS = ProgramOps(
    lift=lambda e: (e.numerator, e.denominator),
    lower=lambda p: Fraction(*p),
    same=lambda a, b: a[0] * b[1] == b[0] * a[1],
    add=_pair_add, mul=_pair_mul,
    neg=lambda a: (-a[0], a[1]),
    div=_pair_div,
)


def _square_free_primes(k: int) -> tuple[int, ...]:
    """Prime factors of k; NonSquareFreeError if one of them repeats."""
    if k < 2:
        raise MeadowError("modulus must be at least 2")
    primes, rest, d = [], k, 2
    while d * d <= rest:
        if rest % d == 0:
            rest //= d
            if rest % d == 0:
                raise NonSquareFreeError(k)
            primes.append(d)
        d += 1
    return tuple(primes + [rest] * (rest > 1))


class ModularMeadow(FiniteMeadow):
    """Z/kZ with division a/b = a * w(b), where w(b) is the weak inverse.

    The weak inverse of b is the unique w with b*w*b = b and w*b*w = w; it
    exists for every residue exactly when k is square-free.  Then every b
    satisfies b**(l + 1) = b, where the unit exponent l is lcm(p - 1) over
    the primes p of k (Carmichael's function), so w(b) = b**(2l - 1).
    ``div`` computes that one power per division; the k-entry
    ``weak_inverse`` tuple is built only with ``_sweep_ops``, which
    compute on the residues themselves.

    Z/kZ is the product of the fields Z/pZ, p | k, and each projection
    a -> a mod p is a meadow homomorphism: (p - 1) divides l, so it maps
    the weak inverse b**(2l - 1) to the field inverse, and 0 to 0.  If
    the sides of an equation differ at an assignment a, they differ at
    a mod p for some p, hence also at r = a mod p read back in Z/kZ,
    whose entries are all below p.  So ``sweep_base`` is the largest p:
    its residues decide every check, and since r <= a in each entry, the
    lexicographically least counterexample lies among them too.  A
    report's ``evaluations`` still counts the k**n assignments decided.
    """

    def __init__(self, k: int):
        if k > MAX_CARRIER:
            raise _carrier_too_large(f"mk:{k}", k)
        self.primes = _square_free_primes(k)
        self.name = f"mk:{k}"
        self.k = self.size = k
        self.sweep_base = max(self.primes)
        self.characteristic = k
        self.unit_exponent = math.lcm(*(p - 1 for p in self.primes))

    @cached_property
    def _ops(self) -> "ProgramOps":
        k, e = self.k, 2 * self.unit_exponent - 1
        return ProgramOps(_itself, _itself, operator.eq,
                          lambda a, b: (a + b) % k, lambda a, b: a * b % k,
                          lambda a: -a % k, lambda a, b: a * pow(b, e, k) % k)

    @cached_property
    def weak_inverse(self) -> tuple[int, ...]:
        """w(b) = 1/b for every residue b, built on first use."""
        div = self._ops.div
        return tuple(div(1, b) for b in range(self.k))

    @cached_property
    def _sweep_ops(self) -> "ProgramOps":
        import numpy as np

        k, w = self.k, np.array(self.weak_inverse)
        wrap = np.arange(2 * k) % k   # faster than % for a + b and k - a
        return ProgramOps(_itself, _itself, operator.eq,
                          lambda a, b: wrap[a + b], lambda a, b: a * b % k,
                          lambda a: wrap[k - a], lambda a, b: a * w[b] % k)

    def parse_element(self, text: str):
        try:
            v = int(text)
        except ValueError:
            raise _not_an_element(self, text) from None
        if not 0 <= v < self.k:
            raise MeadowError(f"{v} is outside the carrier 0..{self.k - 1}")
        return v


class CrtDecomposition(_Record):
    """Explicit bijection Z/kZ <-> product of prime fields, square-free k."""

    __slots__ = ("modulus", "primes", "factors")

    def to_components(self, x: int) -> tuple[int, ...]:
        return tuple(x % p for p in self.primes)

    def from_components(self, components: Sequence[int]) -> int:
        k = math.prod(self.primes)
        x = 0
        for c, p in zip(components, self.primes):
            m = k // p
            x += c * m * pow(m, p - 2, p)
        return x % k


def crt_decompose(k: int) -> CrtDecomposition:
    """Prime decomposition of Z/kZ; raises NonSquareFreeError otherwise."""
    primes = _square_free_primes(k)
    return CrtDecomposition(k, primes, tuple(ModularMeadow(p) for p in primes))


# -- polynomial arithmetic over F_p, coefficients low-to-high ---------------

def _poly_trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_mul(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(out)


def _poly_divmod(a: Sequence[int], b: Sequence[int], p: int):
    a = list(a)
    _poly_trim(a)
    inv_lead = pow(b[-1], p - 2, p)
    quo = [0] * max(0, len(a) - len(b) + 1)
    while len(a) >= len(b):
        shift = len(a) - len(b)
        factor = (a[-1] * inv_lead) % p
        quo[shift] = factor
        for i, bi in enumerate(b):
            a[shift + i] = (a[shift + i] - factor * bi) % p
        _poly_trim(a)
    return _poly_trim(quo), a


def _poly_inv_mod(a: Sequence[int], modulus: Sequence[int], p: int) -> list[int]:
    """Inverse of a nonzero a of lower degree than the irreducible
    ``modulus`` in F_p[x]: the extended Euclid loop ends at a constant gcd."""
    r0, r1 = list(modulus), _poly_trim(list(a))
    t0, t1 = [], [1]
    while r1:
        q, r = _poly_divmod(r0, r1, p)
        r0, r1 = r1, r
        t0, t1 = t1, _poly_trim(
            [(x - y) % p for x, y in itertools.zip_longest(
                t0, _poly_mul(q, t1, p), fillvalue=0)]
        )
    scale = pow(r0[0], p - 2, p)
    return _poly_trim([(x * scale) % p for x in t0])


def _is_irreducible(poly: Sequence[int], p: int) -> bool:
    degree = len(poly) - 1
    for d in range(1, degree // 2 + 1):
        for tail in itertools.product(range(p), repeat=d):
            divisor = list(tail) + [1]
            _, rem = _poly_divmod(list(poly), divisor, p)
            if not rem:
                return False
    return True


def _first_irreducible(p: int, n: int) -> tuple[int, ...]:
    """Lexicographically first monic irreducible of degree n over F_p.

    Candidates are ordered by their low-to-high coefficient tuple
    (a_0, ..., a_{n-1}); the leading coefficient is fixed to 1.  Above
    degree 1 the search starts at a_0 = 1, since x divides the rest.
    """
    for tail in itertools.product(range(n > 1, p), *[range(p)] * (n - 1)):
        candidate = list(tail) + [1]
        if _is_irreducible(candidate, p):
            return tuple(candidate)
    raise AssertionError(f"no irreducible polynomial of degree {n} over F_{p}")


class GaloisMeadow(FiniteMeadow):
    """The field of order p^n with x/0 = 0.

    Elements are length-n coefficient tuples (low-to-high) over F_p,
    i.e. residues modulo a fixed irreducible polynomial; the modulus is
    the lexicographically first monic irreducible of degree n, so the
    construction is reproducible.  Nonzero inverses come from the
    extended gcd in F_p[x].  The carrier is enumerated by the integer
    encoding sum(c_i * p^i), putting 0, 1 first and the generator next
    (for n >= 2).

    ``_sweep_ops`` compute on log codes: g**l has code l for the first
    primitive element g, and 0 has code Z = 2q.  mul adds logs and div
    subtracts them, reduced mod q - 1 by ``wrap``, and add reads the Zech
    logarithm L(d) = log(1 + g**d) off ``zech`` (Lidl and Niederreiter,
    "Finite Fields", ch. 9); O(q) entries each, with those for 0 too.
    """

    def __init__(self, p: int, n: int):
        # p^n > 2^20 once n > 20, so a huge power is never computed
        if p >= 2 and n >= 1 and (n > 20 or p ** n > MAX_CARRIER):
            raise _carrier_too_large(f"gf:{p}^{n}", f"{p}^{n}")
        if p < 2 or any(p % d == 0 for d in range(2, int(p ** 0.5) + 1)):
            raise NotPrimeError(p)
        if n < 1:
            raise MeadowError("extension degree must be at least 1")
        self.name = f"gf:{p}^{n}"
        self.p = p
        self.n = n
        self.size = self.sweep_base = p ** n
        self.characteristic = p
        self.unit_exponent = self.size - 1
        self.modulus = _first_irreducible(p, n)
        # the root of the modulus: x, or -a_0 when the modulus is linear
        self.generator = self.element_at(
            p if n >= 2 else -self.modulus[0] % p)

    @cached_property
    def _ops(self) -> "ProgramOps":
        p, n, modulus, zero = self.p, self.n, self.modulus, self.zero

        def mul(a, b):
            rem = _poly_divmod(_poly_mul(a, b, p), modulus, p)[1]
            return tuple(rem) + (0,) * (n - len(rem))
        return ProgramOps(
            _itself, _itself, operator.eq,
            lambda a, b: tuple((x + y) % p for x, y in zip(a, b)), mul,
            lambda a: tuple(-x % p for x in a),
            lambda a, b: mul(a, _poly_inv_mod(b, modulus, p)) if any(b)
            else zero)

    @cached_property
    def _sweep_ops(self) -> "ProgramOps":
        import numpy as np

        p, q, one = self.p, self.size, self.one

        def power(a, e):
            return one if e == 0 else self.mul(power(self.mul(a, a), e // 2),
                                               a if e % 2 else one)
        # the first primitive g: g**d != 1 for each proper divisor d of q - 1
        g = next(h for h in map(self.element_at, range(1, q)) if all(
            power(h, d) != one for d in range(1, q - 1) if (q - 1) % d == 0))
        # times[i] numbers g times element i, digit by digit from those
        # below p**d on, as g*(c*x**d + e) = c*(g*x**d) + g*e
        places, c = [p ** d for d in range(self.n)], np.arange(p)[:, None]
        times = np.zeros(1, int)
        for s in places:
            t = self.index_of(self.mul(g, self.element_at(s)))
            times = sum((times // u + c * (t // u)) % p * u
                        for u in places).ravel()
        times = times.tolist()   # exp[l] numbers g**l
        exp = np.fromiter(itertools.accumulate(
            range(q - 2), lambda i, _: times[i], initial=1), int, q - 1)
        zero, codes = 2 * q, np.arange(q - 1)
        lift, lower = np.full(q, zero), np.zeros(zero + 1, int)
        lift[exp], lower[:q - 1] = codes, exp
        wrap, inv = np.full(2 * zero + 1, zero), np.full(zero + 1, zero)
        wrap[:zero], inv[:q - 1] = np.arange(zero) % (q - 1), -codes % (q - 1)
        # a negative d reads from the end: L(d + q - 1), or b - Z for a = 0
        zech = np.zeros(2 * zero + 1, int)
        zech[:q - 1] = lift[exp - exp % p + (exp + 1) % p]   # 1 + g**d
        zech[zero + 1:zero + q] = codes - zero
        zech[2 * zero + 3 - q:] = zech[1:q - 1]
        return ProgramOps(
            lift.__getitem__, lower.__getitem__, operator.eq,
            lambda a, b: wrap[a + zech[b - a]], lambda a, b: wrap[a + b],
            _itself if p == 2 else lambda a: wrap[a + (q - 1) // 2],
            lambda a, b: wrap[a + inv[b]])

    @cached_property
    def _first_values(self):
        # sigma(x) = x**p keeps 0, 1, +, * and 1/0 = 0, so the least
        # counterexample's first entry is the least index of its orbit
        import numpy as np
        q, (lift, lower) = self.size, self._sweep_ops[:2]
        index = least = np.arange(q)
        codes = lift(index)
        for _ in range(self.n - 1):   # sigma(g**l) = g**(l*p)
            codes = np.where(codes < q - 1, codes * self.p % (q - 1), codes)
            least = np.minimum(least, lower(codes))
        return np.flatnonzero(least == index)

    def index_of(self, e) -> int:
        return sum(c * self.p ** i for i, c in enumerate(e))

    def element_at(self, i: int):
        digits = []
        for _ in range(self.n):
            digits.append(i % self.p)
            i //= self.p
        return tuple(digits)

    def parse_element(self, text: str):
        from .syntax import parse

        try:
            return eval_term(self, parse(text, "divisive"),
                             {"a": self.generator})
        except (ParseError, SignatureError, UnboundVariableError):
            raise _not_an_element(self, text) from None

    def format_element(self, e) -> str:
        parts = []
        for i in range(self.n - 1, -1, -1):
            c = e[i]
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                var = "a" if i == 1 else f"a^{i}"
                parts.append(var if c == 1 else f"{c}*{var}")
        return " + ".join(parts) if parts else "0"


def q0() -> RationalMeadow:
    return RationalMeadow()


def mk(k: int) -> ModularMeadow:
    return ModularMeadow(k)


def gf(p: int, n: int) -> GaloisMeadow:
    return GaloisMeadow(p, n)


def model_from_spec(spec: str) -> MeadowModel:
    """Model named by a specifier: "q0", "mk:<k>" or "gf:<p>^<n>"."""
    if spec == "q0":
        return q0()
    match = re.fullmatch(r"mk:([-+]?\d+)|gf:([-+]?\d+)\^([-+]?\d+)", spec)
    if not match:
        raise MeadowError(f"bad model specifier {spec!r}: "
                          "expected q0, mk:<k> or gf:<p>^<n>")
    k, p, n = match.groups()
    return mk(int(k)) if k is not None else gf(int(p), int(n))


# -- evaluation -------------------------------------------------------------

def _evaluator(t: Term, lift, var, ops: ProgramOps, same=None):
    """``fold``'s leaf and ops computing t with the four ops of ops:
    numeral n is lift(n), lifted once per call, a variable v is var(v),
    inv(p) is 1/p, and a pair of sides is same(lhs, rhs)."""
    consts = {n: lift(n) for cls, _, n in _plan(t)[0]
              if cls is None and n is not None}
    one = consts[1] if 1 in consts else lift(1)
    return (lambda node, n: var(node.name) if n is None else consts[n],
            {Add: ops.add, Mul: ops.mul, Neg: ops.neg, Div: ops.div,
             Inv: lambda a: ops.div(one, a), _Pair: same})


def eval_term(model: MeadowModel, t: Term,
              assignment: Mapping[str, Any] | None = None):
    """Value of t in the model under the assignment.

    inv(p) means 1/p.  Unassigned variables raise UnboundVariableError,
    the first one a fold reaches, before anything is computed.
    """
    env = assignment or {}
    for cls, node, n in _plan(t)[0]:
        if cls is None and n is None and node.name not in env:
            raise UnboundVariableError(node.name)
    ops = model._program_ops()
    return ops.lower(fold(t, *_evaluator(
        t, lambda n: ops.lift(model.of_int(n)),
        lambda name: ops.lift(env[name]), ops)))


MAX_CARRIER = 1 << 20        # a finite model takes O(q) time and memory
SWEEP_CHUNK = 1 << 16        # assignments a sweep holds in arrays at once
SMALL_SWEEP = 64             # the most assignments a sweep folds pointwise
MAX_ASSIGNMENTS = 1 << 30    # the most assignments an exhaustive check sweeps
MAX_SAMPLES = 1 << 20        # the most draws of a sampled check, about 5-9 s


def _carrier_too_large(name: str, size) -> CarrierTooLargeError:
    return CarrierTooLargeError(
        f"{name} has {size} elements, more than the {MAX_CARRIER} that a "
        "finite model is built with")


def _sweep_size(model: FiniteMeadow, k: int) -> int:
    """Assignments an exhaustive check of k variables sweeps over model,
    sweep_base**k; CarrierTooLargeError past MAX_ASSIGNMENTS."""
    q, b = model.size, model.sweep_base
    count = b ** k
    if count > MAX_ASSIGNMENTS:
        swept = (f"has {q} elements" if b == q
                 else f"is decided by its residues below {b}")
        raise CarrierTooLargeError(
            f"{model.name} {swept}, so {k} variables give {count} "
            f"assignments, more than the {MAX_ASSIGNMENTS} that exhaustive "
            "checking sweeps: check by sampling instead "
            "(--strategy sampled --samples N)")
    return count


def _first_mismatch(model, sides, envs):
    """The first of the assignments envs under which the sides differ,
    folded pointwise with the model's program ops, and how many were
    folded; the assignment is None if the sides never differ.  envs
    assign working values, and only the assignment returned is lowered
    to elements."""
    ops = model._program_ops()
    evaluator = _evaluator(   # its leaf reads env, the assignment in turn
        sides, lambda n: ops.lift(model.of_int(n)),
        lambda name: env[name], ops, ops.same)
    for i, env in enumerate(envs, 1):
        if not fold(sides, *evaluator):
            return i, {name: ops.lower(v) for name, v in env.items()}
    return i, None


def _sweeps_pointwise(count: int) -> bool:
    # every sweep_base is at least 2, so a count of 1 has no variables
    return count == 1 or count <= SMALL_SWEEP and "numpy" not in sys.modules


def _check_exhaustive(model, sides, names):
    k = len(names)
    swept, count = _sweep_size(model, k), model.size ** k
    base = model.sweep_base
    if _sweeps_pointwise(swept):
        # a finite model computes on its elements, as _draw says
        witness = _first_mismatch(model, sides, (
            dict(zip(names, assigned)) for assigned in itertools.product(
                map(model.element_at, range(base)), repeat=k)))[1]
        return CheckReport(VALID if witness is None else REFUTED, witness,
                           count)
    ops = model._sweep_ops
    import numpy as np

    # The first variable takes model._first_values, the others the values
    # below base.  A chunk fixes the leading variables to one value each
    # and sweeps the trailing ones that fit in SWEEP_CHUNK assignments, or
    # else a slice of SWEEP_CHUNK values of the last.  A piece is such
    # values with their lifts along axis j, for variable j: the lookups
    # broadcast, so a subterm's array spans just the variables it contains.
    ranges = [model._first_values, *[np.arange(base)] * (k - 1)][:k]
    lead = max(k - 1, 0)
    while lead and math.prod(map(len, ranges[lead - 1:])) <= SWEEP_CHUNK:
        lead -= 1
    pieces = [[(r[i:i + step], ops.lift(r[i:i + step].reshape(
                   (1,) * j + (-1,) + (1,) * (k - j - 1))))
               for i in range(0, len(r), step)]
              for j, r in enumerate(ranges)
              for step in [1 if j < lead else SWEEP_CHUNK]]
    env: dict[str, Any] = {}
    evaluator = _evaluator(
        sides, lambda n: ops.lift(n % model.characteristic),
        env.__getitem__, ops, operator.ne)
    # Chunks, and the assignments within a chunk, come in lexicographic
    # order with the first variable most significant, so the first
    # mismatch is the least counterexample among the values swept.
    for chunk in itertools.product(*pieces):
        env.update(zip(names, (lifted for _, lifted in chunk)))
        shape = tuple(len(part) for part, _ in chunk)
        mismatch = np.broadcast_to(fold(sides, *evaluator), shape)
        if mismatch.any():
            at = np.unravel_index(int(np.argmax(mismatch)), shape)
            witness = {name: model.element_at(int(part[i]))
                       for name, (part, _), i in zip(names, chunk, at)}
            return CheckReport(REFUTED, witness, count)
    return CheckReport(VALID, None, count)


def _check_sampled(model, sides, names, strategy: Sampled):
    rng = random.Random(strategy.seed)
    i, witness = _first_mismatch(model, sides, (
        {name: model._draw(rng) for name in names}
        for _ in range(strategy.count)))
    return CheckReport(SAMPLED_OK if witness is None else REFUTED, witness,
                       i, strategy.seed)


def check_eq(model: MeadowModel, lhs: Term, rhs: Term,
             strategy: Exhaustive | Sampled | None = None) -> CheckReport:
    """Check lhs = rhs in the model.

    Default strategy: Exhaustive on finite models, Sampled() on infinite
    ones, where Exhaustive raises InfiniteExhaustiveError from ``size``
    before anything runs.  Exhaustive verdicts are "valid" or "refuted"
    with the lexicographically least counterexample (variables in sorted
    name order); sampling yields "sampled_ok" or "refuted" with the
    first failing draw.  Reports are deterministic for fixed inputs.
    """
    sides = _Pair(lhs, rhs)
    names = variables(sides)
    if strategy is None:
        strategy = Exhaustive() if model.is_finite else Sampled()
    if isinstance(strategy, Exhaustive):
        return _check_exhaustive(model, sides, names)
    if isinstance(strategy, Sampled):
        return _check_sampled(model, sides, names, strategy)
    raise TypeError(f"unknown strategy {strategy!r}")


def characteristic(model: MeadowModel) -> int:
    """Least k >= 1 with numeral k = 0 in the model, or 0 if there is none.

    Every model states it: 0 for q0, k for mk:k and p for gf:p^n.
    """
    return model.characteristic


# -- named equation suites --------------------------------------------------

def ring_axioms() -> list[tuple[str, Term, Term]]:
    """Commutative-ring laws every shipped model satisfies."""
    x, y, z = Var("x"), Var("y"), Var("z")
    return [
        ("add_assoc", (x + y) + z, x + (y + z)),
        ("add_comm", x + y, y + x),
        ("add_zero", x + ZERO, x),
        ("add_opposite", x + (-x), ZERO),
        ("mul_assoc", (x * y) * z, x * (y * z)),
        ("mul_comm", x * y, y * x),
        ("mul_one", x * ONE, x),
        ("distributivity", x * (y + z), x * y + x * z),
    ]


def division_axioms() -> list[tuple[str, Term, Term]]:
    """Laws of totalized binary division."""
    x, y = Var("x"), Var("y")
    return [
        ("reciprocal_involution", ONE / (ONE / x), x),
        ("square_over_self", (x * x) / x, x),
        ("div_is_mul_reciprocal", x / y, x * (ONE / y)),
    ]


def inverse_axioms() -> list[tuple[str, Term, Term]]:
    """The unary-inverse counterparts of the division laws."""
    x = Var("x")
    return [
        ("inv_involution", Inv(Inv(x)), x),
        ("inv_cancellation", x * (x * Inv(x)), x),
    ]


def derived_division_identities() -> list[tuple[str, Term, Term]]:
    """Consequences of the axioms that the transforms lean on."""
    x, y, z, w = Var("x"), Var("y"), Var("z"), Var("w")
    return [
        ("one_over_zero", ONE / ZERO, ZERO),
        ("one_over_one", ONE / ONE, ONE),
        ("reciprocal_of_opposite", ONE / (-x), -(ONE / x)),
        ("reciprocal_of_product", ONE / (x * y), (ONE / x) * (ONE / y)),
        ("fraction_product", (x / y) * (z / w), (x * z) / (y * w)),
        ("fraction_quotient", (x / y) / (z / w), (x * w) / (y * z)),
    ]
