"""Concrete models with total division, and equation checking over them.

Three families are provided, all with exact arithmetic and decidable
equality; the two finite ones share the base ``FiniteMeadow``:

* ``q0()``            -- the rational numbers with x/0 = 0.
* ``mk(k)``           -- Z/kZ for square-free k, division through the unique
                         weak inverse of each residue.
* ``gf(p, n)``        -- the order-p^n Galois field as residues modulo a
                         fixed irreducible polynomial, with x/0 = 0.

``eval_term`` and ``check_eq`` evaluate terms with ``terms.fold`` and the
model's program ops (``_program_ops``); a check folds both sides as one
plan, so structurally equal subterms of either side are computed once
per assignment.  The finite models compute on their own elements; ``q0``
computes on integer pairs (n, d) with d > 0, see ``RationalMeadow``, and
hands back ``Fraction`` values, so results and reports are the same
either way.

``check_eq`` decides equations over a finite model by exhausting all
assignments (vectorized over numpy lookup tables; numpy is imported by
the first table build), and tests them on an infinite model by
deterministic seeded sampling.  A sweep runs in chunks of at most
``SWEEP_CHUNK`` assignments in lexicographic order, so its memory does
not grow with the number of assignments; a sweep of more than
``MAX_ASSIGNMENTS`` is refused before its tables are built.  Finite
carriers above ``MAX_CARRIER`` are refused before anything is built.
Reports are plain data and are reproducible: same model, equation,
strategy and seed give the identical report.  Everything runs in one
thread; determinism is part of the contract, speed comes from the
tables.
"""
from __future__ import annotations

import itertools
import math
import operator
import random
import re
from fractions import Fraction
from functools import cached_property
from math import gcd
from typing import Any, Callable, Mapping, NamedTuple, Sequence

from .errors import (
    CarrierTooLargeError, InfiniteExhaustiveError, NonSquareFreeError,
    NotPrimeError, ParseError, SignatureError, UnboundVariableError,
)
from .terms import (
    Add, Div, Inv, Mul, Neg, Term, Var, ZERO, ONE, _Pair, _Record, _plan,
    _setattr, fold, variables,
)

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
    """Check ``count`` seeded pseudo-random assignments."""

    __slots__ = ("count", "seed")

    def __init__(self, count: int = 10_000, seed: int = 0):
        if count < 1:
            raise ValueError(f"sample count must be at least 1, got {count}")
        _setattr(self, "count", count)
        _setattr(self, "seed", seed)


class CheckReport(_Record):
    __slots__ = ("verdict", "counterexample", "evaluations", "seed")

    def __init__(self, verdict: str, counterexample: dict[str, Any] | None,
                 evaluations: int, seed: int | None = None):
        _setattr(self, "verdict", verdict)
        _setattr(self, "counterexample", counterexample)
        _setattr(self, "evaluations", evaluations)
        _setattr(self, "seed", seed)


class MeadowModel:
    """Common interface of the shipped models.

    Elements are plain hashable Python values compared with ==; subclasses
    fix the representation.  Each states ``is_finite``, ``size``,
    ``carrier`` and ``characteristic``; an infinite model has carrier
    None and refuses ``size``.  Finite ones derive from ``FiniteMeadow``.
    """

    name: str
    is_finite: bool
    size: int
    carrier: list | None
    characteristic: int

    def _program_ops(self) -> "ProgramOps":
        """The ops terms are evaluated with: here the model's own, on its
        elements."""
        return ProgramOps(_itself, _itself, operator.eq,
                          self.add, self.mul, self.neg, self.div)

    def __repr__(self):
        return f"<{type(self).__name__} {self.name}>"


class FiniteMeadow(MeadowModel):
    """A model whose ``size`` elements are numbered 0..size-1.

    Subclasses set ``size`` and the ``unit_exponent`` e, the least e >= 1
    with u**e = 1 for every unit u, so that x**(e + 1) = x for every x and
    the weak inverse of b is b**(2e - 1).  ``element_at`` and ``index_of``
    map numbers to elements and back.  The carrier list is built only
    when something reads it, so a large model costs nothing up front.
    """

    is_finite = True
    unit_exponent: int

    @cached_property
    def carrier(self) -> list:
        """All elements in index order, built on first use."""
        return [self.element_at(i) for i in range(self.size)]

    def random_element(self, rng: random.Random):
        return self.element_at(rng.randrange(self.size))


def _not_an_element(model: MeadowModel, text: str) -> ValueError:
    return ValueError(f"{text!r} is not an element of {model.name}")


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


def _itself(e):
    return e


class RationalMeadow(MeadowModel):
    """Exact rationals with division totalized by x/0 = 0.

    Elements are ``Fraction`` values.  Evaluation (``eval_term``, sampled
    ``check_eq``) computes on integer pairs (n, d) with d > 0 instead:
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
        self.zero = Fraction(0)
        self.one = Fraction(1)
        self.characteristic = 0

    @property
    def size(self) -> int:
        raise InfiniteExhaustiveError(f"{self.name} has an infinite carrier")

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def div(self, a, b):
        if b == 0:
            return Fraction(0)
        return a / b

    def of_int(self, n: int):
        return Fraction(n)

    def random_element(self, rng: random.Random):
        # Numerators may be 0, deliberately: sampled assignments must be
        # able to hit the totalized x/0 = 0 branches.
        return Fraction(rng.randint(-99, 99), rng.randint(1, 99))

    def parse_element(self, text: str):
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError):
            raise _not_an_element(self, text) from None

    def format_element(self, e) -> str:
        return str(e)

    def _program_ops(self) -> "ProgramOps":
        # The pairs compute what add, mul, neg and div above compute.
        return _PAIR_OPS


# Pairs with a denominator below _WIDE may be unreduced; the others are
# in lowest terms.
_WIDE = 1 << 64


def _lowest(n: int, d: int) -> tuple[int, int]:
    g = gcd(n, d)
    return (n, d) if g == 1 else (n // g, d // g)


def _pair_add(a, b):
    na, da = a
    nb, db = b
    if da < _WIDE and db < _WIDE:
        if da == db:
            n, d = na + nb, da
        else:
            n, d = na * db + nb * da, da * db
        return (n, d) if d < _WIDE else _lowest(n, d)
    if da < _WIDE:
        na, da = _lowest(na, da)
    if db < _WIDE:
        nb, db = _lowest(nb, db)
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
    if da < _WIDE:
        na, da = _lowest(na, da)
    if db < _WIDE:
        nb, db = _lowest(nb, db)
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
        raise ValueError("modulus must be at least 2")
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
    ``weak_inverse`` tuple is built only with the op tables, which are
    index arithmetic mod k.
    """

    def __init__(self, k: int):
        if k > MAX_CARRIER:
            raise _carrier_too_large(f"mk:{k}", k)
        self.primes = _square_free_primes(k)
        self.name = f"mk:{k}"
        self.k = self.size = k
        self.characteristic = k
        self.unit_exponent = math.lcm(*(p - 1 for p in self.primes))
        self.zero = 0
        self.one = 1 % k

    @cached_property
    def weak_inverse(self) -> tuple[int, ...]:
        """w(b) = 1/b for every residue b, built on first use."""
        return tuple(self.div(1, b) for b in range(self.k))

    def _build_tables(self):
        import numpy as np

        k, i = self.k, np.arange(self.k, dtype=np.int64)
        return ((i[:, None] + i) % k, (i[:, None] * i) % k, -i % k,
                i[:, None] * np.array(self.weak_inverse, dtype=np.int64) % k)

    def add(self, a, b):
        return (a + b) % self.k

    def mul(self, a, b):
        return (a * b) % self.k

    def neg(self, a):
        return (-a) % self.k

    def div(self, a, b):
        return a * pow(b, 2 * self.unit_exponent - 1, self.k) % self.k

    def of_int(self, n: int):
        return n % self.k

    def index_of(self, e) -> int:
        return e

    def element_at(self, i: int):
        return i

    def parse_element(self, text: str):
        try:
            v = int(text)
        except ValueError:
            raise _not_an_element(self, text) from None
        if not 0 <= v < self.k:
            raise ValueError(f"{v} is outside the carrier 0..{self.k - 1}")
        return v

    def format_element(self, e) -> str:
        return str(e)


def _crt_combine(components: Sequence[int], primes: Sequence[int]) -> int:
    k = math.prod(primes)
    x = 0
    for c, p in zip(components, primes):
        m = k // p
        x += c * m * pow(m, p - 2, p)
    return x % k


class CrtDecomposition(_Record):
    """Explicit bijection Z/kZ <-> product of prime fields, square-free k."""

    __slots__ = ("modulus", "primes", "factors")

    def __init__(self, modulus: int, primes: tuple[int, ...],
                 factors: tuple[ModularMeadow, ...]):
        _setattr(self, "modulus", modulus)
        _setattr(self, "primes", primes)
        _setattr(self, "factors", factors)

    def to_components(self, x: int) -> tuple[int, ...]:
        return tuple(x % p for p in self.primes)

    def from_components(self, components: Sequence[int]) -> int:
        return _crt_combine(components, self.primes)


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
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(out)


def _poly_divmod(a: Sequence[int], b: Sequence[int], p: int):
    a = list(a)
    _poly_trim(a)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
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
    """Inverse of a modulo ``modulus`` in F_p[x] via the extended Euclid loop."""
    r0, r1 = list(modulus), _poly_trim(list(a))
    t0, t1 = [], [1]
    while r1:
        q, r = _poly_divmod(r0, r1, p)
        r0, r1 = r1, r
        t0, t1 = t1, _poly_trim(
            [(x - y) % p for x, y in itertools.zip_longest(
                t0, _poly_mul(q, t1, p), fillvalue=0)]
        )
    if len(r0) != 1:
        raise ZeroDivisionError("element is not invertible")
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

    The op tables take O(q) field operations, q = p^n: add and neg work
    digit by digit on the encoding, and mul and div read log/antilog
    tables of the first primitive element g (the nonzero elements are
    the cyclic group of powers of g), with row and column 0 set to 0.
    """

    def __init__(self, p: int, n: int):
        # p^n > 2^20 once n > 20, so a huge power is never computed
        if p >= 2 and n >= 1 and (n > 20 or p ** n > MAX_CARRIER):
            raise _carrier_too_large(f"gf:{p}^{n}", f"{p}^{n}")
        if p < 2 or any(p % d == 0 for d in range(2, int(p ** 0.5) + 1)):
            raise NotPrimeError(p)
        if n < 1:
            raise ValueError("extension degree must be at least 1")
        self.name = f"gf:{p}^{n}"
        self.p = p
        self.n = n
        self.size = p ** n
        self.characteristic = p
        self.unit_exponent = self.size - 1
        self.modulus = _first_irreducible(p, n)
        self.zero = (0,) * n
        self.one = self._pad([1 % p])
        self.generator = self._pad([0, 1]) if n >= 2 else self._pad(
            [(-self.modulus[0]) % p]
        )

    def _build_tables(self):
        import numpy as np

        p, q = self.p, self.size
        add = np.zeros((q, q), dtype=np.int64)
        neg = np.zeros(q, dtype=np.int64)
        for d in range(self.n):
            digit = np.arange(q, dtype=np.int64) // p ** d % p
            add += (digit[:, None] + digit) % p * p ** d
            neg += -digit % p * p ** d
        for g in self.carrier[1:]:
            powers, x = [self.one], g
            while x != self.one:
                powers.append(x)
                x = self.mul(x, g)
            if len(powers) == q - 1:
                break
        exp = np.array([self.index_of(x) for x in powers], dtype=np.int64)
        log = np.zeros(q, dtype=np.int64)
        log[exp] = np.arange(q - 1)
        mul = exp[(log[:, None] + log) % (q - 1)]
        div = exp[(log[:, None] - log) % (q - 1)]
        for t in (mul, div):
            t[0, :] = t[:, 0] = 0
        return add, mul, neg, div

    def _pad(self, coeffs: Sequence[int]) -> tuple[int, ...]:
        return tuple(list(coeffs)[: self.n] + [0] * (self.n - len(coeffs)))

    def add(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def neg(self, a):
        return tuple((-x) % self.p for x in a)

    def mul(self, a, b):
        prod = _poly_mul(a, b, self.p)
        _, rem = _poly_divmod(prod, list(self.modulus), self.p)
        return self._pad(rem)

    def div(self, a, b):
        if b == self.zero:
            return self.zero
        inv = _poly_inv_mod(b, self.modulus, self.p)
        return self.mul(a, self._pad(inv))

    def of_int(self, n: int):
        return self._pad([n % self.p])

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
        raise ValueError(f"bad model specifier {spec!r}: "
                         "expected q0, mk:<k> or gf:<p>^<n>")
    k, p, n = match.groups()
    return mk(int(k)) if k is not None else gf(int(p), int(n))


# -- evaluation -------------------------------------------------------------

def _evaluator(t: Term, lift, var, add, mul, neg, div, same=None):
    """``fold``'s leaf and ops computing t: numeral n is lift(n), lifted
    once per call, a variable v is var(v), inv(p) is 1/p, and a pair of
    sides is same(lhs, rhs)."""
    consts = {n: lift(n) for cls, _, n in _plan(t)[0]
              if cls is None and n is not None}
    one = consts[1] if 1 in consts else lift(1)
    return (lambda node, n: var(node.name) if n is None else consts[n],
            {Add: add, Mul: mul, Neg: neg, Div: div,
             Inv: lambda a: div(one, a), _Pair: same})


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
        lambda name: ops.lift(env[name]), ops.add, ops.mul, ops.neg, ops.div)))


MAX_CARRIER = 1 << 20        # a finite model takes O(q) time and memory
MAX_TABLE_CARRIER = 2048     # three q x q int64 tables: 100 MB at q = 2048
SWEEP_CHUNK = 1 << 16        # assignments a sweep holds in arrays at once
MAX_ASSIGNMENTS = 1 << 30    # the most assignments an exhaustive check sweeps


def _carrier_too_large(name: str, size) -> CarrierTooLargeError:
    return CarrierTooLargeError(
        f"{name} has {size} elements, more than the {MAX_CARRIER} that a "
        "finite model is built with")


def _sweep_size(model: FiniteMeadow, k: int) -> int:
    """Assignments an exhaustive check of k variables sweeps over model;
    CarrierTooLargeError past MAX_ASSIGNMENTS or MAX_TABLE_CARRIER."""
    q = model.size
    count = q ** k
    if count > MAX_ASSIGNMENTS:
        raise CarrierTooLargeError(
            f"{model.name} has {q} elements, so {k} variables give {count} "
            f"assignments, more than the {MAX_ASSIGNMENTS} that exhaustive "
            "checking sweeps: check by sampling instead "
            "(--strategy sampled --samples N)")
    if q > MAX_TABLE_CARRIER:
        raise CarrierTooLargeError(
            f"{model.name} has {q} elements, more than the "
            f"{MAX_TABLE_CARRIER} that exhaustive checking tabulates: "
            "check by sampling instead (--strategy sampled --samples N)")
    return count


def _op_tables(model: FiniteMeadow):
    """Index tables (add, mul, neg, div) of a finite model, built once."""
    tables = getattr(model, "_op_tables", None)
    if tables is None:
        tables = model._op_tables = model._build_tables()
    return tables


def _check_exhaustive(model, sides, names):
    q, k = model.size, len(names)
    count = _sweep_size(model, k)
    add, mul, neg, div = _op_tables(model)
    import numpy as np

    # A chunk fixes the leading variables to plain ints and sweeps the
    # trailing ones, as many as fit in SWEEP_CHUNK assignments.  Trailing
    # variable j varies along axis j only and the table lookups broadcast,
    # so a subterm's array spans just the trailing variables it contains.
    width = 0
    while width < k and q ** (width + 1) <= SWEEP_CHUNK:
        width += 1
    lead, shape = k - width, (q,) * width
    env = {name: np.arange(q).reshape((1,) * j + (q,) + (1,) * (width - j - 1))
           for j, name in enumerate(names[lead:])}
    evaluator = _evaluator(
        sides, lambda n: model.index_of(model.of_int(n)), env.__getitem__,
        lambda a, b: add[a, b], lambda a, b: mul[a, b], neg.__getitem__,
        lambda a, b: div[a, b], operator.ne)
    # Chunks, and the assignments within a chunk, come in lexicographic
    # order over the carrier with the first variable most significant, so
    # the first mismatch is the lexicographically least counterexample.
    for fixed in itertools.product(range(q), repeat=lead):
        env.update(zip(names, fixed))
        mismatch = np.broadcast_to(fold(sides, *evaluator), shape)
        if mismatch.any():
            rest = np.unravel_index(int(np.argmax(mismatch)), shape)
            witness = {name: model.element_at(int(i))
                       for name, i in zip(names, fixed + rest)}
            return CheckReport(REFUTED, witness, count)
    return CheckReport(VALID, None, count)


def _check_sampled(model, sides, names, strategy: Sampled):
    rng = random.Random(strategy.seed)
    ops = model._program_ops()
    values: dict[str, Any] = {}
    evaluator = _evaluator(
        sides, lambda n: ops.lift(model.of_int(n)), values.__getitem__,
        ops.add, ops.mul, ops.neg, ops.div, ops.same)
    for i in range(strategy.count):
        env = {name: model.random_element(rng) for name in names}
        values.update((name, ops.lift(e)) for name, e in env.items())
        if not fold(sides, *evaluator):
            return CheckReport(REFUTED, env, i + 1, strategy.seed)
    return CheckReport(SAMPLED_OK, None, strategy.count, strategy.seed)


def check_eq(model: MeadowModel, lhs: Term, rhs: Term,
             strategy: Exhaustive | Sampled | None = None) -> CheckReport:
    """Check lhs = rhs in the model.

    Default strategy: Exhaustive on finite models, Sampled() on infinite
    ones.  Exhaustive verdicts are "valid" or "refuted" with the
    lexicographically least counterexample (variables in sorted name
    order); sampling yields "sampled_ok" or "refuted" with the first
    failing draw.  Reports are deterministic for fixed inputs.
    """
    sides = _Pair(lhs, rhs)
    names = variables(sides)
    if strategy is None:
        strategy = Exhaustive() if model.is_finite else Sampled()
    if isinstance(strategy, Exhaustive):
        if not model.is_finite:
            raise InfiniteExhaustiveError(
                f"cannot exhaust the carrier of {model.name}"
            )
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
