"""Immutable terms over ring signatures extended with total division.

A term is a tree built from the constants 0 and 1, variables, addition,
multiplication, unary minus, and exactly one of two division primitives:
binary division (the divisive signature) or unary inverse (the inversive
signature).  Terms that mix the two primitives are rejected by the
operations that care.

Every structural induction over a term goes through ``fold``, one
iterative post-order walk, so terms nested 10^5 deep are safe there.
Its plan of a term's distinct nodes is kept for the term planned last,
so folds and subterm predicates on one term back to back walk it once;
that term and its plan stay alive until another term is planned.
Structural equality and hashing are derived by the dataclasses, and
recursive: terms compare and serve as dictionary keys directly, below
the recursion limit.  Operators +, -, * and / are overloaded for
convenience; they build trees, they never compute.
"""
from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Any, Callable, Iterator, Mapping

from .errors import MixedSignatureError

__all__ = [
    "Term", "Zero", "One", "Var", "Add", "Mul", "Neg", "Div", "Inv",
    "ZERO", "ONE",
    "mk_numeral", "numeral_value", "power",
    "iter_subterms", "contains_div", "contains_inv", "is_divisive",
    "is_inversive", "is_closed", "variables",
    "is_fraction", "is_simple_fraction", "wrap_as_fraction",
    "fold", "substitute", "to_inversive", "to_divisive",
]


class Term:
    """Base class of all term nodes."""

    __slots__ = ()

    def __add__(self, other: "Term") -> "Term":
        return Add(self, other)

    def __sub__(self, other: "Term") -> "Term":
        return Add(self, Neg(other))

    def __mul__(self, other: "Term") -> "Term":
        return Mul(self, other)

    def __neg__(self) -> "Term":
        return Neg(self)

    def __truediv__(self, other: "Term") -> "Term":
        return Div(self, other)


@dataclass(frozen=True, slots=True)
class Zero(Term):
    """The additive constant 0."""


@dataclass(frozen=True, slots=True)
class One(Term):
    """The multiplicative constant 1."""


@dataclass(frozen=True, slots=True)
class Var(Term):
    name: str


@dataclass(frozen=True, slots=True)
class Add(Term):
    left: Term
    right: Term


@dataclass(frozen=True, slots=True)
class Mul(Term):
    left: Term
    right: Term


@dataclass(frozen=True, slots=True)
class Neg(Term):
    arg: Term


@dataclass(frozen=True, slots=True)
class Div(Term):
    """Binary division; in every shipped model x/0 evaluates to 0."""

    num: Term
    den: Term


@dataclass(frozen=True, slots=True)
class Inv(Term):
    """Unary inverse; the inversive counterpart of Div."""

    arg: Term


ZERO = Zero()
ONE = One()


def mk_numeral(n: int) -> Term:
    """Numeral term for the integer n.

    0 maps to the constant 0 and each successor appends + 1, so 3 becomes
    ((0 + 1) + 1) + 1; negative numerals wrap the positive one in unary
    minus.  The tree is linear in |n|.
    """
    t: Term = ZERO
    for _ in range(abs(n)):
        t = Add(t, ONE)
    return Neg(t) if n < 0 else t


def numeral_value(t: Term) -> int | None:
    """The integer n if t is exactly mk_numeral(n), else None.

    That is the one case where ``fold`` plans all of t as a single
    numeral leaf; 1 is planned as a leaf too, but is no numeral chain.
    """
    plan = _plan(t)[0]
    return plan[0][2] if len(plan) == 1 and t.__class__ is not One else None


def power(t: Term, n: int) -> Term:
    """n-fold product sugar: power(t, 0) = 1 and power(t, k+1) = power(t, k) * t."""
    if n < 0:
        raise ValueError("exponent must be a natural number")
    acc: Term = ONE
    for _ in range(n):
        acc = Mul(acc, t)
    return acc


def iter_subterms(t: Term) -> Iterator[Term]:
    """All subterms of t in pre-order, iteratively (safe for deep numerals)."""
    stack = [t]
    while stack:
        node = stack.pop()
        yield node
        children = _CHILDREN.get(node.__class__)
        if children is not None:
            stack.extend(reversed(children(node)))


def contains_div(t: Term) -> bool:
    return any(cls is Div for cls, _, _ in _plan(t)[0])


def contains_inv(t: Term) -> bool:
    return any(cls is Inv for cls, _, _ in _plan(t)[0])


def is_divisive(t: Term) -> bool:
    """True when t stays inside the binary-division signature."""
    return not contains_inv(t)


def is_inversive(t: Term) -> bool:
    """True when t stays inside the unary-inverse signature."""
    return not contains_div(t)


def is_closed(t: Term) -> bool:
    return not variables(t)


def variables(t: Term) -> tuple[str, ...]:
    """Variable names occurring in t, sorted lexicographically."""
    # only a variable is planned as a leaf with no integer
    return tuple(sorted({node.name for cls, node, n in _plan(t)[0]
                         if cls is None and n is None}))


def _require_divisive(t: Term) -> None:
    if contains_inv(t):
        raise MixedSignatureError("term contains the unary inverse operator")


def is_fraction(t: Term) -> bool:
    """True when the outermost node of t is a division."""
    _require_divisive(t)
    return isinstance(t, Div)


def is_simple_fraction(t: Term) -> bool:
    """True when t is a division whose two sides are division-free."""
    _require_divisive(t)
    return (
        isinstance(t, Div)
        and not contains_div(t.num)
        and not contains_div(t.den)
    )


def wrap_as_fraction(t: Term) -> Div:
    """t as the trivial fraction t / 1."""
    return Div(t, ONE)


def fold(t: Term, leaf: Callable[[Term, int | None], Any],
         ops: Mapping[type, Callable[..., Any]]) -> Any:
    """Structural induction over t, bottom-up and without recursion.

    ``leaf(node, n)`` folds a leaf: a numeral chain, handed over whole,
    or the constant 1, with n the integer it denotes, or a variable, with
    n None.  ``ops[type(node)]`` folds any other node from its children's
    folds, in field order.  Numerals are found in linear time.  A subterm
    occurring several times as the same object is folded once, and each
    folded value is dropped after its last use.  Folds of the same object
    back to back walk it once: the last term planned and its plan stay
    alive until another term is planned.
    """
    plan, last = _plan(t)
    values: list[Any] = [None] * len(plan)
    for i, (cls, a, b) in enumerate(plan):
        if cls is None:
            values[i] = leaf(a, b)
            continue
        op = ops[cls]
        values[i] = op(values[a]) if b is None else op(values[a], values[b])
        if last[a] == i:
            values[a] = None
        if b is not None and last[b] == i:
            values[b] = None
    return values[-1]


# The last term planned, its plan and last-use table; no term is the sentinel.
_slot: tuple[Any, list, dict] = (object(), [], {})


def _plan(t: Term) -> tuple[list[tuple[Any, Any, Any]], dict[int | None, int]]:
    """Each distinct node of t once, children first, as (None, node, n) or
    (class, a, b), a and b being the children's positions, and each
    position's last parent; the plan of the term planned last is reused.
    """
    global _slot
    slot = _slot
    if slot[0] is t:
        return slot[1], slot[2]
    # A stack entry's flag is the node's children once they are planned;
    # before, True marks a p + 1 step whose + 1 chain does not start at 0.
    plan: list[tuple[Any, Any, Any]] = []
    where: dict[int, int] = {}
    last: dict[int | None, int] = {}    # position -> its last parent's
    stack: list[tuple[Term, Any]] = [(t, False)]
    while stack:
        node, flag = stack.pop()
        cls = node.__class__
        if flag.__class__ is tuple:
            a = where[id(flag[0])]
            b = where[id(flag[1])] if len(flag) == 2 else None
            last[a] = last[b] = len(plan)
            entry = cls, a, b
        elif id(node) in where:
            continue
        else:
            n = 1 if cls is One else 0 if cls is Zero else None
            head = node.arg if cls is Neg else node
            if not flag and head.__class__ is Add and head.right.__class__ is One:
                count, base = 0, head
                while base.__class__ is Add and base.right.__class__ is One:
                    count, base = count + 1, base.left
                if base.__class__ is Zero:
                    n = count if head is node else -count
                flag = n is None
            if n is None and cls is not Var:
                if cls not in _CHILDREN:
                    raise TypeError(f"not a term: {node!r}")
                kids = _CHILDREN[cls](node)
                stack.append((node, kids))
                if len(kids) == 2:
                    stack.append((kids[1], False))
                first = kids[0]
                stack.append((first, flag and first.__class__ is Add
                              and first.right.__class__ is One))
                continue
            entry = None, node, n
        where[id(node)] = len(plan)
        plan.append(entry)
    _slot = t, plan, last
    return plan, last


_CHILDREN: dict[type, Callable[[Term], tuple[Term, ...]]] = {
    Add: attrgetter("left", "right"), Mul: attrgetter("left", "right"),
    Div: attrgetter("num", "den"),
    Neg: lambda t: (t.arg,), Inv: lambda t: (t.arg,),
}
_REBUILD = {cls: cls for cls in (Add, Mul, Neg, Div, Inv)}


def substitute(t: Term, binding: Mapping[str, Term]) -> Term:
    """Simultaneous replacement of variables; unfamiliar names are kept."""
    return fold(t, lambda node, n: node if n is not None
                else binding.get(node.name, node), _REBUILD)


def to_inversive(t: Term) -> Term:
    """Rewrite every p / q into p * inv(q).

    The input must be purely divisive; mixing signatures is an error.
    """
    _require_divisive(t)
    return fold(t, lambda node, n: node,
                {**_REBUILD, Div: lambda p, q: Mul(p, Inv(q))})


def to_divisive(t: Term) -> Term:
    """Rewrite every inv(p) into 1 / p.

    The input must be purely inversive; mixing signatures is an error.
    """
    if contains_div(t):
        raise MixedSignatureError("term contains binary division")
    return fold(t, lambda node, n: node,
                {**_REBUILD, Inv: lambda p: Div(ONE, p)})
