"""Immutable terms over ring signatures extended with total division.

A term is a tree built from the constants 0 and 1, variables, addition,
multiplication, unary minus, and exactly one of two division primitives:
binary division (the divisive signature) or unary inverse (the inversive
signature).  Terms that mix the two primitives are rejected by the
operations that care.

Every structural induction over a term goes through ``fold``, one
iterative post-order walk, so terms nested 10^5 deep are safe there.
It folds structurally equal subterms once.  Its plan of a term's
structurally distinct nodes is kept for the term planned last, so folds
and subterm predicates on one term back to back walk it once; that term
and its plan stay alive until another term is planned.
The plan keys each distinct node, and those keys define structural
equality: ==, hash and pickling read them, so terms compare, serve as
dictionary keys and pickle at any depth and in time linear in their
distinct nodes.  Each record's repr walks on its own, with an explicit stack.
Operators +, -, * and / are overloaded for convenience; they build
trees, they never compute.
"""
from __future__ import annotations

import gc
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


_setattr = object.__setattr__


class _Record:
    """An immutable value whose fields are its ``__slots__``, in order.

    A subclass declares its fields once, in ``__slots__``, and defines
    no ``__init__``: the base writes one for it at import, as
    ``dataclasses`` does, with one parameter per field in slot order.
    The constructor sets each field once with ``_setattr``, then calls
    the class's ``_validate()`` if it has one, which raises on fields
    the value may not hold; classes without one pay no call.  A class's
    ``_defaults`` are the defaults of its trailing fields.  The base
    gives equality within one class, a hash consistent with it, the
    field-by-field repr at any depth, positional class patterns, and
    pickling and copying through the constructor.
    """

    __slots__ = ()
    _defaults = ()

    def __init_subclass__(cls):
        names = cls.__match_args__ = cls.__slots__
        # what == and hash read, in C: the field, the tuple of fields, or
        # for a class without fields the class itself
        cls._key = attrgetter(*names or ["__class__"])
        # written in a class statement of the same name, so that argument
        # errors name the class's __init__ as a hand-written one does
        body = [f"  _setattr(self, {name!r}, {name})" for name in names]
        if hasattr(cls, "_validate"):
            body.append("  self._validate()")
        source = "\n".join([f"class {cls.__name__}:",
                            f" def __init__(self, {', '.join(names)}):",
                            *(body or ["  pass"])])
        scope = {}
        exec(source, {"_setattr": _setattr, "__name__": cls.__module__},
             scope)
        cls.__init__ = scope[cls.__name__].__init__
        cls.__init__.__defaults__ = cls._defaults

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        # field by field, with an explicit stack, so deep records print too
        out, stack = [], [self]
        while stack:
            node = stack.pop()
            if node.__class__ is str:
                out.append(node)
                continue
            parts = []
            for name in node.__slots__:
                child = getattr(node, name)
                parts += [", ", f"{name}=", child if isinstance(child, _Record)
                          else repr(child)]
            parts[:1] = [f"{node.__class__.__qualname__}("]
            stack += reversed(parts + [")"])
        return "".join(out)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), tuple([getattr(self, n) for n in self.__slots__])


class Term(_Record):
    """Base class of all term nodes."""

    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or _plan(self)[2] == _plan(other)[2]

    def __hash__(self):
        return hash(tuple(_plan(self)[2]))

    def __reduce__(self):
        # the keys name children by position, so pickling and copying
        # recurse on no child however deep the term
        return _unflatten, (list(_plan(self)[2]),)

    def __deepcopy__(self, memo):
        return self     # terms are immutable

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


class Zero(Term):
    """The additive constant 0."""

    __slots__ = ()


class One(Term):
    """The multiplicative constant 1."""

    __slots__ = ()


class Var(Term):
    __slots__ = ("name",)


class Add(Term):
    __slots__ = ("left", "right")


class Mul(Term):
    __slots__ = ("left", "right")


class Neg(Term):
    __slots__ = ("arg",)


class Div(Term):
    """Binary division; in every shipped model x/0 evaluates to 0."""

    __slots__ = ("num", "den")


class Inv(Term):
    """Unary inverse; the inversive counterpart of Div."""

    __slots__ = ("arg",)


class _Num(Term):
    """The integer ``value`` as one leaf, which ``fold`` and the plan's
    keys take for ``mk_numeral(value)``; only printing builds it, so a
    large integer's text costs its digits, not one node per unit."""

    __slots__ = ("value",)
    __reduce__ = _Record.__reduce__     # as itself, not as its chain


class _Pair:
    """Two terms planned as one, so their equal subterms fold once."""

    __slots__ = ("left", "right")

    def __init__(self, left: Term, right: Term):
        self.left, self.right = left, right


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
    # only a variable is planned as a leaf with no integer, once per name
    return tuple(sorted(node.name for cls, node, n in _plan(t)[0]
                        if cls is None and n is None))


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
    the integer leaf of a printed result, or the constant 1, with n the
    integer it denotes, or a variable, with n None.  ``ops[type(node)]``
    folds any other node from its children's folds, in field order.  Numerals are found in linear time.
    Structurally equal subterms are folded once, equal leaves as the
    first of them, and each folded value is dropped after its last use.
    Folds of the same object back to back walk it once, and a check that
    pairs it right after with another term walks only that one: the last
    term planned and its plan stay alive until another term is planned.
    """
    plan, last, _ = _plan(t)
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


# The last term planned, its plan, last-use table and keys; no term is
# the sentinel.
_slot: tuple[Any, list, dict, dict] = (object(), [], {}, {})


def _plan(t: Term) -> tuple[list[tuple[Any, Any, Any]], dict[int | None, int],
                            dict[Any, int]]:
    """Each structurally distinct node of t once, children first, as
    (None, node, n) or (class, a, b), a and b being the children's
    positions, each position's last parent, and each node's key with its
    position; the plan of the term planned last is reused.  A pair whose
    left side was planned last extends copies of that plan, which is the
    prefix of its own, and walks only its right side, whose nodes shared
    with the left side below its root are found by their keys.

    A key is a variable name, the integer of a numeral, ``One`` for the
    constant 1, or (class, a, b) for an operation.  Keys are not terms,
    and two terms are structurally equal exactly when their keys are:
    they are what ==, hash and pickling read.
    """
    global _slot
    if _slot[0] is t:
        return _slot[1:4]
    # The walk allocates tuples, lists and dicts that hold no cycle, so
    # the cyclic collector, which would rescan the live term at each of
    # its runs, is paused for it.
    enabled = gc.isenabled()
    gc.disable()
    try:
        _slot = t, *_walk(t, _slot)
    finally:
        if enabled:
            gc.enable()
    return _slot[1:4]


def _walk(t: Term, slot: tuple) -> tuple[list, dict, dict]:
    """The plan of t, built as ``_plan`` describes, from the last slot."""
    # A stack entry's flag is the node's children once they are planned;
    # before, True marks a p + 1 step whose + 1 chain does not start at 0.
    plan: list[tuple[Any, Any, Any]] = []
    where: dict[int, int] = {}          # id(node) -> position
    index: dict[Any, int] = {}          # key -> position
    last: dict[int | None, int] = {}    # position -> its last parent's
    stack: list[tuple[Term, Any]] = [(t, False)]
    if t.__class__ is _Pair and t.left is slot[0]:
        plan, last, index = (x.copy() for x in slot[1:])
        where[id(t.left)] = len(plan) - 1
        stack = [(t, (t.left, t.right)), (t.right, False)]
    while stack:
        node, flag = stack.pop()
        cls = node.__class__
        if flag.__class__ is tuple:
            a = where[id(flag[0])]
            b = where[id(flag[1])] if len(flag) == 2 else None
            key = entry = cls, a, b
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
            # a variable named by other than a string is no term: its key
            # could equal a numeral's or be a term itself
            if n is None and (cls is not Var or node.name.__class__ is not str):
                if cls in _CHILDREN:
                    kids = _CHILDREN[cls](node)
                    stack.append((node, kids))
                    if len(kids) == 2:
                        stack.append((kids[1], False))
                    first = kids[0]
                    stack.append((first, flag and first.__class__ is Add
                                  and first.right.__class__ is One))
                    continue
                if cls is not _Num:
                    raise TypeError(f"not a term: {node!r}")
                n = node.value
            entry = None, node, n
            key = node.name if n is None else One if cls is One else n
        i = where[id(node)] = index.setdefault(key, len(plan))
        if i == len(plan):
            plan.append(entry)
            if entry[0] is not None:
                last[a] = last[b] = i
    return plan, last, index


_CHILDREN: dict[type, Callable[[Term], tuple[Term, ...]]] = {
    Add: attrgetter("left", "right"), Mul: attrgetter("left", "right"),
    _Pair: attrgetter("left", "right"),
    Div: attrgetter("num", "den"),
    Neg: lambda t: (t.arg,), Inv: lambda t: (t.arg,),
}
_REBUILD = {cls: cls for cls in (Add, Mul, Neg, Div, Inv)}


def _unflatten(keys: list) -> Term:
    """The term whose plan has the keys that ``Term.__reduce__`` pickled."""
    built: list[Term] = []
    for key in keys:
        if key.__class__ is tuple:
            cls, a, b = key
            built.append(cls(built[a]) if b is None
                         else cls(built[a], built[b]))
        else:
            built.append(Var(key) if key.__class__ is str else ONE
                         if key is One else mk_numeral(key))
    return built[-1]


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
