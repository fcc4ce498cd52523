"""Seeded inputs and independent reference answers for the benchmark.

Terms are generated here, in a plain nested-tuple form the library never
sees, by a copy of the test suite's generator: the same rng call sequence,
the same shape parameters and the same seeds (90125 for closed terms,
1300 + model size and 1400 for open ones), so the corpora are the suite's.
Keeping a copy means the inputs stay put when the tests change.

Everything that judges the library's output lives here too and never calls
the library: a reference evaluator (exact rationals with x/0 = 0, residues
modulo a square-free k with the weak inverse) and structure counts by the
benchmark's own iterative numbering.

Tuple nodes: ("zero",), ("one",), ("var", name), ("add", a, b),
("mul", a, b), ("neg", a), ("div", a, b), ("inv", a).  Numerals are the
library's unary chains ((0 + 1) + 1) ..., built out of the same nodes.
"""
from __future__ import annotations

import random
from fractions import Fraction

ZERO = ("zero",)
ONE = ("one",)


def corpus(seed: int, count: int, depth: int, closed: bool = False):
    """The suite's corpus for a seed: ``count`` terms from one stream."""
    rng = random.Random(seed)
    return [random_term(rng, depth, closed=closed) for _ in range(count)]


def numeral(n: int):
    t = ZERO
    for _ in range(abs(n)):
        t = ("add", t, ONE)
    return ("neg", t) if n < 0 else t


def random_term(rng: random.Random, depth: int, *, names=("x", "y", "z"),
                closed: bool = False, div_budget: int = 2, max_leaf: int = 4):
    """Same distribution and rng call order as the test suite's generator."""
    if depth <= 0 or rng.random() < 0.15:
        if closed or rng.random() < 0.5:
            return numeral(rng.randint(0, max_leaf))
        return ("var", rng.choice(names))

    def sub(d, budget):
        return random_term(rng, d, names=names, closed=closed,
                           div_budget=budget, max_leaf=max_leaf)

    roll = rng.random()
    if roll < 0.30:
        left = sub(depth - 1, div_budget)
        return ("add", left, sub(depth - 1, div_budget))
    if roll < 0.60:
        left = sub(depth - 1, div_budget)
        return ("mul", left, sub(depth - 1, div_budget))
    if roll < 0.78 or div_budget <= 0:
        return ("neg", sub(depth - 1, div_budget))
    num = sub(depth - 1, div_budget)
    return ("div", num, sub(min(depth - 1, 2), div_budget - 1))


# -- walking tuple terms without recursion ------------------------------------

def _postorder(t):
    """Nodes of a tuple term, children before parents."""
    out, stack = [], [(t, False)]
    while stack:
        node, done = stack.pop()
        if done:
            out.append(node)
            continue
        stack.append((node, True))
        if node[0] in ("add", "mul", "div"):
            stack.append((node[2], False))
            stack.append((node[1], False))
        elif node[0] in ("neg", "inv"):
            stack.append((node[1], False))
    return out


def variables(t) -> list[str]:
    return sorted({n[1] for n in _postorder(t) if n[0] == "var"})


def to_library(lib, t):
    """Build the library's term for a tuple term (iteratively)."""
    built = {}
    for node in _postorder(t):
        kind = node[0]
        if kind == "zero":
            v = lib.ZERO
        elif kind == "one":
            v = lib.ONE
        elif kind == "var":
            v = lib.Var(node[1])
        elif kind == "add":
            v = lib.Add(built[id(node[1])], built[id(node[2])])
        elif kind == "mul":
            v = lib.Mul(built[id(node[1])], built[id(node[2])])
        elif kind == "div":
            v = lib.Div(built[id(node[1])], built[id(node[2])])
        elif kind == "neg":
            v = lib.Neg(built[id(node[1])])
        else:
            v = lib.Inv(built[id(node[1])])
        built[id(node)] = v
    return built[id(t)]


_FIELDS = {
    "Zero": (), "One": (), "Var": (), "Add": ("left", "right"),
    "Mul": ("left", "right"), "Div": ("num", "den"), "Neg": ("arg",),
    "Inv": ("arg",),
}


def from_library(term):
    """Tuple form of a library term, read through its attributes only."""
    built = {}
    stack = [(term, False)]
    while stack:
        node, done = stack.pop()
        if id(node) in built:
            continue
        kind = type(node).__name__
        fields = _FIELDS[kind]
        if not done:
            stack.append((node, True))
            stack.extend((getattr(node, f), False) for f in reversed(fields))
            continue
        if kind == "Var":
            built[id(node)] = ("var", node.name)
        else:
            built[id(node)] = (kind.lower(),) + tuple(
                built[id(getattr(node, f))] for f in fields)
    return built[id(term)]


# -- reference evaluation -----------------------------------------------------

def _weak_inverses(k: int) -> list[int]:
    """w(b) with b*w*b = b and w*b*w = w mod k, by exhaustive search."""
    table = []
    for b in range(k):
        ws = [w for w in range(k)
              if (b * w * b - b) % k == 0 and (w * b * w - w) % k == 0]
        if len(ws) != 1:
            raise ValueError(f"{k} is not square-free")
        table.append(ws[0])
    return table


def reference_values(t, moduli=(6, 2)):
    """(value in q0, residue mod each k) of a closed tuple term.

    Division is totalized: x/0 = 0 over the rationals, and a/b = a * w(b)
    modulo k.  The prime-field residue mod 2 is also the value in every
    gf:2^n, whose prime subfield holds all closed terms.
    """
    weak = {k: _weak_inverses(k) for k in moduli}
    vals = {}
    for node in _postorder(t):
        kind = node[0]
        if kind == "zero":
            v = (Fraction(0),) + tuple(0 for _ in moduli)
        elif kind == "one":
            v = (Fraction(1),) + tuple(1 % k for k in moduli)
        elif kind == "var":
            raise ValueError("reference values exist for closed terms only")
        elif kind == "neg":
            a = vals[id(node[1])]
            v = (-a[0],) + tuple((-x) % k for x, k in zip(a[1:], moduli))
        elif kind == "inv":
            a = vals[id(node[1])]
            v = ((1 / a[0]) if a[0] else Fraction(0),) + tuple(
                weak[k][x] for x, k in zip(a[1:], moduli))
        else:
            a, b = vals[id(node[1])], vals[id(node[2])]
            if kind == "add":
                v = (a[0] + b[0],) + tuple(
                    (x + y) % k for x, y, k in zip(a[1:], b[1:], moduli))
            elif kind == "mul":
                v = (a[0] * b[0],) + tuple(
                    (x * y) % k for x, y, k in zip(a[1:], b[1:], moduli))
            else:
                v = ((a[0] / b[0]) if b[0] else Fraction(0),) + tuple(
                    (x * weak[k][y]) % k
                    for x, y, k in zip(a[1:], b[1:], moduli))
        vals[id(node)] = v
    return vals[id(t)]


# -- structure counts -------------------------------------------------------

class StructureCounter:
    """Tree nodes, distinct subterms and depth of library terms.

    Numbering is the benchmark's own: a node's key is its kind plus its
    children's numbers, assigned bottom-up without recursion, so it works
    on terms whose own __hash__ and __eq__ would exhaust the stack.
    Distinct subterms are counted across every term added.
    """

    def __init__(self):
        self.tree_nodes = 0
        self.max_depth = 0
        self._numbers: dict = {}

    @property
    def distinct_nodes(self) -> int:
        return len(self._numbers)

    def add(self, term) -> int:
        """Count one term; returns its tree-node count."""
        info = {}  # id -> (number, size, depth); shared objects counted once
        stack = [(term, False)]
        while stack:
            node, done = stack.pop()
            if id(node) in info:
                continue
            kind = type(node).__name__
            fields = _FIELDS[kind]
            if not done:
                stack.append((node, True))
                stack.extend((getattr(node, f), False) for f in fields)
                continue
            kids = [info[id(getattr(node, f))] for f in fields]
            key = (kind, node.name) if kind == "Var" else \
                (kind,) + tuple(k[0] for k in kids)
            number = self._numbers.setdefault(key, len(self._numbers))
            info[id(node)] = (number,
                              1 + sum(k[1] for k in kids),
                              1 + max((k[2] for k in kids), default=0))
        _, size, depth = info[id(term)]
        self.tree_nodes += size
        self.max_depth = max(self.max_depth, depth)
        return size
