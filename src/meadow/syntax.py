"""Concrete syntax: parsing, precedence-aware printing, serialization.

Grammar (whitespace between tokens is ignored)::

    term  := sum
    sum   := prod (("+" | "-") prod)*
    prod  := unary (("*" | "/") unary)*
    unary := "-" unary | atom ("^" nat)?
    atom  := int | ident | "(" term ")" | "inv" "(" term ")"

Binary + and - bind loosest, then * and /, then unary -, then ^.  The two
binary additive operators and the two multiplicative ones associate to the
left.  Subtraction is sugar: p - q parses to p + (-q) and is printed back
that way; it is never a node of its own.  Likewise t ^ n is expanded at
parse time into the n-fold product and never stored.

Integer literals denote numeral terms.  0 and 1 parse to the constants;
any larger literal n parses to mk_numeral(n).  The printer re-sugars
exactly the shapes that parse back to themselves, so round-tripping is
structural: parse(print_term(t)) == t.

Parentheses, those of inv(...) included, nest at most 150 deep; deeper
input raises ParseError.  Long sums, products and runs of unary minus
have no such bound.

The choice of division syntax is a mode: "/" is only legal under the
"divisive" signature and "inv(...)" only under "inversive"; using the
wrong one raises SignatureError rather than ParseError.
"""
from __future__ import annotations

from .errors import ParseError, SignatureError
from .terms import (
    Add, Div, Inv, Mul, Neg, One, Term, Var, ZERO, ONE,
    fold, mk_numeral, power,
)

__all__ = [
    "parse", "print_term", "term_to_data", "term_from_data",
]

# Expanding a literal n builds a tree with n nodes; past this bound the
# eager expansion would dominate memory, so refuse early.
_MAX_LITERAL = 100_000

# Each open "(" costs the parser four stack frames; the bound leaves room
# for the caller's frames below the default recursion limit of 1000.
_MAX_NESTING = 150

_SYMBOLS = "+-*/^()"


def _tokenize(text: str) -> list[tuple[str, str, int, int]]:
    tokens = []
    line, col = 1, 1
    i, n = 0, len(text)
    depth = 0
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c.isspace():
            col += 1
            i += 1
            continue
        if c in _SYMBOLS:
            depth += (c == "(") - (c == ")")
            if depth > _MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than "
                                 f"{_MAX_NESTING}", line, col, found=c)
            tokens.append((c, c, line, col))
            col += 1
            i += 1
            continue
        if c.isdecimal():
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            tokens.append(("int", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("ident", text[i:j], line, col))
            col += j - i
            i = j
            continue
        raise ParseError(f"unexpected character {c!r}", line, col, found=c)
    tokens.append(("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, tokens, signature):
        self.tokens = tokens
        self.pos = 0
        self.signature = signature

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, expected):
        kind, text, line, col = self.peek()
        found = text if text else "end of input"
        raise ParseError(
            f"expected {expected}, found {found!r}",
            line, col, expected=expected, found=found,
        )

    def expect(self, kind):
        if self.peek()[0] != kind:
            self.fail(repr(kind))
        return self.advance()

    def parse(self) -> Term:
        t = self.sum()
        if self.peek()[0] != "eof":
            self.fail("end of input")
        return t

    def sum(self) -> Term:
        t = self.prod()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            rhs = self.prod()
            t = Add(t, rhs if op == "+" else Neg(rhs))
        return t

    def prod(self) -> Term:
        t = self.unary()
        while self.peek()[0] in ("*", "/"):
            _, _, line, col = self.peek()
            op = self.advance()[0]
            if op == "/" and self.signature != "divisive":
                raise SignatureError(
                    f"'/' is not part of the inversive signature"
                    f" (line {line}, column {col})"
                )
            rhs = self.unary()
            t = Mul(t, rhs) if op == "*" else Div(t, rhs)
        return t

    def unary(self) -> Term:
        negations = 0
        while self.peek()[0] == "-":
            self.advance()
            negations += 1
        t = self.atom()
        if self.peek()[0] == "^":
            self.advance()
            if self.peek()[0] != "int":
                self.fail("an integer exponent")
            t = power(t, self._literal_value(self.advance()))
        for _ in range(negations):
            t = Neg(t)
        return t

    def _literal_value(self, tok) -> int:
        # digits first: int() of a long literal is slow, and CPython
        # refuses one past its digit limit
        digits = tok[1].lstrip("0") or "0"
        if (len(digits) > len(str(_MAX_LITERAL))
                or int(digits) > _MAX_LITERAL):
            raise ParseError(
                f"integer literal of {len(tok[1])} digits is too large"
                f" to expand (limit {_MAX_LITERAL})",
                tok[2], tok[3], found=tok[1],
            )
        return int(digits)

    def atom(self) -> Term:
        kind, text, line, col = self.peek()
        if kind == "int":
            self.advance()
            value = self._literal_value((kind, text, line, col))
            if value == 0:
                return ZERO
            if value == 1:
                return ONE
            return mk_numeral(value)
        if kind == "ident":
            self.advance()
            if text == "inv":
                if self.signature != "inversive":
                    raise SignatureError(
                        f"'inv' is not part of the divisive signature"
                        f" (line {line}, column {col})"
                    )
                self.expect("(")
                arg = self.sum()
                self.expect(")")
                return Inv(arg)
            return Var(text)
        if kind == "(":
            self.advance()
            t = self.sum()
            self.expect(")")
            return t
        self.fail("an integer, identifier or '('")


def parse(text: str, signature: str = "divisive") -> Term:
    """Parse text into a term under the given signature mode.

    signature is "divisive" (binary /) or "inversive" (unary inv).
    Raises ParseError for malformed input and SignatureError when the
    text uses the division syntax of the other mode.
    """
    if signature not in ("divisive", "inversive"):
        raise ValueError(f"unknown signature {signature!r}")
    return _Parser(_tokenize(text), signature).parse()


# Binding strength of each node shape; a child is parenthesized when its
# own level is below what its position requires.
_LEVEL_ADD = 1
_LEVEL_MUL = 2
_LEVEL_NEG = 3
_LEVEL_ATOM = 4

# A rendered subterm is (level, text, negated): text is a string or a
# tuple of texts, joined once at the end so that deep terms print in
# linear time; negated renders the argument of a unary minus.


def _fmt(r, min_level: int):
    return r[1] if r[0] >= min_level else ("(", r[1], ")")


def _neg(r):
    return _LEVEL_NEG, ("-", _fmt(r, _LEVEL_NEG)), r


def _render_leaf(node, n):
    # a literal is spelled when parsing the spelling rebuilds the node
    if n is None:
        return _LEVEL_ATOM, node.name, None
    if n < 0:
        return _neg(_render_leaf(None, -n))
    if n == 1 and not isinstance(node, One):  # the numeral 0 + 1
        return _LEVEL_ADD, "0 + 1", None
    return _LEVEL_ATOM, str(n), None


def _add(left, right):
    sign, right = (" + ", right) if right[2] is None else (" - ", right[2])
    return _LEVEL_ADD, (_fmt(left, _LEVEL_ADD), sign,
                        _fmt(right, _LEVEL_MUL)), None


def _product(sign):
    return lambda left, right: (_LEVEL_MUL, (
        _fmt(left, _LEVEL_MUL), sign, _fmt(right, _LEVEL_NEG)), None)


_RENDER = {
    Add: _add,
    Mul: _product("*"),
    Div: _product("/"),
    Neg: _neg,
    Inv: lambda arg: (_LEVEL_ATOM, ("inv(", arg[1], ")"), None),
}


def _join(r) -> str:
    """The text of a rendered subterm."""
    out, stack = [], [r[1]]
    while stack:
        text = stack.pop()
        if isinstance(text, str):
            out.append(text)
        else:
            stack.extend(reversed(text))
    return "".join(out)


def print_term(t: Term) -> str:
    """Render t with minimal parentheses.

    Round-trips: parse(print_term(t)) is structurally equal to t, with
    numeral subtrees re-sugared to integer literals.  No parenthesis pair
    in the output can be dropped without changing the parse.
    """
    return _join(fold(t, _render_leaf, _RENDER))


def _data_leaf(node, n):
    if n is None:
        return {"node": "var", "name": node.name}
    if isinstance(node, One):
        return {"node": "one"}
    data = {"node": "zero"}
    for _ in range(abs(n)):
        data = {"node": "add", "left": data, "right": {"node": "one"}}
    return {"node": "neg", "arg": data} if n < 0 else data


_DATA = {
    Add: lambda left, right: {"node": "add", "left": left, "right": right},
    Mul: lambda left, right: {"node": "mul", "left": left, "right": right},
    Neg: lambda arg: {"node": "neg", "arg": arg},
    Div: lambda num, den: {"node": "div", "num": num, "den": den},
    Inv: lambda arg: {"node": "inv", "arg": arg},
}


def term_to_data(t: Term):
    """Plain-data (JSON-ready) encoding of a term tree.

    Structurally equal subterms are encoded as one shared dict.
    """
    return fold(t, _data_leaf, _DATA)


_FROM_DATA = {
    "add": (Add, ("left", "right")), "mul": (Mul, ("left", "right")),
    "neg": (Neg, ("arg",)), "div": (Div, ("num", "den")),
    "inv": (Inv, ("arg",)),
}


def term_from_data(data) -> Term:
    """Inverse of term_to_data, with an explicit stack so deep trees decode
    like shallow ones.  A dict occurring several times as the same object
    decodes to one shared term object."""
    built: dict[int, Term] = {}
    stack = [(data, False)]
    while stack:
        item, ready = stack.pop()
        if id(item) in built:
            continue
        node = item["node"]
        if node == "zero":
            t = ZERO
        elif node == "one":
            t = ONE
        elif node == "var":
            t = Var(item["name"])
        elif node in _FROM_DATA:
            cls, fields = _FROM_DATA[node]
            if not ready:
                stack.append((item, True))
                stack.extend((item[f], False) for f in reversed(fields))
                continue
            t = cls(*(built[id(item[f])] for f in fields))
        else:
            raise ValueError(f"unknown node kind {node!r}")
        built[id(item)] = t
    return built[id(data)]
