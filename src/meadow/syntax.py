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

The parser is one loop over the tokens that keeps each open parenthesis
level on an explicit stack, so nesting depth is bounded by memory only.

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

_SYMBOLS = "+-*/^()"


def _tokenize(text: str) -> list[tuple[str, str, int, int]]:
    tokens = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        j = i + 1
        if c in _SYMBOLS:
            tokens.append((c, c, line, col))
        elif c.isdecimal():
            while j < n and text[j].isdecimal():
                j += 1
            tokens.append(("int", text[i:j], line, col))
        elif c.isalpha() or c == "_":
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("ident", text[i:j], line, col))
        elif c == "\n":
            line += 1
            col = 0  # the next character is in column 1
        elif not c.isspace():
            raise ParseError(f"unexpected character {c!r}", line, col,
                             found=c)
        col += j - i
        i = j
    tokens.append(("eof", "", line, col))
    return tokens


def _literal_value(tok) -> int:
    # digits first: int() of a long literal is slow, and CPython refuses
    # one past its digit limit
    digits = tok[1].lstrip("0") or "0"
    if len(digits) > len(str(_MAX_LITERAL)) or int(digits) > _MAX_LITERAL:
        raise ParseError(
            f"integer literal of {len(tok[1])} digits is too large"
            f" to expand (limit {_MAX_LITERAL})",
            tok[2], tok[3], found=tok[1],
        )
    return int(digits)


def _expected(expected: str, tok) -> ParseError:
    found = tok[1] or "end of input"
    return ParseError(f"expected {expected}, found {found!r}", tok[2],
                      tok[3], expected=expected, found=found)


def _foreign(tok, signature: str) -> SignatureError:
    return SignatureError(f"{tok[1]!r} is not part of the {signature}"
                          f" signature (line {tok[2]}, column {tok[3]})")


def parse(text: str, signature: str = "divisive") -> Term:
    """Parse text into a term under the given signature mode.

    signature is "divisive" (binary /) or "inversive" (unary inv).
    Raises ParseError for malformed input and SignatureError when the
    text uses the division syntax of the other mode.
    """
    if signature not in ("divisive", "inversive"):
        raise ValueError(f"unknown signature {signature!r}")
    divisive = signature == "divisive"
    tokens = _tokenize(text)
    pos = 0
    # The open level's partial sum and product and their pending
    # operators; each enclosing level's are saved in its frame, with the
    # minuses written before the group and whether it is inv(...).
    total = add = product = mul = None
    frames = []
    while True:
        # operand: the unary minuses, then an atom or an opening group
        negations = 0
        while tokens[pos][0] == "-":
            pos += 1
            negations += 1
        tok = tokens[pos]
        kind = tok[0]
        pos += 1
        if kind == "int":
            value = _literal_value(tok)
            t = ONE if value == 1 else mk_numeral(value)
        elif kind == "ident" and tok[1] != "inv":
            t = Var(tok[1])
        elif kind == "ident" or kind == "(":
            if kind == "ident":
                if divisive:
                    raise _foreign(tok, "divisive")
                if tokens[pos][0] != "(":
                    raise _expected("'('", tokens[pos])
                pos += 1
            frames.append((total, add, product, mul, negations,
                           kind == "ident"))
            total = add = product = mul = None
            continue
        else:
            raise _expected("an integer, identifier or '('", tok)
        # operators: t's exponent, its minuses, then the pending * or /
        # and + or -; a closing parenthesis ends a group, which is then
        # the operand of its enclosing level
        while True:
            if tokens[pos][0] == "^":
                pos += 1
                if tokens[pos][0] != "int":
                    raise _expected("an integer exponent", tokens[pos])
                t = power(t, _literal_value(tokens[pos]))
                pos += 1
            for _ in range(negations):
                t = Neg(t)
            product = (t if mul is None else Mul(product, t) if mul == "*"
                       else Div(product, t))
            tok = tokens[pos]
            kind = tok[0]
            if kind == "*" or kind == "/":
                if not divisive and kind == "/":
                    raise _foreign(tok, "inversive")
                mul = kind
                pos += 1
                break
            total = (product if add is None else Add(total, product)
                     if add == "+" else Add(total, Neg(product)))
            if kind == "+" or kind == "-":
                add, mul = kind, None
                pos += 1
                break
            if kind != (")" if frames else "eof"):
                raise _expected("')'" if frames else "end of input", tok)
            if not frames:
                return total
            pos += 1
            t = total
            total, add, product, mul, negations, inv = frames.pop()
            if inv:
                t = Inv(t)


# Binding strength of each node shape; a child is parenthesized when its
# own level is below what its position requires.
_LEVEL_ADD = 1
_LEVEL_MUL = 2
_LEVEL_NEG = 3
_LEVEL_ATOM = 4

# A rendered subterm is (level, text, negated, size): the text for
# _join, the rendering of a unary minus's argument, and the length of
# the text, which _join checks before it expands anything.

# The most characters print_term spells out.  A term's text grows with
# its tree, which sharing makes exponential in its distinct nodes.
_MAX_PRINTED = 1 << 24


def _fmt(r, min_level: int):
    return r[1] if r[0] >= min_level else ("(", r[1], ")")


def _width(r, min_level: int) -> int:
    return r[3] if r[0] >= min_level else r[3] + 2


def _neg(r):
    return _LEVEL_NEG, ("-", _fmt(r, _LEVEL_NEG)), r, 1 + _width(r, _LEVEL_NEG)


def _render_leaf(node, n):
    # a literal is spelled when parsing the spelling rebuilds the node
    if n is None:
        return _LEVEL_ATOM, node.name, None, len(node.name)
    if abs(n) == 1 and not isinstance(node, One):  # the numeral 0 + 1
        r = _LEVEL_ADD, "0 + 1", None, 5
    else:
        digits = str(abs(n))
        r = _LEVEL_ATOM, digits, None, len(digits)
    return _neg(r) if n < 0 else r


def _add(left, right):
    sign, right = (" + ", right) if right[2] is None else (" - ", right[2])
    return _LEVEL_ADD, (_fmt(left, _LEVEL_ADD), sign,
                        _fmt(right, _LEVEL_MUL)), None, (
        _width(left, _LEVEL_ADD) + 3 + _width(right, _LEVEL_MUL))


def _product(sign):
    return lambda left, right: (_LEVEL_MUL, (
        _fmt(left, _LEVEL_MUL), sign, _fmt(right, _LEVEL_NEG)), None,
        _width(left, _LEVEL_MUL) + 1 + _width(right, _LEVEL_NEG))


_RENDER = {
    Add: _add,
    Mul: _product("*"),
    Div: _product("/"),
    Neg: _neg,
    Inv: lambda arg: (_LEVEL_ATOM, ("inv(", arg[1], ")"), None, arg[3] + 5),
}


def _join(r) -> str:
    """The text of a rendered subterm; ValueError, as for an int past
    CPython's digit limit, when it is longer than _MAX_PRINTED."""
    if r[3] > _MAX_PRINTED:
        raise ValueError(f"the term's text has {r[3]} characters, more "
                         f"than the {_MAX_PRINTED} that printing spells out")
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
    in the output can be dropped without changing the parse.  A text
    longer than _MAX_PRINTED is refused with ValueError before any of
    it is built.
    """
    return _join(fold(t, _render_leaf, _RENDER))


def _frame(kind: str, fields) -> int:
    """The characters of {"node": kind, field: ...} as ``cli._dumps``
    writes it (sorted keys, no whitespace), without the fields' values:
    the braces, the commas, the quoted keys and the quoted kind."""
    return len(kind) + 11 + sum(len(field) + 4 for field in fields)


def _data_op(cls):
    kind, fields = cls.__name__.lower(), cls.__slots__
    frame = _frame(kind, fields)
    return lambda *children: (
        {"node": kind, **{f: data for f, (data, _) in zip(fields, children)}},
        frame + sum(size for _, size in children))


# A fold value is a subterm's dict and the length of its JSON text.
_DATA = {cls: _data_op(cls) for cls in (Add, Mul, Neg, Div, Inv)}


def _data_leaf(node, n):
    if n is None:
        import json  # here, since only a JSON tree needs it
        return ({"node": "var", "name": node.name},
                _frame("var", ["name"]) + len(json.dumps(node.name)))
    one = {"node": "one"}, _frame("one", [])
    if isinstance(node, One):
        return one
    data = {"node": "zero"}, _frame("zero", [])
    for _ in range(abs(n)):
        data = _DATA[Add](data, one)
    return _DATA[Neg](data) if n < 0 else data


def term_to_data(t: Term):
    """Plain-data (JSON-ready) encoding of a term tree.

    Structurally equal subterms are encoded as one shared dict.  The
    fold carries the length of each dict's JSON text, which sharing can
    make exponential in the term's distinct nodes, so a tree whose text
    is longer than _MAX_PRINTED is refused with ValueError, as printing
    refuses one.
    """
    data, size = fold(t, _data_leaf, _DATA)
    if size > _MAX_PRINTED:
        raise ValueError(f"the term's JSON tree has {size} characters, more "
                         f"than the {_MAX_PRINTED} that encoding spells out")
    return data


_FROM_DATA = {cls.__name__.lower(): cls for cls in _DATA}


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
            cls = _FROM_DATA[node]
            fields = cls.__slots__
            if not ready:
                stack.append((item, True))
                stack.extend((item[f], False) for f in reversed(fields))
                continue
            t = cls(*(built[id(item[f])] for f in fields))
        else:
            raise ValueError(f"unknown node kind {node!r}")
        built[id(item)] = t
    return built[id(data)]
