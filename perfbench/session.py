"""The README console session, with the answers the README states.

Each entry is (argv, exit code, expected stdout).  Expected stdout is the
README's literal text where the README prints it.  The five demos print
text the README only summarizes; for them the expectation is the list of
claims each demo makes, as regular expressions per line, plus a check of
the falsify witness by exact arithmetic, so that a change of wording in
an implementation detail (how many summands a decomposition lists) is
not read as a wrong answer.
"""
from __future__ import annotations

import re
from fractions import Fraction

SESSION = [
    (["eval", "1 + 1/2", "--model", "q0"], 0, "3/2\n"),
    (["eval", "x*x + x", "--model", "gf:2^2", "--assign", "x=a"], 0, "1\n"),
    (["check", "x/y = x*(1/y)", "--model", "mk:6"], 0,
     "Valid\nchecked 36 assignments exhaustively\n"),
    (["check", "1/(x + y) = 1/x + 1/y", "--model", "mk:5"], 1,
     "Refuted\ncounterexample: x = 1, y = 1\n"),
    (["check", "x*(1/x) = x/x", "--model", "q0"], 0,
     "SampledOk\n10000 samples, seed 0\n"),
    (["normalize", "(x + 1)*(x - 1)", "--canonical", "x"], 0, "x*x - 1\n"),
    (["simplify", "1 + 1/x", "--model", "mk:6"], 0,
     "(1 + 1*x*x*x)/1\nValid\nchecked 6 assignments exhaustively\n"),
    (["simplify", "1/x + 1/y", "--target", "sum-of-fractions"], 0,
     "1/x + 1/y\nsummands: 2\n"),
    (["falsify", "x + 1", "x"], 0,
     "witness: 0\n1 + 1/x at witness: 1\nf/g at witness: 0\n"),
    (["char", "--model", "gf:3^2"], 0, "3\n"),
    (["check", "x*(1/x) = x/x", "--model", "q0", "--format", "json"], 0,
     '{"command":"check","counterexample":null,"evaluations":10000,'
     '"lhs":"x*(1/x)","model":"q0","rhs":"x/x","seed":0,'
     '"verdict":"sampled_ok"}\n'),
    (["demo", "omega"], 0, [
        r"term: \(1 - 2/2\)\*\(x\*x - x\)",
        r"q0: all 41 closed instances x := k, \|k\| <= 20 evaluate to 0: True",
        r"mk:2: all 41 closed instances x := k, \|k\| <= 20 "
        r"evaluate to 0: True",
        r"mk:6: all 41 closed instances x := k, \|k\| <= 20 "
        r"evaluate to 0: True",
        r"gf:2\^2: Refuted with counterexample x = a",
    ]),
    (["demo", "separation"], 0, [
        r"term: 1 \+ 1/2",
        r"q0 value: 3/2",
        r"mk:2 value: 1",
        r"no single closed fraction evaluates to both",
    ]),
    (["demo", "finite-simple"], 0, [
        r"model: mk:6",
        r"least exponents with x\^n = x\^m: \(n, m\) = \(3, 1\)",
        r"reciprocal exponent: 2\(n - m\) - 1 = 3",
        r"1/x = x\^3: Valid \(6 assignments\)",
        r"1 \+ 1/x  ->  \(1 \+ 1\*x\*x\*x\)/1  \[Valid\]",
    ]),
    (["demo", "sum-of-fractions"], 0, [
        r"1/\(1/x\)  ->  x\*x/x",
        r"1/\(1/x \+ 1/y\)  ->  [2-9] summands:",
        r"(  \(.+\) / \(.+\)\n)+mk:6 exhaustive: Valid \(36 assignments\)",
        r"q0 sampled: SampledOk \(1000 samples, seed 0\)",
    ]),
    (["demo", "falsify-q0"], 0, [
        r"claim: 1 \+ 1/x = 1/1 over the rationals",
        r"constructed witness: x = (?P<w>-?\d+(/\d+)?)",
        r"left side: (?P<l>-?\d+(/\d+)?); right side: (?P<r>-?\d+(/\d+)?)",
    ]),
]

# The cheap reproducer of a known defect (deep terms exhaust the stack and
# the CLI reports it as exit 1).  It runs once per run, outside the timed
# session, because the benchmark's ops must not fail at the commit that
# defines it; its outcome is printed with the report.
KNOWN_DEFECT_PROBE = (["check", "x^2000 = x^2", "--model", "mk:7"], 0,
                      "Valid\nchecked 7 assignments exhaustively\n")


def mismatch(expected, code: int, want_code: int, out: str) -> str | None:
    """Why the output misses the expectation, or None when it matches."""
    if code != want_code:
        return f"exit {code}, expected {want_code}"
    if isinstance(expected, str):
        return None if out == expected else f"stdout {out!r}"
    # Claims: the patterns, joined line by line, must match all of stdout.
    pattern = "\n".join(expected) + "\n"
    found = re.fullmatch(pattern, out)
    if found is None:
        return f"stdout {out!r}"
    if "w" in found.groupdict():
        # falsify-q0: the witness must refute 1 + 1/x = 1/1 exactly.
        w = Fraction(found["w"])
        lhs = 1 + (1 / w if w else Fraction(0))
        if Fraction(found["l"]) != lhs or Fraction(found["r"]) != 1 \
                or lhs == 1:
            return f"witness {w} does not refute the claim"
    return None
