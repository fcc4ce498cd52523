"""Batch command line for the library: parse, eval, check, transform, demo.

Every subcommand is a thin wrapper over one library call; anything the
CLI prints can be reproduced programmatically with the same arguments.
Exit status: 0 for success (including Valid and SampledOk verdicts),
1 when a check is Refuted (the counterexample is printed), 2 for usage
or domain errors.  ``--format json`` emits one line of deterministic
JSON (sorted keys, no whitespace) so reruns are byte-identical.
"""
from __future__ import annotations

import argparse
import sys

from .errors import MeadowError
from .models import (
    Exhaustive, Sampled, REFUTED, VALID, _sweep_size,
    characteristic, check_eq, eval_term, gf, mk, model_from_spec, q0,
)
from .normal_forms import render_basic, render_quotient, to_basic
from .polynomials import to_canonical
from .syntax import parse as parse_term
from .syntax import print_term, term_to_data
from .terms import Var, ZERO, mk_numeral, substitute, variables
from .transforms import (
    claim_sides, closed_to_simple_fraction_q0, falsify_simple_fraction_claim,
    find_annihilating_exponents, to_simple_fraction_finite,
    to_sum_of_simple_fractions,
)

_VERDICT_WORDS = {"valid": "Valid", "refuted": "Refuted",
                  "sampled_ok": "SampledOk"}


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="meadow",
        description="Exact total-division arithmetic: "
                    "terms, models, normal forms, transforms.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, model=True):
        if model:
            p.add_argument("--model", default="q0",
                           help="q0, mk:<k>, or gf:<p>^<n> (default q0)")
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("parse", help="parse a term and print it back")
    p.add_argument("term")
    p.add_argument("--signature", choices=("divisive", "inversive"),
                   default="divisive")
    common(p, model=False)

    p = sub.add_parser("eval", help="evaluate a term in a model")
    p.add_argument("term")
    p.add_argument("--assign", action="append", default=[],
                   metavar="NAME=VALUE", help="variable binding; repeatable")
    common(p)

    p = sub.add_parser("normalize", help="basic form or canonical polynomial")
    p.add_argument("term")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--basic", action="store_true",
                       help="sum of signed numeral fractions (default)")
    group.add_argument("--canonical", metavar="VAR",
                       help="canonical polynomial in VAR")
    common(p, model=False)

    p = sub.add_parser("check", help="check an equation LHS = RHS in a model")
    p.add_argument("equation")
    p.add_argument("--strategy", choices=("exhaustive", "sampled"))
    p.add_argument("--samples", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    common(p)

    p = sub.add_parser("simplify", help="fraction transforms")
    p.add_argument("term")
    p.add_argument("--target",
                   choices=("simple-fraction", "sum-of-fractions"),
                   default="simple-fraction")
    common(p)

    p = sub.add_parser("falsify",
                       help="rational witness against 1 + 1/x = F/G")
    p.add_argument("f", help="numerator polynomial in x")
    p.add_argument("g", help="denominator polynomial in x")
    common(p, model=False)

    p = sub.add_parser("char", help="characteristic of a model")
    common(p)

    p = sub.add_parser("demo", help="scripted end-to-end scenarios")
    p.add_argument("name", choices=("omega", "separation", "finite-simple",
                                    "sum-of-fractions", "falsify-q0"))
    common(p, model=False)

    return top


class _Json(str):
    """Text that is already JSON."""


def _dumps(value) -> str:
    """json.dumps(value, sort_keys=True, separators=(",", ":")), with an
    explicit stack so deep term trees encode like shallow ones."""
    import json  # here, since most commands print text
    out, todo = [], [value]
    while todo:
        v = todo.pop()
        if isinstance(v, (dict, list, tuple)):
            keyed = isinstance(v, dict)
            items = sorted(v.items()) if keyed else [(None, x) for x in v]
            todo.append(_Json("}" if keyed else "]"))
            for n, (key, x) in reversed(list(enumerate(items))):
                label = json.dumps(key) + ":" if keyed else ""
                todo += [x, _Json("," * (n > 0) + label)]
            todo.append(_Json("{" if keyed else "["))
        else:
            out.append(v if isinstance(v, _Json) else json.dumps(v))
    return "".join(out)


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    if args.format == "json":
        print(_dumps(payload))
    else:
        for line in text_lines:
            print(line)


def _parse_assignment(model, items: list[str]) -> dict:
    binding = {}
    for item in items:
        for piece in item.split(","):
            name, sep, value = piece.partition("=")
            if not sep or not name.strip():
                raise ValueError(f"bad --assign {piece!r}: expected NAME=VALUE")
            binding[name.strip()] = model.parse_element(value.strip())
    return binding


def _strategy_from(args, model):
    if args.strategy == "exhaustive":
        return Exhaustive()
    if args.strategy == "sampled" or not model.is_finite:
        return Sampled(args.samples, args.seed)
    return None


def _report_payload(model, report) -> dict:
    ce = report.counterexample
    return {
        "verdict": report.verdict,
        "counterexample": None if ce is None else {
            name: model.format_element(v) for name, v in sorted(ce.items())},
        "evaluations": report.evaluations,
        "seed": report.seed,
    }


def _report_lines(model, report) -> list[str]:
    lines = [_VERDICT_WORDS[report.verdict]]
    if report.verdict == "valid":
        lines.append(f"checked {report.evaluations} assignments exhaustively")
    elif report.verdict == "sampled_ok":
        lines.append(f"{report.evaluations} samples, seed {report.seed}")
    ce = _report_payload(model, report)["counterexample"]
    if ce is not None:
        lines.append("counterexample: "
                     + ", ".join(f"{k} = {v}" for k, v in ce.items()))
    return lines


def _cmd_parse(args) -> int:
    t = parse_term(args.term, args.signature)
    printed = print_term(t)
    _emit(args, {"command": "parse", "input": args.term, "term": printed,
                 "tree": term_to_data(t)}, [printed])
    return 0


def _cmd_eval(args) -> int:
    model = model_from_spec(args.model)
    t = parse_term(args.term)
    binding = _parse_assignment(model, args.assign)
    value = eval_term(model, t, binding)
    rendered = model.format_element(value)
    _emit(args, {"command": "eval", "model": model.name, "term": print_term(t),
                 "assignment": {k: model.format_element(v)
                                for k, v in sorted(binding.items())},
                 "value": rendered}, [rendered])
    return 0


def _cmd_normalize(args) -> int:
    t = parse_term(args.term)
    if args.canonical:
        poly = to_canonical(t, args.canonical)
        printed = print_term(poly.to_term())
        _emit(args, {"command": "normalize", "mode": "canonical",
                     "variable": poly.variable,
                     "coefficients": list(poly.coeffs),
                     "result": printed}, [printed])
        return 0
    basic = to_basic(t)
    printed = render_basic(basic)
    compact = " ".join(f"{'+' if s.sign > 0 else '-'}{s.num}/{s.den}"
                       for s in basic.summands) or "0"
    _emit(args, {"command": "normalize", "mode": "basic",
                 "summands": [{"sign": "+" if s.sign > 0 else "-",
                               "num": s.num, "den": s.den}
                              for s in basic.summands],
                 "result": printed}, [compact, printed])
    return 0


def _cmd_check(args) -> int:
    model = model_from_spec(args.model)
    lhs_text, sep, rhs_text = args.equation.partition("=")
    if not sep or "=" in rhs_text:
        raise ValueError("equation must contain exactly one '='")
    lhs = parse_term(lhs_text.strip())
    rhs = parse_term(rhs_text.strip())
    report = check_eq(model, lhs, rhs, _strategy_from(args, model))
    payload = {"command": "check", "model": model.name,
               "lhs": print_term(lhs), "rhs": print_term(rhs),
               **_report_payload(model, report)}
    _emit(args, payload, _report_lines(model, report))
    return 1 if report.verdict == REFUTED else 0


def _cmd_simplify(args) -> int:
    model = model_from_spec(args.model)
    t = parse_term(args.term)
    if args.target == "sum-of-fractions":
        s = to_sum_of_simple_fractions(t)
        printed = print_term(s.to_term())
        _emit(args, {"command": "simplify", "target": args.target,
                     "summands": [[print_term(n.to_term()),
                                   print_term(d.to_term())]
                                  for n, d in s.summands],
                     "result": printed},
              [printed, f"summands: {len(s)}"])
        return 0
    if model.is_finite:
        _sweep_size(model, len(variables(t)))  # refuse before transforming
        out = to_simple_fraction_finite(model, t)
        report = check_eq(model, t, out)
        printed = print_term(out)
        _emit(args, {"command": "simplify", "target": args.target,
                     "model": model.name, "result": printed,
                     **_report_payload(model, report)},
              [printed] + _report_lines(model, report))
        return 1 if report.verdict == REFUTED else 0
    fraction = closed_to_simple_fraction_q0(t)
    sign = "-" if fraction.sign < 0 else ""
    compact = f"{sign}{fraction.num}/{fraction.den}"
    _emit(args, {"command": "simplify", "target": args.target,
                 "model": model.name,
                 "sign": "+" if fraction.sign > 0 else "-",
                 "num": fraction.num, "den": fraction.den,
                 "term": render_quotient(fraction.sign * fraction.num,
                                         fraction.den),
                 "result": compact}, [compact])
    return 0


def _cmd_falsify(args) -> int:
    f = to_canonical(parse_term(args.f), "x")
    g = to_canonical(parse_term(args.g), "x")
    witness = falsify_simple_fraction_claim(f, g)
    lhs_val, rhs_val = claim_sides(f, g, witness)
    lines = [f"witness: {witness}",
             f"1 + 1/x at witness: {lhs_val}",
             f"f/g at witness: {rhs_val}"]
    _emit(args, {"command": "falsify", "f": print_term(f.to_term()),
                 "g": print_term(g.to_term()), "witness": str(witness),
                 "lhs_value": str(lhs_val), "rhs_value": str(rhs_val)},
          lines)
    return 0


def _cmd_char(args) -> int:
    model = model_from_spec(args.model)
    value = characteristic(model)
    _emit(args, {"command": "char", "model": model.name,
                 "characteristic": value}, [str(value)])
    return 0


def _demo_omega(out):
    term = parse_term("(1 - 2/2)*(x*x - x)")
    out.line(f"term: {print_term(term)}")
    models = [q0(), mk(2), mk(6)]
    ks = range(-20, 21)
    for model in models:
        ok = all(
            eval_term(model, substitute(term, {"x": mk_numeral(k)}))
            == model.zero
            for k in ks
        )
        out.line(f"{model.name}: all {len(ks)} closed instances "
                 f"x := k, |k| <= 20 evaluate to 0: {ok}")
        out.data.setdefault("closed_instances", {})[model.name] = ok
    g4 = gf(2, 2)
    report = check_eq(g4, term, ZERO)
    ce = _report_payload(g4, report)["counterexample"]
    out.line(f"{g4.name}: {_VERDICT_WORDS[report.verdict]} with "
             f"counterexample "
             + ", ".join(f"{k} = {v}" for k, v in ce.items()))
    out.data["gf_verdict"] = report.verdict
    out.data["gf_counterexample"] = ce


def _demo_separation(out):
    term = parse_term("1 + 1/2")
    rationals, two = q0(), mk(2)
    v_q = eval_term(rationals, term)
    v_2 = eval_term(two, term)
    out.line(f"term: {print_term(term)}")
    out.line(f"q0 value: {rationals.format_element(v_q)}")
    out.line(f"mk:2 value: {two.format_element(v_2)}")
    out.line("no single closed fraction evaluates to both")
    out.data["q0_value"] = rationals.format_element(v_q)
    out.data["mk2_value"] = two.format_element(v_2)


def _demo_finite_simple(out):
    model = mk(6)
    pair = find_annihilating_exponents(model)
    e = 2 * (pair.n - pair.m) - 1
    out.line(f"model: {model.name}")
    out.line(f"least exponents with x^n = x^m: (n, m) = ({pair.n}, {pair.m})")
    out.line(f"reciprocal exponent: 2(n - m) - 1 = {e}")
    identity = check_eq(model, parse_term("1/x"), parse_term(f"x^{e}"))
    out.line(f"1/x = x^{e}: {_VERDICT_WORDS[identity.verdict]} "
             f"({identity.evaluations} assignments)")
    example = parse_term("1 + 1/x")
    simple = to_simple_fraction_finite(model, example)
    report = check_eq(model, example, simple)
    out.line(f"{print_term(example)}  ->  {print_term(simple)}  "
             f"[{_VERDICT_WORDS[report.verdict]}]")
    out.data.update({"n": pair.n, "m": pair.m, "exponent": e,
                     "identity_verdict": identity.verdict,
                     "example": print_term(simple),
                     "example_verdict": report.verdict})


def _demo_sum_of_fractions(out):
    single = parse_term("1/(1/x)")
    s1 = to_sum_of_simple_fractions(single)
    out.line(f"{print_term(single)}  ->  {print_term(s1.to_term())}")
    double = parse_term("1/(1/x + 1/y)")
    s2 = to_sum_of_simple_fractions(double)
    out.line(f"{print_term(double)}  ->  {len(s2)} summands:")
    for num, den in s2:
        out.line(f"  ({print_term(num.to_term())}) / "
                 f"({print_term(den.to_term())})")
    six = mk(6)
    finite = check_eq(six, double, s2.to_term())
    sampled = check_eq(q0(), double, s2.to_term(), Sampled(1000, 0))
    out.line(f"mk:6 exhaustive: {_VERDICT_WORDS[finite.verdict]} "
             f"({finite.evaluations} assignments)")
    out.line(f"q0 sampled: {_VERDICT_WORDS[sampled.verdict]} "
             f"({sampled.evaluations} samples, seed {sampled.seed})")
    out.data.update({
        "single": print_term(s1.to_term()),
        "double_summands": [[print_term(n.to_term()), print_term(d.to_term())]
                            for n, d in s2],
        "mk6_verdict": finite.verdict,
        "q0_verdict": sampled.verdict,
    })


def _demo_falsify_q0(out):
    f = to_canonical(parse_term("1"), "x")
    g = to_canonical(parse_term("1"), "x")
    witness = falsify_simple_fraction_claim(f, g)
    lhs_val, rhs_val = claim_sides(f, g, witness)
    out.line("claim: 1 + 1/x = 1/1 over the rationals")
    out.line(f"constructed witness: x = {witness}")
    out.line(f"left side: {lhs_val}; right side: {rhs_val}")
    out.data.update({"witness": str(witness), "lhs_value": str(lhs_val),
                     "rhs_value": str(rhs_val)})


class _DemoReport:
    def __init__(self):
        self.lines: list[str] = []
        self.data: dict = {}

    def line(self, text: str):
        self.lines.append(text)


_DEMOS = {
    "omega": _demo_omega,
    "separation": _demo_separation,
    "finite-simple": _demo_finite_simple,
    "sum-of-fractions": _demo_sum_of_fractions,
    "falsify-q0": _demo_falsify_q0,
}


def _cmd_demo(args) -> int:
    out = _DemoReport()
    _DEMOS[args.name](out)
    _emit(args, {"command": "demo", "name": args.name, **out.data}, out.lines)
    return 0


_HANDLERS = {
    "parse": _cmd_parse,
    "eval": _cmd_eval,
    "normalize": _cmd_normalize,
    "check": _cmd_check,
    "simplify": _cmd_simplify,
    "falsify": _cmd_falsify,
    "char": _cmd_char,
    "demo": _cmd_demo,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    # exact values may run past CPython's int/str digit limit (4300 by
    # default, absent before Python 3.11); lift it while the command runs
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        return _HANDLERS[args.command](args)
    except (MeadowError, ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
