"""Batch command line for the library: parse, eval, check, transform, demo.

Every subcommand is a thin wrapper over one library call; anything the
CLI prints can be reproduced programmatically with the same arguments.
Exit status: 0 for success (including Valid and SampledOk verdicts),
1 when a check is Refuted (the counterexample is printed), 2 for usage
or domain errors, and 70 (EX_SOFTWARE) for an internal error, which
prints its traceback.  ``--format json`` emits one line of deterministic
JSON (sorted keys, no whitespace) so reruns are byte-identical.  A term
or equation given as ``-`` is read from stdin, which has no length cap.
A reader that closes stdout early changes no exit status.
"""
from __future__ import annotations

import argparse
import os
import sys

from .errors import MeadowError
from .models import (
    Exhaustive, Sampled, REFUTED, SAMPLED_OK, VALID,
    characteristic, check_eq, eval_term, gf, mk, model_from_spec, q0,
)
from .normal_forms import render_basic, render_quotient, to_basic
from .polynomials import to_canonical
from .syntax import parse as parse_term
from .syntax import print_term, term_to_data
from .terms import Term, ZERO, mk_numeral, substitute
from .transforms import (
    claim_sides, closed_to_simple_fraction_q0, falsify_simple_fraction_claim,
    find_annihilating_exponents, to_simple_fraction_finite,
    to_sum_of_simple_fractions,
)

_VERDICT_WORDS = {VALID: "Valid", REFUTED: "Refuted", SAMPLED_OK: "SampledOk"}


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="meadow",
        description="Exact total-division arithmetic: "
                    "terms, models, normal forms, transforms.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, handler, model=True):
        p.set_defaults(handler=handler)
        if model:
            p.add_argument("--model", default="q0",
                           help="q0, mk:<k>, or gf:<p>^<n> (default q0)")
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("parse", help="parse a term and print it back")
    p.add_argument("term")
    p.add_argument("--signature", choices=("divisive", "inversive"),
                   default="divisive")
    common(p, _cmd_parse, model=False)

    p = sub.add_parser("eval", help="evaluate a term in a model")
    p.add_argument("term")
    p.add_argument("--assign", action="append", default=[],
                   metavar="NAME=VALUE", help="variable binding; repeatable")
    common(p, _cmd_eval)

    p = sub.add_parser("normalize", help="basic form or canonical polynomial")
    p.add_argument("term")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--basic", action="store_true",
                       help="sum of signed numeral fractions (default)")
    group.add_argument("--canonical", metavar="VAR",
                       help="canonical polynomial in VAR")
    common(p, _cmd_normalize, model=False)

    p = sub.add_parser("check", help="check an equation LHS = RHS in a model")
    p.add_argument("equation")
    p.add_argument("--strategy", choices=("exhaustive", "sampled"))
    sampled = Sampled()
    p.add_argument("--samples", type=int, default=sampled.count)
    p.add_argument("--seed", type=int, default=sampled.seed)
    common(p, _cmd_check)

    p = sub.add_parser("simplify", help="fraction transforms")
    p.add_argument("term")
    p.add_argument("--target",
                   choices=("simple-fraction", "sum-of-fractions"),
                   default="simple-fraction")
    common(p, _cmd_simplify)

    p = sub.add_parser("falsify",
                       help="rational witness against 1 + 1/x = F/G")
    p.add_argument("f", help="numerator polynomial in x")
    p.add_argument("g", help="denominator polynomial in x")
    common(p, _cmd_falsify, model=False)

    p = sub.add_parser("char", help="characteristic of a model")
    common(p, _cmd_char)

    p = sub.add_parser("demo", help="scripted end-to-end scenarios")
    p.add_argument("name", choices=_DEMOS)
    common(p, _cmd_demo, model=False)

    return top


class _Json(str):
    """Text that is already JSON."""


_OPEN_DICT, _CLOSE_DICT, _OPEN_LIST, _CLOSE_LIST, _COMMA = map(_Json, "{}[],")


def _dumps(value) -> str:
    """json.dumps(value, sort_keys=True, separators=(",", ":")), with an
    explicit stack so deep term trees encode like shallow ones.  A term
    encodes as its text, built only here, since that can take long.
    Each key set's labels and each scalar are encoded once per call, the
    scalars keyed by type and value so that True, 1 and 1.0 stay apart;
    floats are not kept, since -0.0 == 0.0."""
    import json  # here, since most commands print text
    labels: dict[tuple, list] = {}   # a dict's keys -> sorted (key, label)
    scalars: dict[tuple, str] = {}   # (type, value) -> JSON text
    out, todo = [], [value]
    while todo:
        v = todo.pop()
        cls = v.__class__
        if cls is _Json:
            out.append(v)
        elif isinstance(v, dict):
            keys = tuple(v)
            if keys not in labels:
                labels[keys] = [
                    (key, _Json("," * (n > 0) + json.dumps(key) + ":"))
                    for n, key in enumerate(sorted(keys))]
            todo.append(_CLOSE_DICT)
            for key, label in reversed(labels[keys]):
                todo += (v[key], label)
            todo.append(_OPEN_DICT)
        elif isinstance(v, (list, tuple)):
            items = [_COMMA] * (2 * len(v) - 1)   # commas between items
            items[::2] = v
            todo += [_CLOSE_LIST, *reversed(items), _OPEN_LIST]
        elif isinstance(v, Term):
            out.append(json.dumps(print_term(v)))
        elif cls is float:
            out.append(json.dumps(v))
        else:
            text = scalars.get((cls, v))
            if text is None:
                text = scalars[cls, v] = json.dumps(v)
            out.append(text)
    return "".join(out)


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    lines = [_dumps(payload)] if args.format == "json" else text_lines
    try:
        for line in lines:
            print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader has gone, which changes no verdict; what is left
        # unwritten goes to the null device, so that the interpreter's
        # final flush cannot raise
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


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
    if report.verdict == VALID:
        lines.append(f"checked {report.evaluations} assignments exhaustively")
    elif report.verdict == SAMPLED_OK:
        lines.append(f"{report.evaluations} samples, seed {report.seed}")
    ce = _report_payload(model, report)["counterexample"]
    if ce is not None:
        lines.append("counterexample: "
                     + ", ".join(f"{k} = {v}" for k, v in ce.items()))
    return lines


def _summand_texts(s) -> list[list[str]]:
    return [[print_term(n.to_term()), print_term(d.to_term())] for n, d in s]


def _cmd_parse(args) -> int:
    t = parse_term(args.term, args.signature)
    printed = print_term(t)
    # the tree is built only for JSON, the one output that shows it
    tree = term_to_data(t) if args.format == "json" else None
    _emit(args, {"command": "parse", "input": args.term, "term": printed,
                 "tree": tree}, [printed])
    return 0


def _cmd_eval(args) -> int:
    model = model_from_spec(args.model)
    t = parse_term(args.term)
    binding = _parse_assignment(model, args.assign)
    value = eval_term(model, t, binding)
    rendered = model.format_element(value)
    _emit(args, {"command": "eval", "model": model.name, "term": t,
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
    payload = {"command": "check", "model": model.name, "lhs": lhs,
               "rhs": rhs, **_report_payload(model, report)}
    _emit(args, payload, _report_lines(model, report))
    return 1 if report.verdict == REFUTED else 0


def _cmd_simplify(args) -> int:
    model = model_from_spec(args.model)
    t = parse_term(args.term)
    if args.target == "sum-of-fractions":
        s = to_sum_of_simple_fractions(t)
        printed = print_term(s.to_term())
        _emit(args, {"command": "simplify", "target": args.target,
                     "summands": _summand_texts(s), "result": printed},
              [printed, f"summands: {len(s)}"])
        return 0
    if model.is_finite:
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


def _demo_omega(line, data):
    term = parse_term("(1 - 2/2)*(x*x - x)")
    line(f"term: {print_term(term)}")
    models = [q0(), mk(2), mk(6)]
    ks = range(-20, 21)
    for model in models:
        ok = all(
            eval_term(model, substitute(term, {"x": mk_numeral(k)}))
            == model.zero
            for k in ks
        )
        line(f"{model.name}: all {len(ks)} closed instances "
             f"x := k, |k| <= 20 evaluate to 0: {ok}")
        data.setdefault("closed_instances", {})[model.name] = ok
    g4 = gf(2, 2)
    report = check_eq(g4, term, ZERO)
    ce = _report_payload(g4, report)["counterexample"]
    line(f"{g4.name}: {_VERDICT_WORDS[report.verdict]} with counterexample "
         + ", ".join(f"{k} = {v}" for k, v in ce.items()))
    data["gf_verdict"] = report.verdict
    data["gf_counterexample"] = ce


def _demo_separation(line, data):
    term = parse_term("1 + 1/2")
    rationals, two = q0(), mk(2)
    v_q = eval_term(rationals, term)
    v_2 = eval_term(two, term)
    line(f"term: {print_term(term)}")
    line(f"q0 value: {rationals.format_element(v_q)}")
    line(f"mk:2 value: {two.format_element(v_2)}")
    line("no single closed fraction evaluates to both")
    data["q0_value"] = rationals.format_element(v_q)
    data["mk2_value"] = two.format_element(v_2)


def _demo_finite_simple(line, data):
    model = mk(6)
    pair = find_annihilating_exponents(model)
    e = 2 * (pair.n - pair.m) - 1
    line(f"model: {model.name}")
    line(f"least exponents with x^n = x^m: (n, m) = ({pair.n}, {pair.m})")
    line(f"reciprocal exponent: 2(n - m) - 1 = {e}")
    identity = check_eq(model, parse_term("1/x"), parse_term(f"x^{e}"))
    line(f"1/x = x^{e}: {_VERDICT_WORDS[identity.verdict]} "
         f"({identity.evaluations} assignments)")
    example = parse_term("1 + 1/x")
    simple = to_simple_fraction_finite(model, example)
    report = check_eq(model, example, simple)
    line(f"{print_term(example)}  ->  {print_term(simple)}  "
         f"[{_VERDICT_WORDS[report.verdict]}]")
    data.update({"n": pair.n, "m": pair.m, "exponent": e,
                 "identity_verdict": identity.verdict,
                 "example": print_term(simple),
                 "example_verdict": report.verdict})


def _demo_sum_of_fractions(line, data):
    single = parse_term("1/(1/x)")
    data["single"] = print_term(to_sum_of_simple_fractions(single).to_term())
    line(f"{print_term(single)}  ->  {data['single']}")
    double = parse_term("1/(1/x + 1/y)")
    s2 = to_sum_of_simple_fractions(double)
    line(f"{print_term(double)}  ->  {len(s2)} summands:")
    data["double_summands"] = _summand_texts(s2)
    for num, den in data["double_summands"]:
        line(f"  ({num}) / ({den})")
    rendered = s2.to_term()
    finite = check_eq(mk(6), double, rendered)
    sampled = check_eq(q0(), double, rendered, Sampled(1000, 0))
    line(f"mk:6 exhaustive: {_VERDICT_WORDS[finite.verdict]} "
         f"({finite.evaluations} assignments)")
    line(f"q0 sampled: {_VERDICT_WORDS[sampled.verdict]} "
         f"({sampled.evaluations} samples, seed {sampled.seed})")
    data["mk6_verdict"], data["q0_verdict"] = finite.verdict, sampled.verdict


def _demo_falsify_q0(line, data):
    f = to_canonical(parse_term("1"), "x")
    g = to_canonical(parse_term("1"), "x")
    witness = falsify_simple_fraction_claim(f, g)
    lhs_val, rhs_val = claim_sides(f, g, witness)
    line("claim: 1 + 1/x = 1/1 over the rationals")
    line(f"constructed witness: x = {witness}")
    line(f"left side: {lhs_val}; right side: {rhs_val}")
    data.update({"witness": str(witness), "lhs_value": str(lhs_val),
                 "rhs_value": str(rhs_val)})


_DEMOS = {
    "omega": _demo_omega,
    "separation": _demo_separation,
    "finite-simple": _demo_finite_simple,
    "sum-of-fractions": _demo_sum_of_fractions,
    "falsify-q0": _demo_falsify_q0,
}


def _cmd_demo(args) -> int:
    lines, data = [], {}
    _DEMOS[args.name](lines.append, data)
    _emit(args, {"command": "demo", "name": args.name, **data}, lines)
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    # exact values may run past CPython's int/str digit limit (4300 by
    # default, absent before Python 3.11); lift it while the command runs
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        for name in ("term", "equation", "f", "g"):
            if getattr(args, name, None) == "-":
                setattr(args, name, sys.stdin.read())
        return args.handler(args)
    except (MeadowError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        import traceback  # here, since only a defect needs it
        print("internal error:", file=sys.stderr)
        traceback.print_exc()
        return 70
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
