"""The four workloads: inputs, the timed operation, and its known answer.

Every workload is driven as a closed loop by one client in one process:
the next operation starts when the previous verdict is in, because a
checker's caller waits for each verdict.  A run repeats whole passes over
a pool of operations made from the seed, so every pass does the same work.

Per workload:

* ``setup(lib)`` is what a user pays before the first verdict: building
  the workload's models and forcing each finite model's op tables.
* ``pool(lib, seed)`` makes the inputs and their expected answers.  The
  answers come from construction or from ``inputs``' reference code, never
  from the library.  The term corpora are the test suite's, generated with
  the suite's seeds.  The benchmark seed shuffles the pool and draws what
  varies between runs: which eliminations are planted refutations, and the
  sample points of the q0 checks.  The corpora themselves stay fixed
  because their op costs are heavy-tailed: other corpora of the same shape
  moved the tail latency by half from seed to seed.
* ``op(lib, state, item)`` is the timed operation.
* ``check(lib, state, item, result, tally, counter)`` raises ``Mismatch``
  when the result differs from the known answer, and adds the work counts
  of one operation to ``tally`` (structure counts too, when ``counter`` is
  given).  It runs outside the timed operation.

``SETUPS`` is how many processes measure set-up in one run; ``TAIL`` is
the percentile reported as op_tail_ms, the highest that leaves at least
ten samples beyond it in a run at the commit that defined the benchmark.
"""
from __future__ import annotations

import random

import inputs
import session


class Mismatch(Exception):
    """The library's answer differs from the one the benchmark knows."""


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise Mismatch(message)


def _shuffled(items, seed):
    random.Random(seed).shuffle(items)
    return items


def _bump(tally, key, n):
    tally[key] = tally.get(key, 0) + n


def _count_terms(tally, counter, *terms):
    for t in terms:
        counter.add(t)
    tally["terms.tree_nodes"] = counter.tree_nodes
    tally["terms.distinct_nodes"] = counter.distinct_nodes
    tally["terms.max_depth"] = counter.max_depth


def _as_residue(value):
    """A finite-model element as an int: gf elements of the prime
    subfield are coefficient tuples whose higher digits are 0."""
    if isinstance(value, tuple):
        if any(value[1:]):
            raise Mismatch(f"{value} is outside the prime subfield")
        return value[0]
    return value


class ClosedNormalize:
    name = "closed-normalize"
    why = ("The c04 corpus of small closed terms: per-node cost in syntax, "
           "terms and normal_forms; no numpy sweep, sampling or MultiPoly, "
           "so it bypasses evaluator and sweep work.")
    # The c04 corpus: 1000 closed divisive terms, depth 8, leaves 0..4.
    SETUPS = 5
    TAIL = 99.0

    def setup(self, lib):
        state = {spec: lib.model_from_spec(spec)
                 for spec in ("q0", "mk:6", "gf:2^2")}
        for spec in ("mk:6", "gf:2^2"):
            lib.force_tables(state[spec])
        return state

    def pool(self, lib, seed):
        items = [(t, inputs.to_library(lib, t), inputs.reference_values(t))
                 for t in inputs.corpus(90125, 1000, 8, closed=True)]
        return _shuffled(items, seed)

    def op(self, lib, state, item):
        _, term, _ = item
        text = lib.print_term(term)
        parsed = lib.parse(text)
        basic = lib.to_basic(parsed)
        direct = lib.closed_to_simple_fraction_q0(parsed)
        via = lib.closed_to_simple_fraction_q0_via_basic(parsed)
        values = tuple(lib.eval_term(state[spec], parsed)
                       for spec in ("q0", "mk:6", "gf:2^2"))
        return text, parsed, basic, direct, via, values

    def check(self, lib, state, item, result, tally, counter):
        source, term, (q, r6, r2) = item
        text, parsed, basic, direct, via, values = result
        _expect(inputs.from_library(parsed) == source,
                f"parse(print_term(t)) differs from t for {text!r}")
        for f in (direct, via):
            want = (1 if q >= 0 else -1, abs(q.numerator), q.denominator)
            got = (f.sign, f.num, f.den)
            _expect(got == want, f"simple fraction {got} != {q} for {text!r}")
        want = (q, r6, r2)
        for spec, v, w in zip(("q0", "mk:6", "gf:2^2"), values, want):
            got = v if spec == "q0" else _as_residue(v)
            _expect(got == w, f"eval_term in {spec}: {v} != {w} for {text!r}")
            via_basic = basic.eval_in(state[spec])
            got = via_basic if spec == "q0" else _as_residue(via_basic)
            _expect(got == w, f"to_basic eval_in {spec}: {via_basic} != {w} "
                              f"for {text!r}")
        _bump(tally, "syntax.parse_chars", len(text))
        _bump(tally, "normal_forms.summands", len(basic.summands))
        if counter is not None:
            _count_terms(tally, counter, term, parsed)


# The derived, ring, division and inverse laws, written out here so that
# the equations stay fixed when the library's own suites change.
_SUITES = [
    # (name, lhs, rhs); strings are leaves
    ("add_assoc", ("add", ("add", "x", "y"), "z"),
     ("add", "x", ("add", "y", "z"))),
    ("add_comm", ("add", "x", "y"), ("add", "y", "x")),
    ("add_zero", ("add", "x", "0"), "x"),
    ("add_opposite", ("add", "x", ("neg", "x")), "0"),
    ("mul_assoc", ("mul", ("mul", "x", "y"), "z"),
     ("mul", "x", ("mul", "y", "z"))),
    ("mul_comm", ("mul", "x", "y"), ("mul", "y", "x")),
    ("mul_one", ("mul", "x", "1"), "x"),
    ("distributivity", ("mul", "x", ("add", "y", "z")),
     ("add", ("mul", "x", "y"), ("mul", "x", "z"))),
    ("reciprocal_involution", ("div", "1", ("div", "1", "x")), "x"),
    ("square_over_self", ("div", ("mul", "x", "x"), "x"), "x"),
    ("div_is_mul_reciprocal", ("div", "x", "y"),
     ("mul", "x", ("div", "1", "y"))),
    ("inv_involution", ("inv", ("inv", "x")), "x"),
    ("inv_cancellation", ("mul", "x", ("mul", "x", ("inv", "x"))), "x"),
    ("one_over_zero", ("div", "1", "0"), "0"),
    ("one_over_one", ("div", "1", "1"), "1"),
    ("reciprocal_of_opposite", ("div", "1", ("neg", "x")),
     ("neg", ("div", "1", "x"))),
    ("reciprocal_of_product", ("div", "1", ("mul", "x", "y")),
     ("mul", ("div", "1", "x"), ("div", "1", "y"))),
    ("fraction_product", ("mul", ("div", "x", "y"), ("div", "z", "w")),
     ("div", ("mul", "x", "z"), ("mul", "y", "w"))),
    ("fraction_quotient", ("div", ("div", "x", "y"), ("div", "z", "w")),
     ("div", ("mul", "x", "w"), ("mul", "y", "z"))),
]


def _tuple_term(spec):
    """Suite shorthand to a tuple term: strings are leaves."""
    if spec == "0":
        return inputs.ZERO
    if spec == "1":
        return inputs.ONE
    if isinstance(spec, str):
        return ("var", spec)
    return (spec[0],) + tuple(_tuple_term(s) for s in spec[1:])


class FiniteDecide:
    name = "finite-decide"
    why = ("Exhaustive check_eq over mk:6, mk:30, gf:2^2, gf:3^2, gf:2^8: "
           "op-table builds (in setup_s) and the numpy sweep; a 4-variable "
           "mk:30 law sets peak RSS; a quarter refuted.")
    MODELS = ("mk:5", "mk:6", "mk:30", "gf:2^2", "gf:3^2", "gf:2^8")
    # The c06 corpora: 200 open terms per model, depth 6 over x, y, z, seed
    # 1300 + model size.  A quarter of each, drawn by the benchmark seed, is
    # planted as rhs + 1.
    ELIM_MODELS = {"mk:6": 6, "gf:2^2": 4, "gf:3^2": 9, "mk:30": 30}
    SETUPS = 3        # each pays the gf:2^8 table build
    TAIL = 99.0

    def setup(self, lib):
        state = {spec: lib.model_from_spec(spec) for spec in self.MODELS}
        for spec in self.MODELS:
            lib.force_tables(state[spec])
        return state

    def pool(self, lib, seed):
        items = []
        rng = random.Random(seed)
        for spec, size in self.ELIM_MODELS.items():
            terms = inputs.corpus(1300 + size, 200, 6)
            planted = set(rng.sample(range(len(terms)), len(terms) // 4))
            for i, t in enumerate(terms):
                items.append({"kind": "eliminate", "spec": spec,
                              "lhs": inputs.to_library(lib, t),
                              "names": inputs.variables(t),
                              "planted": i in planted})
        for spec in self.MODELS[1:]:
            for name, lhs, rhs in _SUITES:
                names = sorted(set(inputs.variables(_tuple_term(lhs)))
                               | set(inputs.variables(_tuple_term(rhs))))
                if spec == "gf:2^8" and len(names) > 2:
                    continue
                if spec == "mk:30" and name == "fraction_quotient":
                    continue   # one 4-variable law over mk:30 is enough
                items.append({"kind": "law", "spec": spec,
                              "lhs": inputs.to_library(lib, _tuple_term(lhs)),
                              "rhs": inputs.to_library(lib, _tuple_term(rhs)),
                              "names": names})
        # Pinned refutations from the README and the tests.
        x, y = ("var", "x"), ("var", "y")
        pinned = [
            ("mk:5", ("div", inputs.ONE, ("add", x, y)),
             ("add", ("div", inputs.ONE, x), ("div", inputs.ONE, y)),
             {"x": 1, "y": 1}),
            ("gf:2^2", ("mul", x, x), x, {"x": (0, 1)}),
        ]
        for spec, lhs, rhs, witness in pinned:
            items.append({"kind": "pinned", "spec": spec,
                          "lhs": inputs.to_library(lib, lhs),
                          "rhs": inputs.to_library(lib, rhs),
                          "witness": witness})
        return items

    def op(self, lib, state, item):
        model = state[item["spec"]]
        lhs = item["lhs"]
        if item["kind"] == "eliminate":
            rhs = lib.to_simple_fraction_finite(model, lhs)
            if item["planted"]:
                rhs = lib.Add(rhs, lib.ONE)
        else:
            rhs = item["rhs"]
        return rhs, lib.check_eq(model, lhs, rhs)

    def check(self, lib, state, item, result, tally, counter):
        spec = item["spec"]
        rhs, report = result
        if item["kind"] == "pinned":
            _expect(report.verdict == lib.REFUTED
                    and report.counterexample == item["witness"],
                    f"{spec}: {report} is not the pinned counterexample")
        elif item.get("planted"):
            want = {n: 0 for n in item["names"]}
            got = {n: _as_residue(v)
                   for n, v in (report.counterexample or {}).items()}
            _expect(report.verdict == lib.REFUTED and got == want,
                    f"{spec}: planted rhs + 1 gave {report}")
        else:
            n = len(item["names"])
            _expect(report.verdict == lib.VALID
                    and report.evaluations == state[spec].size ** n,
                    f"{spec}: {report} for a valid equation over {n} "
                    f"variables")
        _bump(tally, "models.assignments", report.evaluations)
        if counter is not None:
            _count_terms(tally, counter, item["lhs"], rhs)


class Q0Decide:
    name = "q0-decide"
    why = ("The c07 corpus, large rendered terms: sum-of-fractions "
           "decomposition, MultiPoly rendering and the Fraction sampler, "
           "no numpy; heavy-tailed, so op_tail_ms matters.")
    # The c07 corpus: 200 open terms, depth 6 over x, y, z, seed 1400.  Its
    # decompositions render to 326 731 tree nodes; three terms take about a
    # quarter of the time.  20 samples per check keep a pass near 1.5 s on
    # the defining host, so a 20 s run has four rounds.
    SAMPLES = 20
    SETUPS = 5
    TAIL = 98.0

    def setup(self, lib):
        return {"q0": lib.model_from_spec("q0")}

    def pool(self, lib, seed):
        strategy = lib.Sampled(self.SAMPLES, seed)
        items = [(inputs.to_library(lib, t), strategy)
                 for t in inputs.corpus(1400, 200, 6)]
        return _shuffled(items, seed)

    def op(self, lib, state, item):
        term, strategy = item
        model = state["q0"]
        decomposition = lib.to_sum_of_simple_fractions(term)
        rendered = lib.render(decomposition)
        ok = lib.check_eq(model, term, rendered, strategy)
        planted = lib.Add(rendered, lib.ONE)
        refuted = lib.check_eq(model, term, planted, strategy)
        return decomposition, rendered, planted, ok, refuted

    def check(self, lib, state, item, result, tally, counter):
        term, strategy = item
        decomposition, rendered, planted, ok, refuted = result
        _expect(ok.verdict == lib.SAMPLED_OK
                and ok.evaluations == strategy.count,
                f"decomposition not confirmed by sampling: {ok}")
        _expect(refuted.verdict == lib.REFUTED and refuted.evaluations == 1,
                f"planted out + 1 not refuted at the first draw: {refuted}")
        _bump(tally, "models.samples", ok.evaluations + refuted.evaluations)
        _bump(tally, "transforms.summands", len(decomposition.summands))
        if counter is not None:
            _bump(tally, "transforms.rendered_nodes", counter.add(rendered))
            _count_terms(tally, counter, term, planted)


class CliSession:
    name = "cli-session"
    why = ("The README console session, one python -m meadow process per "
           "command: the only workload that pays interpreter start and "
           "import on every op.")
    SETUPS = 5        # each starts a process running `import meadow`
    TAIL = 65.0

    def setup(self, lib):
        return {}

    def pool(self, lib, seed):
        return _shuffled(list(session.SESSION), seed)

    # op and check are driven by the worker, which owns the processes.


WORKLOADS = {w.name: w for w in (ClosedNormalize(), FiniteDecide(),
                                 Q0Decide(), CliSession())}
