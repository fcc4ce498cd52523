"""Spans around the benchmark's calls into the library's public functions.

Spans are recorded from outside the library: the workloads call the
library through a ``Library`` facade, and the traced facade wraps each
call in a span named after the layer metric it feeds.  Spans live in
memory and are written out once, when the run ends.
"""
from __future__ import annotations

import json
import time
from collections import defaultdict


class Tracer:
    """Span records: [name, start, end, parent index, op id, error class]."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self.op_id: int | None = None

    def call(self, name, fn, *args, label=None):
        """Run fn(*args) inside a span; ``label(result)`` may rename it."""
        parent = self._open[-1] if self._open else None
        record = [name, 0.0, 0.0, parent, self.op_id, None]
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        record[1] = time.perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:
            record[5] = type(exc).__name__
            raise
        finally:
            record[2] = time.perf_counter()
            self._open.pop()
        if label is not None:
            record[0] = label(result)
        return result

    def self_times(self, first: int = 0) -> dict[str, float]:
        """Seconds per span name, each span minus its child spans."""
        child_time = defaultdict(float)
        for name, start, end, parent, _, _ in self.spans[first:]:
            if parent is not None:
                child_time[parent] += end - start
        totals = defaultdict(float)
        for i, (name, start, end, _, _, _) in enumerate(self.spans[first:],
                                                      start=first):
            totals[name] += (end - start) - child_time[i]
        return dict(totals)

    def errors(self, first: int = 0) -> dict[str, dict[str, int]]:
        """Exception classes raised inside spans, by layer."""
        out: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        for name, _, _, _, _, error in self.spans[first:]:
            if error is not None:
                out[name.split(".")[0]][error] += 1
        return {layer: dict(classes) for layer, classes in out.items()}

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op",
                                  "error"], "spans": self.spans}, fh)


class Library:
    """The library as the workloads call it, optionally traced.

    Each public function the workloads use is exposed under its own name;
    traced, its spans are named ``<module>.<metric stem>``.  Constructors
    and constants pass through untraced.
    """

    _TRACED = {
        "parse": "syntax.parse",
        "print_term": "syntax.print",
        "to_basic": "normal_forms.to_basic",
        "eval_term": "models.eval_term",
        "model_from_spec": "models.build",
        "closed_to_simple_fraction_q0": "transforms.closed_q0",
        "closed_to_simple_fraction_q0_via_basic": "transforms.closed_q0",
        "to_simple_fraction_finite": "transforms.eliminate",
        "to_sum_of_simple_fractions": "transforms.decompose",
    }

    def __init__(self, meadow, tracer: Tracer | None = None):
        self.meadow = meadow
        self.tracer = tracer
        for attr in ("Var", "Add", "Mul", "Neg", "Div", "Inv", "ZERO", "ONE",
                     "Sampled", "VALID", "REFUTED", "SAMPLED_OK"):
            setattr(self, attr, getattr(meadow, attr))
        for attr, name in self._TRACED.items():
            fn = getattr(meadow, attr)
            setattr(self, attr, fn if tracer is None else self._wrap(name, fn))

    def _wrap(self, name, fn):
        tracer = self.tracer

        def traced(*args):
            return tracer.call(name, fn, *args)
        return traced

    def _call(self, name, fn, *args, label=None):
        if self.tracer is None:
            return fn(*args)
        return self.tracer.call(name, fn, *args, label=label)

    def check_eq(self, model, lhs, rhs, strategy=None):
        """check_eq, with spans named by strategy and verdict."""
        sampled = isinstance(strategy, self.Sampled) or (
            strategy is None and not model.is_finite)

        def label(report):
            if sampled:
                return "models.sampled"
            if report.verdict == self.VALID:
                return "models.exhaustive_valid"
            return "models.exhaustive_refuted"
        return self._call("models.check_eq", self.meadow.check_eq, model,
                          lhs, rhs, strategy, label=label)

    def render(self, decomposition):
        """SumOfSimpleFractions.to_term: MultiPoly rendering to a term."""
        return self._call("transforms.render", decomposition.to_term)

    def force_tables(self, model):
        """One trivial exhaustive check, which builds the op tables."""
        x = self.Var("x")
        return self._call("models.table_build", self.meadow.check_eq, model,
                          x, x)
