"""One workload in one fresh, single-threaded process.

Started by run.py, which passes the monotonic clock reading taken just
before the process was spawned, so set-up time counts from process start.
Prints one JSON object as its last line of output.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
        --trace 0|1 --spawned-at NS [--setup-only]
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter

import inputs
import session
from tracing import Library, Tracer
from workloads import WORKLOADS, CliSession, Mismatch

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CACHE = os.path.join(ROOT, ".perfbench_cache")
# Stop starting operations this long after process start, whatever the
# run length, so that a very slow commit still ends inside its time limit.
HARD_LIMIT_S = 140.0
PROCESS_TIMEOUT_S = 60.0


def percentile(sorted_values, pct):
    """Nearest-rank percentile and the number of samples above its rank."""
    rank = max(1, math.ceil(pct / 100 * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


# The host this benchmark was defined on changes speed by a third for tens
# of seconds at a time (other tenants), far more than the changes the
# benchmark must resolve.  Two measures take that out of the numbers:
#
# * Speed: a fixed computation of the benchmark's own (reference values of
#   eight generated closed terms) is timed every CALIBRATE_EVERY_S through
#   the timed phase, and every latency is scaled by REFERENCE_S over the
#   median of those timings.  Latencies so read as at the host speed at
#   which that computation takes REFERENCE_S.  Unscaled figures are
#   printed too.
# * Jitter: an op's latency sample is the best of its runs in REPEATS
#   consecutive passes, a round.  Runs end on whole rounds.
REPEATS = 3
CALIBRATE_EVERY_S = 0.25
REFERENCE_S = 0.0027
CALIBRATION_TERMS = inputs.corpus(90125, 8, 8, closed=True)


def calibrate() -> float:
    t0 = time.perf_counter()
    for t in CALIBRATION_TERMS:
        inputs.reference_values(t)
    return time.perf_counter() - t0


def speed_factor(samples) -> float:
    return REFERENCE_S / statistics.median(samples)


def setup_speed_factor() -> float:
    """Speed factor right after set-up; the first runs warm up and are
    not counted."""
    for _ in range(5):
        calibrate()
    return speed_factor([calibrate() for _ in range(25)])


class Phase:
    """Whole rounds of passes over the pool, timed per operation."""

    def __init__(self):
        self.raw: list[float] = []       # best latency per op and round
        self.calibrations: list[float] = []
        self.attempted = 0
        self.failures: Counter = Counter()
        self.messages: list[str] = []
        self.tallies: list[dict] = []    # work counts, one per pass
        self.passes = 0
        self.rounds = 0
        self.cut = False

    @property
    def factor(self) -> float:
        return speed_factor(self.calibrations)

    @property
    def samples(self) -> list[float]:
        factor = self.factor
        return [lat * factor for lat in self.raw]

    @property
    def ops_per_s(self) -> float:
        return len(self.raw) / (sum(self.raw) * self.factor)

    def fail(self, exc: BaseException) -> None:
        self.failures[type(exc).__name__] += 1
        if len(self.messages) < 5:
            self.messages.append(f"{type(exc).__name__}: {exc}"[:300])


def run_phase(run_op, check, pool, seconds, started, counting, phase=None):
    """Repeat rounds until ``seconds`` are spent, at least one round; with
    ``phase``, add the rounds to it."""
    if phase is None:
        phase = Phase()
    phase.calibrations.append(calibrate())
    last = begin = time.perf_counter()
    first = phase.rounds
    while phase.rounds == first or time.perf_counter() - begin < seconds:
        best = [math.inf] * len(pool)
        for _ in range(REPEATS):
            tally: dict = {}
            counter = inputs.StructureCounter() if counting else None
            for i, item in enumerate(pool):
                if time.monotonic() - started > HARD_LIMIT_S:
                    phase.cut = True
                    phase.raw += [b for b in best if b < math.inf]
                    return phase
                phase.attempted += 1
                t0 = time.perf_counter()
                try:
                    result = run_op(item)
                except Exception as exc:  # a failed op is counted, not fatal
                    best[i] = min(best[i], time.perf_counter() - t0)
                    phase.fail(exc)
                    continue
                best[i] = min(best[i], time.perf_counter() - t0)
                try:
                    check(item, result, tally, counter)
                except Exception as exc:  # Mismatch, or the check's own calls
                    phase.fail(exc)
                if time.perf_counter() - last > CALIBRATE_EVERY_S:
                    phase.calibrations.append(calibrate())
                    last = time.perf_counter()
            phase.tallies.append(tally)
            phase.passes += 1
        phase.raw += best
        phase.rounds += 1
    return phase


def fingerprint() -> str:
    """Hash of the library and benchmark sources, for the counts record."""
    digest = hashlib.sha256()
    for sub in ("src/meadow", "perfbench"):
        folder = os.path.join(ROOT, sub)
        for name in sorted(os.listdir(folder)):
            if name.endswith(".py"):
                with open(os.path.join(folder, name), "rb") as fh:
                    digest.update(name.encode() + fh.read())
    return digest.hexdigest()[:16]


def counts_repeat(phase: Phase, key: str) -> str | None:
    """Counts must be identical in every pass and in every run of the
    same sources with the same seed; returns what differed, if anything."""
    first = phase.tallies[0] if phase.tallies else {}
    for i, tally in enumerate(phase.tallies[1:], start=2):
        if tally != first:
            return f"counts of pass {i} differ from pass 1"
    path = os.path.join(CACHE, "counts", f"{key}-{fingerprint()}.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    if os.path.exists(path):
        with open(path) as fh:
            if json.load(fh) != first:
                return f"counts differ from the earlier run recorded in {path}"
    else:
        with open(path, "w") as fh:
            json.dump(first, fh, sort_keys=True)
    return None


def summarize(phase: Phase, tail_pct: float) -> tuple[dict, list[str]]:
    lat = sorted(phase.samples)
    tail, beyond = percentile(lat, tail_pct)
    metrics = {
        "ops_per_s": (phase.ops_per_s, "1/s"),
        "op_p50_ms": (statistics.median(lat) * 1000, "ms"),
        "op_tail_ms": (tail * 1000, "ms"),
    }
    raw = sorted(phase.raw)
    notes = [f"{len(lat)} latency samples, each the best of {REPEATS} runs "
             f"of an op: {phase.rounds} rounds, {phase.passes} passes"
             + (" (cut at the hard time limit)" if phase.cut else ""),
             f"op_tail_ms is p{tail_pct:g}: {beyond} samples beyond it",
             f"speed factor {phase.factor:.4f} from "
             f"{len(phase.calibrations)} calibrations",
             f"unscaled: ops_per_s {len(raw) / sum(raw):.6g}, op_p50_ms "
             f"{statistics.median(raw) * 1000:.6g}, op_tail_ms "
             f"{percentile(raw, tail_pct)[0] * 1000:.6g}"]
    return metrics, notes


# -- cli-session's processes; run.py prepared their environment -----------

def run_command(argv):
    proc = subprocess.run([sys.executable, "-m", "meadow", *argv],
                          capture_output=True, text=True, cwd=ROOT,
                          timeout=PROCESS_TIMEOUT_S)
    return proc.returncode, proc.stdout


def check_command(entry, result, tally, counter):
    argv, want_code, expected = entry
    code, out = result
    why = session.mismatch(expected, code, want_code, out)
    if why is not None:
        raise Mismatch(f"meadow {' '.join(argv)}: {why}")


def timed_python(code: str) -> tuple[float, str]:
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, cwd=ROOT, timeout=PROCESS_TIMEOUT_S)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(proc.stderr.strip()[-300:])
    return elapsed, proc.stdout


def cli_layers(tracer: Tracer, pool) -> tuple[dict, list[str]]:
    """Unscaled cli.interpreter_s, cli.import_s and in-process cli.main_s
    (per session pass), with any in-process output mismatches."""
    interp = statistics.median(timed_python("pass")[0] for _ in range(5))
    imports = statistics.median(float(timed_python(
        "import time; t = time.perf_counter(); import meadow; "
        "print(time.perf_counter() - t)")[1]) for _ in range(5))
    from meadow.cli import main as cli_main

    def in_process(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_main(list(argv))
        return code, out.getvalue()

    mark = len(tracer.spans)
    mismatches = []
    passes = 2
    for _ in range(passes):
        for entry in pool:
            try:
                result = tracer.call("cli.main", in_process, entry[0])
                check_command(entry, result, {}, None)
            except Exception as exc:  # recorded on the span, or a mismatch
                mismatches.append(f"in-process {type(exc).__name__}: {exc}")
    main_s = tracer.self_times(mark).get("cli.main", 0.0) / passes
    return ({"cli.interpreter_s": interp, "cli.import_s": imports,
             "cli.main_s": main_s}, mismatches[:5])


# -- per-layer metrics from a traced phase --------------------------------

PER_LAYER_TIMES = (
    "syntax.parse", "syntax.print", "normal_forms.to_basic",
    "models.eval_term", "models.exhaustive_valid", "models.exhaustive_refuted",
    "models.sampled", "transforms.eliminate", "transforms.decompose",
    "transforms.render", "transforms.closed_q0",
)
COUNTS = (
    "normal_forms.summands", "models.assignments", "models.samples",
    "transforms.summands", "transforms.rendered_nodes", "terms.tree_nodes",
    "terms.distinct_nodes", "terms.max_depth",
)
LAYERS = ("syntax", "normal_forms", "models", "transforms", "cli")


def layer_metrics(tracer, traced_mark, phase, untraced, setup_factor,
                  cli_raw):
    """Self time per pass of each span name, counts per pass, and rates.

    Times are scaled like the end-to-end latencies: set-up spans by the
    set-up's speed factor, the rest by the traced phase's.
    """
    f = phase.factor
    setup = tracer.self_times(0)
    per_pass = {k: v * f / phase.passes
                for k, v in tracer.self_times(traced_mark).items()}
    tally = phase.tallies[0] if phase.tallies else {}
    m = {}
    for name in PER_LAYER_TIMES:
        m[f"{name}_s"] = (per_pass.get(name, 0.0), "s")
    for name in ("models.build", "models.table_build"):
        m[f"{name}_s"] = (setup.get(name, 0.0) * setup_factor, "s")
    for name in ("cli.interpreter_s", "cli.import_s", "cli.main_s"):
        m[name] = (cli_raw.get(name, 0.0) * f, "s")  # cli-session only
    for name in COUNTS:
        m[name] = (tally.get(name, 0), "count")

    def rate(work, seconds):
        return work / seconds if seconds > 0 else 0.0
    m["syntax.parse_chars_per_s"] = (rate(
        tally.get("syntax.parse_chars", 0), per_pass.get("syntax.parse", 0)),
        "1/s")
    m["models.assignments_per_s"] = (rate(
        tally.get("models.assignments", 0),
        per_pass.get("models.exhaustive_valid", 0)
        + per_pass.get("models.exhaustive_refuted", 0)), "1/s")
    m["models.samples_per_s"] = (rate(
        tally.get("models.samples", 0), per_pass.get("models.sampled", 0)),
        "1/s")
    errors = tracer.errors(traced_mark)
    for layer in LAYERS:
        m[f"{layer}.errors"] = (sum(errors.get(layer, {}).values()), "count")
    m["trace.overhead"] = (untraced.ops_per_s / phase.ops_per_s, "ratio")
    notes = [f"traced ops_per_s {phase.ops_per_s:.6g} vs untraced "
             f"{untraced.ops_per_s:.6g} ({untraced.passes} and "
             f"{phase.passes} passes)"]
    if errors:
        notes.append(f"errors by layer and class: {errors}")
    return m, notes


# -- main ---------------------------------------------------------------------

def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=int, required=True,
                    help="time.monotonic_ns() just before this process")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    started = args.spawned_at / 1e9
    wl = WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None
    cli = isinstance(wl, CliSession)

    # Set-up: what a user pays before the first verdict.
    # cli-session's own process only drives the commands: each command
    # pays its own set-up, measured by --setup-only processes.
    if cli and not args.setup_only:
        lib = state = None
        setup = {"setup_s": None, "raw_setup_s": None}
        factor = 1.0
    else:
        import meadow
        lib = Library(meadow, tracer)
        state = wl.setup(lib)
        raw_setup_s = time.monotonic() - started
        factor = setup_speed_factor()
        setup = {"setup_s": raw_setup_s * factor, "raw_setup_s": raw_setup_s}
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    pool = wl.pool(lib, args.seed)
    if cli:
        def run_op(entry):
            return run_command(entry[0])
        check = check_command
    else:
        plain = Library(lib.meadow)

        def run_op(item):
            return wl.op(plain, state, item)

        def check(item, result, tally, counter):
            wl.check(plain, state, item, result, tally, counter)

    out = {**setup, "notes": []}
    if not args.trace:
        phase = run_phase(run_op, check, pool, args.seconds, started, False)
        metrics, notes = summarize(phase, wl.TAIL)
        rusage = resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF
        metrics["peak_rss_mb"] = (
            resource.getrusage(rusage).ru_maxrss / 1024, "MB")
        out["notes"] += notes
    else:
        # Untraced and traced rounds alternate, so both see the same host.
        untraced, phase = Phase(), Phase()
        traced_mark = len(tracer.spans)
        if cli:
            def traced_op(item):
                return tracer.call("cli.process", run_command, item[0])
        else:
            def traced_op(item):
                return tracer.call("op", wl.op, lib, state, item)
        op_ids = itertools.count()

        def op_with_id(item):
            tracer.op_id = next(op_ids)
            return traced_op(item)
        begin = time.perf_counter()
        while phase.rounds == 0 or time.perf_counter() - begin < args.seconds:
            run_phase(run_op, check, pool, 0, started, False, untraced)
            run_phase(op_with_id, check, pool, 0, started, True, phase)
            if untraced.cut or phase.cut:
                break
        cli_raw, cli_notes = cli_layers(tracer, pool) if cli else ({}, [])
        metrics, notes = layer_metrics(tracer, traced_mark, phase, untraced,
                                       factor, cli_raw)
        out["notes"] += notes + cli_notes
        os.makedirs(CACHE, exist_ok=True)
        spans_path = os.path.join(
            CACHE, f"spans-{wl.name}-seed{args.seed}.json")
        tracer.write(spans_path)
        out["notes"].append(f"{len(tracer.spans)} spans written to "
                            f"{os.path.relpath(spans_path, ROOT)}")
    repeat = counts_repeat(
        phase, f"{wl.name}-seed{args.seed}-trace{args.trace}")
    if cli:
        argv, want_code, expected = session.KNOWN_DEFECT_PROBE
        code, text = run_command(argv)
        why = session.mismatch(expected, code, want_code, text)
        out["notes"].append(
            f"known-defect probe `meadow {' '.join(argv)}`: "
            + ("passes" if why is None else f"still fails ({why})"))
    out.update({
        "attempted": phase.attempted,
        "failed": sum(phase.failures.values()),
        "failures": dict(phase.failures),
        "messages": phase.messages,
        "counts_error": repeat,
        "metrics": metrics,
    })
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
