"""The meadow benchmark: one command, four workloads, checked answers.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from its
``src`` directory, nothing is installed.  Each run starts the workload in
a fresh single-threaded process (worker.py) and drives it as a closed
loop with one client.  With ``--trace 0`` it prints the end-to-end
metrics; with ``--trace 1`` the per-layer metrics of a traced run, which
also reports the tracing overhead.  The last line of output is one JSON
object: correct, attempted, failed and metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER_TIMEOUT_S = 170


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    # Nothing may start threads of its own.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def run_worker(args, extra, env, timeout=WORKER_TIMEOUT_S) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--spawned-at", str(time.monotonic_ns()), *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                          cwd=ROOT, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed ({proc.returncode}):\n"
                           + proc.stderr[-2000:])
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_source(env) -> None:
    """The library must come from this checkout, and import cleanly."""
    init = os.path.join(ROOT, "src", "meadow", "__init__.py")
    if not os.path.isfile(init):
        raise RuntimeError(f"no library source at {init}")
    # Also warms the bytecode cache, so set-up times exclude compiling.
    proc = subprocess.run(
        [sys.executable, "-c", "import meadow; print(meadow.__file__)"],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError("import meadow failed:\n" + proc.stderr[-2000:])
    if os.path.realpath(proc.stdout.strip()) != os.path.realpath(init):
        raise RuntimeError(f"meadow imported from {proc.stdout.strip()}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    env = child_env()
    try:
        check_source(env)
        # Set-up is measured in several processes and reported as the
        # median; the workload's own process is one of them when it sets up.
        setups = []
        if not args.trace:
            while len(setups) < WORKLOADS[args.workload].SETUPS - 1:
                setups.append(run_worker(args, ["--setup-only"], env))
        result = run_worker(args, [], env)
        if result["setup_s"] is not None:
            setups.append(result)
        elif not args.trace:
            setups.append(run_worker(args, ["--setup-only"], env))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    metrics = dict(result["metrics"])
    if not args.trace:
        metrics["setup_s"] = (
            statistics.median(s["setup_s"] for s in setups), "s")
    failed, attempted = result["failed"], result["attempted"]
    correct = failed == 0 and result["counts_error"] is None

    print(f"workload {args.workload}  seed {args.seed}  "
          f"seconds {args.seconds}  trace {args.trace}")
    print(f"  why: {WORKLOADS[args.workload].why}")
    for name, (value, unit) in sorted(metrics.items()):
        print(f"  {name:32s} {value:14.6g} {unit}")
    print(f"  {'failed_share':32s} {failed / max(attempted, 1):14.6g} ratio"
          f"  ({failed} of {attempted} ops)")
    if not args.trace:
        print(f"  setup_s is the median of {len(setups)} set-ups: "
              + ", ".join(f"{s['setup_s']:.4g}" for s in setups)
              + "; unscaled: "
              + ", ".join(f"{s['raw_setup_s']:.4g}" for s in setups))
    for note in result["notes"]:
        print(f"  {note}")
    if result["failures"]:
        print(f"  failures by class: {result['failures']}")
    for message in result["messages"]:
        print(f"  failure: {message}")
    if result["counts_error"]:
        print(f"  counts: {result['counts_error']}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
