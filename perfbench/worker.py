"""One workload in its own process: set up, then a closed loop of passes.

Started by run.py with the BLAS thread variables already pinned.  Prints
``ready`` once set-up is done (run.py times process start to that line),
then, unless ``--setup-only``, one JSON line with the run's result.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

import greenbox
import spans
import workloads
from greenbox import sparse

ROOT = Path(__file__).resolve().parent.parent


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit():
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment():
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}) \
        .get("blas", {})
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}"
                .strip(),
        "threads": {k: v for k, v in sorted(os.environ.items())
                    if k.endswith(("_NUM_THREADS", "_MAXIMUM_THREADS"))},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "greenbox": greenbox.__version__,
        "commit": _git_commit(),
    }


def timed_pass(workload, inputs, ledger):
    t0 = perf_counter()
    workloads.run_pass(workload, inputs, ledger)
    return perf_counter() - t0


def closed_loop(workload, inputs, ledger, seconds):
    """Passes back to back; stop before a pass would overrun ``seconds``."""
    walls = []
    start = perf_counter()
    while True:
        walls.append(timed_pass(workload, inputs, ledger))
        if perf_counter() - start + statistics.median(walls) > seconds:
            return walls


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.PASSES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=sorted(workloads.SIZES),
                    default="full")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    inputs = workloads.make_inputs(args.workload, args.seed, args.scale)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    ledger = workloads.Ledger()
    counted = [(sparse, "solve", functools.partial(ledger.solve,
                                                   sparse.solve))
               ] if hasattr(sparse, "solve") else []
    result = {"workload": args.workload, "inputs": inputs}
    with spans.patched(counted):
        if args.trace:
            # the first pass in a process runs a few percent slower, so it
            # only warms up; the traced pass is compared with the one after
            warm = timed_pass(args.workload, inputs, ledger)
            recorder = spans.Recorder()
            replacements, absent = spans.instrument(recorder)
            with spans.patched(replacements):
                traced = timed_pass(args.workload, inputs, ledger)
            untraced = timed_pass(args.workload, inputs, ledger)
            result["metrics"] = spans.layer_metrics(recorder, traced,
                                                    untraced)
            result["absent"] = absent
            result["systems"] = recorder.systems
            result["walls"] = [warm, traced, untraced]
        else:
            result["walls"] = closed_loop(args.workload, inputs, ledger,
                                          args.seconds)
            result["peak_rss_mb"] = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result.update(attempted=ledger.attempted, failed=ledger.failed,
                  failures=ledger.failures, values=ledger.values,
                  environment=environment())
    print(json.dumps(result, default=float), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
