"""greenbox benchmark: one workload per call, measured from outside.

    python3 perfbench/run.py --workload column3d --seed 1 --seconds 36 --trace 0

The load is a closed loop from one client: one worker process runs one
workload pass after another until ``--seconds`` is used up, with the BLAS
and OpenMP thread counts pinned to 1.  Nothing runs concurrently.

``--trace 0`` prints the end-to-end metrics: ``wall_s`` (median pass, tracing
off), ``setup_s`` (median time from process start to a ready workload over
several fresh processes) and ``peak_rss_mb`` (peak resident memory of the
worker).  ``--trace 1`` runs a warm-up pass, a traced pass and an untraced
pass and prints the per-layer metrics (see spans.py).  Every result is
preceded by the environment block; the last line is one JSON object with
``correct``,
``attempted``, ``failed`` and ``metrics``.  An operation is a solve or a
correctness gate; the exit code is 1 when any failed, 2 when the benchmark
itself could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PINNED = {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                           "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                           "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
# setup-only processes timed before and again after the worker, which is
# timed too: start-up cost drifts by 20% within seconds on a shared host, so
# the samples straddle the run
SETUP_STARTS = 5
WORKER_TIMEOUT = 170.0


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _worker_env():
    env = dict(os.environ, **PINNED)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


def start_worker(argv, env, deadline):
    """Start worker.py and wait for its ``ready`` line.

    Returns (process, seconds from start to ready).
    """
    t0 = perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py")] + argv,
                            stdout=subprocess.PIPE, env=env, text=True,
                            cwd=ROOT)
    line = proc.stdout.readline()
    ready = perf_counter() - t0
    if line.strip() != "ready":
        finish(proc, deadline)
        raise BenchError(f"worker did not get ready (exit {proc.returncode})")
    return proc, ready


def finish(proc, deadline):
    """Wait for the worker and return its last output line."""
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker timed out") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    return lines[-1] if lines else ""


def run(args):
    if not (SRC / "greenbox" / "__init__.py").is_file():
        raise BenchError(f"greenbox sources not found under {SRC}")
    env = _worker_env()
    deadline = perf_counter() + WORKER_TIMEOUT
    argv = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--scale", args.scale]

    def setup_only():
        proc, ready = start_worker(argv + ["--setup-only"], env, deadline)
        finish(proc, deadline)
        return ready

    setups = [setup_only() for _ in range(SETUP_STARTS)]
    proc, ready = start_worker(argv, env, deadline)
    result = json.loads(finish(proc, deadline))
    setups += [ready] + [setup_only() for _ in range(SETUP_STARTS)]
    result["setup_s"] = setups
    return result


def report(args, res):
    """Print the human-readable block and return the final JSON object."""
    walls = res["walls"]
    print("environment " + json.dumps(res["environment"], sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} scale {args.scale}: "
          f"closed loop, one client, inputs {json.dumps(res['inputs'])}")
    print("pass walls [s] " + " ".join(f"{w:.3f}" for w in walls)
          + (" (warm-up, traced, untraced)" if args.trace else ""))
    error_rate = res["failed"] / max(res["attempted"], 1)
    if args.trace:
        metrics = res["metrics"]
        print("absent " + (", ".join(res["absent"]) or "none"))
        print("systems (unknowns, nnz) " + json.dumps(res["systems"]))
        for name, (value, unit) in metrics.items():
            print(f"  {name:32s} {value:14.6g} {unit}")
    else:
        metrics = {
            "wall_s": (statistics.median(walls), "s"),
            "setup_s": (statistics.median(res["setup_s"]), "s"),
            "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        }
        print(f"  wall_s       {metrics['wall_s'][0]:10.4f} s  "
              f"(median of {len(walls)} passes)")
        print(f"  setup_s      {metrics['setup_s'][0]:10.4f} s  "
              f"(median of {len(res['setup_s'])} process starts)")
        print(f"  peak_rss_mb  {metrics['peak_rss_mb'][0]:10.1f} MB")
    print(f"  error_rate   {error_rate:10.4g}    "
          f"({res['failed']} failed / {res['attempted']} attempted)")
    for name, value in res["values"].items():
        print(f"  value {name} {json.dumps(value)}")
    for failure in res["failures"]:
        print(f"  FAILED {failure}")
    return {"correct": res["failed"] == 0, "attempted": res["attempted"],
            "failed": res["failed"],
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    help="a workload named in BENCHMARK.json")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", default="full",
                    help="full, or small: reduced sizes for the smoke test")
    args = ap.parse_args(argv)
    try:
        res = run(args)
    except (BenchError, json.JSONDecodeError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    final = report(args, res)
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
