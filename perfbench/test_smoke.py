"""Smoke test of the benchmark's own drivers at reduced sizes.

    python3 -m pytest perfbench/test_smoke.py

Runs every workload once per mode at ``--scale small``, requires zero failed
operations, and checks that the printed metric names and units are exactly
the ones BENCHMARK.json declares.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_small(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "7", "--seconds", "1",
                "--trace", str(trace), "--scale", "small")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    assert result["failed"] / result["attempted"] == 0  # error_rate
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    assert all(isinstance(v["value"], (int, float))
               for v in result["metrics"].values())
    assert "environment " in proc.stdout


def test_fails_without_program(tmp_path):
    """Beside only BENCHMARK.json and perfbench/, the run fails cleanly."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", WORKLOADS[0], "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode not in (0, None)
    assert '"correct"' not in proc.stdout


def test_missing_target_is_absent(monkeypatch):
    """A traced function that a refactor removed is listed, not an error."""
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(HERE))
    import spans
    gone = (("sparse", "SparseSystem.gone", "sparse.gone"),
            ("mesh", "no_such_function", "mesh.none"))
    monkeypatch.setattr(spans, "TARGETS", spans.TARGETS + gone)
    replacements, absent = spans.instrument(spans.Recorder())
    assert absent == ["sparse.SparseSystem.gone", "mesh.no_such_function"]
    assert len(replacements) >= len(spans.TARGETS) - len(gone)
