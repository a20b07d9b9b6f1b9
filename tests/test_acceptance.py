"""Acceptance suite: one test per headline criterion, at stated tolerance.

Every preset of ``verify --preset all`` runs once through a module-scoped
fixture and the individual criteria assert against the shared results.  Each
test prints one PASS/FAIL line (visible with ``pytest -s`` or in failure
reports).  The last test holds the same checks against the committed root
``report.json``: a refactor keeps every name, verdict and measured value.
"""

import dataclasses
import json
import math
import pathlib

import pytest

from greenbox import cli, verify

REPORT = pathlib.Path(__file__).resolve().parents[1] / "report.json"


def _compact(value):
    if isinstance(value, (list, tuple)):
        return len(value) <= 6
    if isinstance(value, dict):
        return len(value) <= 6 and all(_compact(v) for v in value.values())
    return True


def _report(label, checks):
    ok = all(c.passed for c in checks)
    print(f"[{'PASS' if ok else 'FAIL'}] {label}")
    for c in checks:
        shown = {k: v for k, v in c.measured.items() if _compact(v)}
        print(f"    [{'PASS' if c.passed else 'FAIL'}] {c.name}: "
              f"measured {shown} expected {c.expected}")
    return ok


def _named(checks, *prefixes):
    out = [c for c in checks if any(c.name.startswith(p) for p in prefixes)]
    assert out, f"no checks matched {prefixes}"
    return out


@pytest.fixture(scope="module")
def decay3d_checks():
    return verify.checks_decay3d()


@pytest.fixture(scope="module")
def log2d_checks():
    return verify.checks_log2d()


@pytest.fixture(scope="module")
def monotone_checks():
    return verify.checks_monotone()


@pytest.fixture(scope="module")
def adjoint_checks():
    return verify.checks_adjoint()


@pytest.fixture(scope="module")
def lorentz_checks():
    return verify.checks_lorentz()


@pytest.fixture(scope="module")
def uniform_checks():
    return verify.checks_uniform()


@pytest.fixture(scope="module")
def lift_checks():
    return verify.checks_lift()


@pytest.fixture(scope="module")
def oracle_checks():
    return verify.checks_oracle()


def test_criterion_01_decay_exponent_3d(decay3d_checks):
    checks = _named(decay3d_checks, "decay3d.G.")
    ok = _report("criterion 1: d=3 |G| decay exponent -1 +- 0.1", checks)
    assert ok, ("|G| exponents on the R=2 Dirichlet box with the offset "
                "eliminated by the half box (raw log-log fit in brackets): "
                + ", ".join(f"{c.name}={c.measured['exponent']:.4f} "
                            f"({c.measured['raw_exponent']:.4f})"
                            for c in checks)
                + " (window [4h, R/4])")


def test_criterion_01_companion_offset_corrected(decay3d_checks):
    checks = _named(decay3d_checks, "decay3d.G_offset_corrected.")
    assert _report("criterion 1 companion: box-offset-corrected |G| fit",
                   checks)


def test_criterion_02_log_bound_2d(log2d_checks):
    checks = _named(log2d_checks, "log2d.G.")
    assert _report("criterion 2: d=2 log bound, slope 1/(2 pi) +- 15%", checks)


def test_criterion_03_gradient_exponents(decay3d_checks, log2d_checks):
    checks = _named(decay3d_checks, "decay3d.grad.") + \
        _named(log2d_checks, "log2d.grad.")
    assert _report("criterion 3: |grad G| exponent 1-d, both dims", checks)


def test_criterion_04_mixed_exponent(log2d_checks):
    checks = _named(log2d_checks, "log2d.mixed.")
    assert _report("criterion 4: |grad_x grad_y G| exponent -d +- 0.2", checks)


def test_criterion_05_monotone_growth(monotone_checks):
    assert _report("criterion 5: maximum-principle monotonicity and 2D drift",
                   monotone_checks)


def test_criterion_06_adjoint_identity(adjoint_checks):
    assert _report("criterion 6: adjoint identity (nonsym_skew, n=17)",
                   adjoint_checks)


def test_criterion_07_lorentz_suite(lorentz_checks):
    assert _report("criterion 7: weak-Lorentz norm suite", lorentz_checks)


def test_criterion_08_uniform_bounds(uniform_checks):
    assert _report("criterion 8: uniform-in-R decay constants and weak norms",
                   uniform_checks)


def test_criterion_09_dimension_lifting(lift_checks):
    assert _report("criterion 9: dimension lifting", lift_checks)


def test_criterion_10_oracle_equivalence(oracle_checks):
    assert _report("criterion 10: Krylov Green matrices match dense inverses",
                   oracle_checks)


def test_criterion_11_interior_ratio(decay3d_checks, log2d_checks):
    checks = _named(decay3d_checks, "decay3d.ratio.") + \
        _named(log2d_checks, "log2d.ratio.")
    assert _report("criterion 11: interior gradient-over-value ratio", checks)


def _mismatches(path, got, want):
    """Paths where got differs from want; numbers may differ by abs 1e-9 or
    rel 1e-6 (solver tolerance), everything else must be equal."""
    if isinstance(want, dict) and isinstance(got, dict):
        if got.keys() != want.keys():
            return [f"{path}: keys {sorted(got)} != {sorted(want)}"]
        return [m for k in want for m in _mismatches(f"{path}.{k}", got[k],
                                                     want[k])]
    if isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            return [f"{path}: length {len(got)} != {len(want)}"]
        return [m for i, (g, w) in enumerate(zip(got, want))
                for m in _mismatches(f"{path}[{i}]", g, w)]
    numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool)
                  for v in (got, want))
    if numbers and (math.isclose(got, want, rel_tol=1e-6, abs_tol=1e-9)
                    or math.isnan(got) and math.isnan(want)):
        return []
    return [] if got == want else [f"{path}: {got!r} != {want!r}"]


def test_checks_match_committed_report(request):
    # every preset of verify --preset all, in the order that wrote the report
    checks = [c for name in verify.PRESETS
              for c in request.getfixturevalue(f"{name}_checks")]
    got = json.loads(json.dumps([dataclasses.asdict(c) for c in checks],
                                default=cli._json_default))
    want = json.loads(REPORT.read_text())["checks"]
    assert [(c["name"], c["passed"]) for c in got] == \
        [(c["name"], c["passed"]) for c in want]
    bad = [m for g, w in zip(got, want) for key in ("measured", "expected")
           for m in _mismatches(f"{w['name']}.{key}", g[key], w[key])]
    assert not bad, "\n".join(bad)
