"""The benchmark's workloads: seeded inputs, one pass, correctness gates.

A workload has two parts.  ``make_inputs`` is set-up: it fixes the sizes and
draws source offsets from the seed, without calling greenbox.  ``run_pass``
is one workload pass: it builds the field and grid, assembles, solves,
post-processes and records every correctness gate in the ledger.  The
program only ever receives the generated field, grid and source nodes,
never the seed.

Gates follow the pinned bands of the matching ``greenbox verify`` presets.
A gate that does not hold is a failed operation; values that are recorded
but not gated (the raw d = 3 exponent, which misses -1 by design of the
box experiment) go into ``ledger.values`` only.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

from greenbox import analysis, fields, green, lift, mesh

REL_TOL = 1e-10

# "full" is what the benchmark measures; "small" only serves the smoke test.
# Sources sit within max_offset grid steps of the centre on every axis.
# columns2d uses n = 129 (h = 1/16): a 65,025-unknown pass takes about 21 s,
# one sample per run, and its time spread 19% between runs.  The gradient
# band -1 +- 0.15 holds at every offset up to 4h = 0.25 here (worst -1.06);
# at n = 257 the same physical range leaves the band from 6h on (-1.18 to
# -0.84), because the phase of the coefficient at the source then matters.
FULL = {
    "column3d": {"n": 65, "R": 2.0, "max_offset": 2},
    "columns2d": {"n": 129, "R": 4.0, "max_offset": 4, "sources": 2},
    "lift_slab": {"n": 33, "R": 1.0, "kappa_factor": 4.0,
                  "families": (("identity", 0.15), ("scalar_trig", 0.20))},
}
SIZES = {
    "full": FULL,
    "small": {**FULL,
              "column3d": {**FULL["column3d"], "n": 49},
              "lift_slab": {**FULL["lift_slab"],
                            "families": (("identity", 0.15),)}},
}


@dataclass
class Ledger:
    """Operations attempted and failed: solves plus correctness gates."""

    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    values: dict = field(default_factory=dict)
    solve_error: BaseException | None = None  # last error already counted

    def solve(self, fn, *args, **kwargs):
        """Call one solve, counting it and any exception it raises."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            self.failed += 1
            self.solve_error = exc
            raise

    def gate(self, name, ok, **measured):
        self.attempted += 1
        self.values[name] = measured
        if not ok:
            self.failed += 1
            self.failures.append(f"{name}: {measured}")


def make_inputs(workload, seed, scale="full"):
    """Sizes plus seeded source offsets (in grid steps from the centre)."""
    params = dict(SIZES[scale][workload])
    rng = random.Random(seed)
    if workload == "column3d":
        k = params["max_offset"]
        params["offsets"] = [tuple(rng.randint(-k, k) for _ in range(3))]
    elif workload == "columns2d":
        k = params["max_offset"]
        offsets = []
        while len(offsets) < params["sources"]:
            off = (rng.randint(-k, k), rng.randint(-k, k))
            if off not in offsets:
                offsets.append(off)
        params["offsets"] = offsets
    return params


def _source(grid, offset):
    c = (grid.n - 1) // 2
    return grid.index([c + o for o in offset])


def _grad_magnitude(values, grid):
    return np.linalg.norm(mesh.gradient_field(values, grid), axis=1)


def _power_fit(values, grid, spec, window, quantity):
    stats = analysis.annulus_average(values, grid, spec)
    return analysis.fit_power_decay(spec.radii, stats, window, quantity)


def column3d(p, ledger):
    """One large 3D column with decay3d's fits: nothing amortizes."""
    fld = fields.make_field("scalar_trig", 3)
    grid = mesh.build_grid(3, p["R"], p["n"])
    system = mesh.assemble(fld, grid)
    col = green.green_column(fld, grid, _source(grid, p["offsets"][0]),
                             system=system, rel_tol=REL_TOL)
    window = analysis.fit_window(grid)
    spec = analysis.make_annuli(grid, col.source_coords, window)
    stats = analysis.annulus_average(col.values, grid, spec)
    raw = analysis.fit_power_decay(spec.radii, stats, window, "G")
    ledger.values["raw_exponent"] = raw.fitted_exponent

    # G_R = C r^(2-d) - c on the box: fit (C, c) with the exponent pinned,
    # then re-fit the exponent with the offset restored (decay3d's companion)
    radii = np.asarray(spec.radii)
    design = np.stack([radii ** -1.0, -np.ones_like(radii)], axis=1)
    coef, *_ = np.linalg.lstsq(design, stats, rcond=None)
    rel_rms = float(np.sqrt(np.mean((stats - design @ coef) ** 2))
                    / stats.mean())
    corrected = analysis.fit_power_decay(radii, stats + coef[1], window, "G")
    ledger.gate("column3d.G_offset_corrected",
                rel_rms <= 0.02
                and abs(corrected.fitted_exponent + 1.0) <= 0.05,
                rel_rms=rel_rms, exponent=corrected.fitted_exponent)

    grad = _power_fit(_grad_magnitude(col.values, grid), grid, spec, window,
                      "grad_x")
    ledger.gate("column3d.grad", abs(grad.fitted_exponent + 2.0) <= 0.15,
                exponent=grad.fitted_exponent)


def columns2d(p, ledger):
    """Many columns on one assembled 2D system, as uniform and log2d do."""
    fld = fields.make_field("scalar_trig", 2)
    grid = mesh.build_grid(2, p["R"], p["n"])
    system = mesh.assemble(fld, grid)
    window = analysis.fit_window(grid)
    ys = [_source(grid, off) for off in p["offsets"]]
    cols = []
    for i, y in enumerate(ys):
        col = green.green_column(fld, grid, y, system=system, rel_tol=REL_TOL)
        cols.append(col)
        tensor = green.mixed_derivative(fld, grid, y, system=system,
                                        rel_tol=REL_TOL)
        spec = analysis.make_annuli(grid, col.source_coords, window)
        gmag = _grad_magnitude(col.values, grid)
        grad = _power_fit(gmag, grid, spec, window, "grad_x")
        ledger.gate(f"columns2d.grad.{i}",
                    abs(grad.fitted_exponent + 1.0) <= 0.15,
                    exponent=grad.fitted_exponent)
        mixed = _power_fit(np.sqrt((tensor ** 2).sum(axis=(1, 2))), grid,
                           spec, window, "mixed")
        ledger.values[f"mixed_exponent.{i}"] = mixed.fitted_exponent
        ledger.values[f"weak_grad_norm.{i}"] = analysis.weak_lorentz_norm(
            gmag, grid.h ** 2, 2.0)

    # K symmetric: G(y_i; y_j) - G(y_j; y_i) = u_i . r_j - u_j . r_i to first
    # order, with solver residuals ||r|| <= REL_TOL; a factor 2 covers the
    # first-order substitution
    for i in range(len(ys)):
        for j in range(i + 1, len(ys)):
            err = abs(cols[j].values[ys[i]] - cols[i].values[ys[j]])
            bound = 2.0 * REL_TOL * (np.linalg.norm(cols[i].values)
                                     + np.linalg.norm(cols[j].values))
            ledger.gate(f"columns2d.symmetry.{i}{j}", err <= bound,
                        abs_err=float(err), bound=float(bound))


def lift_slab(p, ledger):
    """lift.gradient_match.*: slab solves integrated over t vs direct 2D."""
    kappa = p["kappa_factor"] * p["R"]
    for family, tol in p["families"]:
        fld = fields.make_field(family, 2)
        grid = mesh.build_grid(2, p["R"], p["n"])
        slab = lift.build_slab(grid, kappa)
        rep = lift.compare_lift(fld, grid, slab, grid.center_index, kappa,
                                rel_tol=REL_TOL)
        ledger.gate(f"lift_slab.gradient_match.{family}",
                    rep.rel_discrepancy_l2 <= tol and rep.positive
                    and rep.monotone_in_kappa,
                    rel_l2=rep.rel_discrepancy_l2, positive=rep.positive,
                    monotone_in_kappa=rep.monotone_in_kappa)


PASSES = {"column3d": column3d, "columns2d": columns2d, "lift_slab": lift_slab}


def run_pass(workload, inputs, ledger):
    """One pass; an exception is one failed operation, not a crash."""
    try:
        PASSES[workload](inputs, ledger)
    except Exception as exc:  # the loop must keep running and report it
        if exc is not ledger.solve_error:
            ledger.attempted += 1
            ledger.failed += 1
        ledger.failures.append(f"{workload}: {type(exc).__name__}: {exc}")
