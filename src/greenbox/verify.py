"""Experiment runners with pinned expectations, one group per headline check.

Each runner returns a list of Check records.  ``PRESETS`` names every runner
once, so ``greenbox verify --preset <name>`` reproduces the corresponding
acceptance run in one command.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass

import numpy as np

from . import analysis, fields, green, lift, mesh, sparse
from .errors import ConfigError

DECAY_FAMILIES = ("identity", "scalar_trig")


@dataclass
class Check:
    """One verification record: what was measured against what."""

    name: str
    anchor: str
    passed: bool
    measured: dict
    expected: dict
    details: str = ""


def _within(value, target, tol):
    return abs(value - target) <= tol


def _profile(values, grid, y_coords, window, count=9, eta=analysis.DEFAULT_ETA):
    spec = analysis.make_annuli(grid, y_coords, window, count=count, eta=eta)
    return spec, analysis.annulus_average(values, grid, spec)


def _power_check(name, anchor, values, col, window, quantity, exponent, tol,
                 radii_count, eta):
    """Judge the fitted exponent of the shell means of ``values``."""
    spec, stats = _profile(values, col.grid, col.source_coords, window,
                           count=radii_count, eta=eta)
    rep = analysis.fit_power_decay(spec.radii, stats, window, quantity)
    return Check(
        name=name, anchor=anchor,
        passed=_within(rep.fitted_exponent, exponent, tol),
        measured={"exponent": rep.fitted_exponent,
                  "constant": rep.fitted_constant,
                  "radii": list(rep.radii),
                  "annulus_stats": list(rep.annulus_stats)},
        expected={"exponent": exponent, "tol": tol})


def _interior_ratios(col, gmag):
    """Gradient-over-value ratios at the dyadic radii 8h (ball centred 12h
    along axis 0) and 16h (which only fits centred 14h along the diagonal).
    """
    grid, d, h = col.grid, col.grid.dim, col.grid.h
    x_axis = grid.node_at(col.source_coords + 12 * h * np.eye(d)[0])
    x_diag = grid.node_at(col.source_coords + 14 * h * np.ones(d))
    ratios = [analysis.interior_ratio(col, gmag, x_axis, 8 * h),
              analysis.interior_ratio(col, gmag, x_diag, 16 * h)]
    return {"ratios": ratios, "variation": max(ratios) / min(ratios)}


# ---------------------------------------------------------------------------
# decay suite, d = 3: |G| ~ r^{2-d}, |grad G| ~ r^{1-d}, interior ratios
# ---------------------------------------------------------------------------

def checks_decay3d(families=DECAY_FAMILIES, R=2.0, n=65, rel_tol=1e-10,
                   radii_count=9, eta=analysis.DEFAULT_ETA):
    checks = []
    grid = mesh.build_grid(3, R, n)
    # the box offset c(R) ~ 1/R doubles on the nested half box, so one more
    # column there eliminates it from the shell means (fit_two_box_decay)
    half = green.nested_grid(3, R / 2.0, grid.h)
    for fam in families:
        field = fields.make_field(fam, 3)
        system = mesh.assemble(field, grid)
        col = green.green_column(field, grid, grid.center_index,
                                 system=system, rel_tol=rel_tol)
        window = analysis.fit_window(grid)
        spec, stats = _profile(col.values, grid, col.source_coords, window,
                               count=radii_count, eta=eta)
        half_col = green.green_column(field, half,
                                      half.node_at(col.source_coords),
                                      rel_tol=rel_tol)
        half_stats = analysis.annulus_average(half_col.values, half, spec)
        raw = analysis.fit_power_decay(spec.radii, stats, window, "G")
        rep = analysis.fit_two_box_decay(spec.radii, stats, half_stats,
                                         window, "G")
        checks.append(Check(
            name=f"decay3d.G.{fam}",
            anchor="|G(x,y)| <= C |x-y|^(2-d)",
            passed=_within(rep.fitted_exponent, -1.0, 0.1),
            measured={"exponent": rep.fitted_exponent,
                      "constant": rep.fitted_constant,
                      "rms_log_residual": rep.rms_log_residual,
                      "raw_exponent": raw.fitted_exponent,
                      "raw_constant": raw.fitted_constant,
                      "offset": float(np.mean(stats - half_stats)),
                      "radii": list(rep.radii),
                      "annulus_stats": list(raw.annulus_stats),
                      "half_box_annulus_stats": list(half_stats)},
            expected={"exponent": -1.0, "tol": 0.1},
            details=f"exponent of 2 f_R - f_(R/2), window {window}, "
                    f"R={R}, n={n}, half box n={half.n}"))

        # companion fit acknowledging the finite-box offset
        fit = analysis.fit_offset_decay(spec.radii, stats, window)
        exponent = fit.corrected.fitted_exponent
        meas = {"amplitude": fit.amplitude, "offset": fit.offset,
                "rel_rms": fit.rel_rms, "corrected_exponent": exponent}
        ok = fit.rel_rms <= 0.02 and _within(exponent, -1.0, 0.05)
        if fam == "identity":
            free_amp = 1.0 / (4.0 * np.pi)
            meas["amplitude_vs_free_space"] = fit.amplitude / free_amp - 1.0
            ok = ok and abs(fit.amplitude / free_amp - 1.0) <= 0.03
        checks.append(Check(
            name=f"decay3d.G_offset_corrected.{fam}",
            anchor="G_R = C r^(2-d) - const(R) on the box, C domain-independent",
            passed=ok,
            measured=meas,
            expected={"rel_rms": 0.02, "corrected_exponent": -1.0, "tol": 0.05,
                      "amplitude_tol": 0.03 if fam == "identity" else None},
            details="two-parameter fit with the exponent pinned at 2-d"))

        gmag = np.linalg.norm(mesh.gradient_field(col.values, grid), axis=1)
        checks.append(_power_check(
            f"decay3d.grad.{fam}", "|grad_x G(x,y)| <= C |x-y|^(1-d)", gmag,
            col, window, "grad_x", -2.0, 0.15, radii_count, eta))

        meas = _interior_ratios(col, gmag)
        ok = meas["variation"] < 4.0
        if fam == "identity":
            rho, r = 12 * grid.h, 8 * grid.h
            exact = r * (rho - r) / (rho - r / 2) ** 2
            rel = meas["ratios"][0] / exact - 1.0
            meas["analytic_rel_err"] = rel
            ok = ok and abs(rel) <= 0.15
        checks.append(Check(
            name=f"decay3d.ratio.{fam}",
            anchor="r sup_{B_{r/2}} |grad G| <= C sup_{B_r} |G|",
            passed=ok,
            measured=meas,
            expected={"variation_factor": 4.0,
                      "analytic_rel_tol": 0.15 if fam == "identity" else None}))
    return checks


# ---------------------------------------------------------------------------
# decay suite, d = 2: log bound, gradient, mixed second derivatives
# ---------------------------------------------------------------------------

def checks_log2d(families=DECAY_FAMILIES, R=4.0, n=129, rel_tol=1e-10,
                 radii_count=9, eta=analysis.DEFAULT_ETA):
    checks = []
    slope_ref = 1.0 / (2.0 * np.pi)
    for fam in families:
        field = fields.make_field(fam, 2)
        grid = mesh.build_grid(2, R, n)
        system = mesh.assemble(field, grid)
        col = green.green_column(field, grid, grid.center_index,
                                 system=system, rel_tol=rel_tol)
        ncol = green.normalize_2d(col)
        window = analysis.fit_window(grid, "log")
        spec, stats = _profile(ncol.values, grid, ncol.source_coords, window,
                               count=radii_count, eta=eta)
        rep = analysis.fit_log_growth(spec.radii, stats, window)
        rel_res = rep.rms_residual / np.mean(stats)
        ok = np.isfinite(rep.slope) and rel_res <= 0.10
        meas = {"slope": rep.slope, "residual_over_mean": float(rel_res),
                "offset": ncol.offset, "radii": list(rep.radii),
                "annulus_stats": list(rep.annulus_stats)}
        if fam == "identity":
            meas["slope_rel_err"] = rep.slope / slope_ref - 1.0
            ok = ok and abs(rep.slope / slope_ref - 1.0) <= 0.15
        checks.append(Check(
            name=f"log2d.G.{fam}",
            anchor="|G(x,y)| <= C (1 + |log|x-y||)",
            passed=bool(ok),
            measured=meas,
            expected={"residual_over_mean": 0.10,
                      "slope": slope_ref if fam == "identity" else "finite",
                      "slope_rel_tol": 0.15 if fam == "identity" else None},
            details=f"window {window} (outer cut below the normalization "
                    f"zero crossing at exp(-1/2))"))

        window_p = analysis.fit_window(grid)
        gmag = np.linalg.norm(mesh.gradient_field(col.values, grid), axis=1)
        checks.append(_power_check(
            f"log2d.grad.{fam}", "|grad_x G(x,y)| <= C |x-y|^(1-d)", gmag,
            col, window_p, "grad_x", -1.0, 0.15, radii_count, eta))

        tensor = green.mixed_derivative(field, grid, grid.center_index,
                                        system=system, rel_tol=rel_tol)
        tmag = np.sqrt((tensor**2).sum(axis=(1, 2)))
        checks.append(_power_check(
            f"log2d.mixed.{fam}", "|grad_x grad_y G(x,y)| <= C |x-y|^(-d)",
            tmag, col, window_p, "mixed", -2.0, 0.2, radii_count, eta))

        meas = _interior_ratios(col, gmag)
        checks.append(Check(
            name=f"log2d.ratio.{fam}",
            anchor="r sup_{B_{r/2}} |grad G| <= C sup_{B_r} |G|",
            passed=meas["variation"] < 4.0,
            measured=meas,
            expected={"variation_factor": 4.0}))
    return checks


# ---------------------------------------------------------------------------
# maximum principle: monotone growth in R, 2D additive drift
# ---------------------------------------------------------------------------

def checks_monotone(families=fields.FAMILIES, rel_tol=1e-10):
    checks = []
    drift_ref = np.log(2.0) / (2.0 * np.pi)
    for fam in families:
        for d, h in ((2, 1.0 / 16.0), (3, 1.0 / 8.0)):
            field = fields.make_field(fam, d)
            rep = green.domain_growth(field, (0.0,) * d, (1.0, 2.0, 4.0), h,
                                      rel_tol=rel_tol)
            scale = max(float(c.values.max()) for c in rep.columns)
            checks.append(Check(
                name=f"monotone.{fam}.d{d}",
                anchor="G_R' >= G_R for R' > R (maximum principle)",
                passed=rep.worst_violation <= 1e-10 * scale,
                measured={"worst_violation": rep.worst_violation},
                expected={"bound": 1e-10 * scale}))
            if d == 2 and fam == "identity":
                errs = [abs(dr / drift_ref - 1.0) for dr in rep.drifts]
                checks.append(Check(
                    name="monotone.drift2d.identity",
                    anchor="G_{R'} - G_R -> (1/2pi) log(R'/R) near the source",
                    passed=max(errs) <= 0.10,
                    measured={"drifts": rep.drifts, "rel_errors": errs},
                    expected={"drift": drift_ref, "tol": 0.10}))
            if d == 3 and fam == "identity":
                checks.append(Check(
                    name="monotone.converge3d.identity",
                    anchor="G_R converges as R grows (d >= 3)",
                    passed=rep.sup_diffs[-1] < rep.sup_diffs[0],
                    measured={"sup_diffs_on_smallest_box": rep.sup_diffs},
                    expected={"decreasing": True}))
    return checks


# ---------------------------------------------------------------------------
# adjoint identity via the dense oracle
# ---------------------------------------------------------------------------

def checks_adjoint(n=17, R=1.0, rel_tol=1e-10):
    checks = []
    field = fields.make_field("nonsym_skew", 2)
    grid = mesh.build_grid(2, R, n)
    system = mesh.assemble(field, grid)
    system_t = mesh.assemble(fields.transpose_field(field), grid)
    g_mat = np.linalg.inv(system.to_dense())
    g_mat_t = np.linalg.inv(system_t.to_dense())
    dense_err = float(np.abs(g_mat - g_mat_t.T).max())
    scale = float(np.abs(g_mat).max())
    checks.append(Check(
        name="adjoint.dense.nonsym_skew",
        anchor="G_A(x,y) = G_{A^T}(y,x)",
        passed=dense_err <= 1e-8 * scale,
        measured={"max_abs_err": dense_err, "scale": scale},
        expected={"bound": 1e-8 * scale},
        details="full dense Green matrices"))

    h = grid.h
    y = grid.center_index
    xs = [grid.node_at(h * np.array(p)) for p in ((2, -2), (4, 2), (-3, 1))]
    col = green.green_column(field, grid, y, system=system, rel_tol=rel_tol)
    worst = 0.0
    for x in xs:
        adj = green.adjoint_column(field, grid, x, system=system_t,
                                   rel_tol=rel_tol)
        worst = max(worst, abs(col.values[x] - adj.values[y]))
    checks.append(Check(
        name="adjoint.iterative.nonsym_skew",
        anchor="G_A(x,y) = G_{A^T}(y,x)",
        passed=worst <= 1e-8 * float(col.values.max()),
        measured={"max_abs_err": worst},
        expected={"bound": 1e-8 * float(col.values.max())},
        details="BiCGStab columns of L and L*"))
    return checks


# ---------------------------------------------------------------------------
# weak-Lorentz norms and the embedding sandwich
# ---------------------------------------------------------------------------

def _random_fields(rng, count):
    for _ in range(count):
        kind = rng.integers(0, 3)
        size = int(rng.integers(20, 200))
        if kind == 0:
            yield rng.normal(size=size)
        elif kind == 1:
            yield rng.lognormal(sigma=2.0, size=size)
        else:
            v = np.zeros(size)
            k = max(1, size // 10)
            v[rng.choice(size, size=k, replace=False)] = rng.normal(size=k) * 100
            yield v


def checks_lorentz(seed=0):
    checks = []
    # exact constant-field case: the inverted prefactor asserts 2 <= 1
    ones = np.ones(100)
    rep = analysis.lorentz_sandwich_check(ones, 1.0 / ones.size, p=2.0, beta=1.0)
    exact_ok = (abs(rep.weak - 1.0) < 1e-12 and abs(rep.lp - 1.0) < 1e-12
                and abs(rep.lp_minus_beta - 1.0) < 1e-12
                and abs(rep.c_corrected - 0.5) < 1e-12
                and abs(rep.c_inverted - 2.0) < 1e-12
                and rep.lower_ok and rep.upper_ok and not rep.inverted_lower_ok)
    checks.append(Check(
        name="lorentz.constant_counterexample",
        anchor="C(p,b) ||f||_{p-b} <= ||f||_{p,inf}: prefactor must be (b/p)",
        passed=exact_ok,
        measured={"weak": rep.weak, "lp": rep.lp, "lpb": rep.lp_minus_beta,
                  "c_corrected": rep.c_corrected, "c_inverted": rep.c_inverted,
                  "lower_ok": rep.lower_ok, "upper_ok": rep.upper_ok,
                  "inverted_holds": rep.inverted_lower_ok},
        expected={"weak": 1.0, "lp": 1.0, "lpb": 1.0, "c_corrected": 0.5,
                  "c_inverted": 2.0, "tol": 1e-12, "lower_ok": True,
                  "upper_ok": True, "inverted_holds": False},
        details="f = 1 on unit measure at p = 2, beta = 1"))

    rng = np.random.default_rng(seed)
    lower_fail = upper_fail = 0
    inverted_fail = 0
    for v in _random_fields(rng, 1000):
        r = analysis.lorentz_sandwich_check(v, 1.0 / v.size, p=2.0, beta=1.0)
        lower_fail += not r.lower_ok
        upper_fail += not r.upper_ok
        inverted_fail += not r.inverted_lower_ok
    checks.append(Check(
        name="lorentz.sandwich_random",
        anchor="C(p,b) ||f||_{p-b} <= ||f||_{p,inf} <= ||f||_p",
        passed=(lower_fail == 0 and upper_fail == 0),
        measured={"n_fields": 1000, "lower_failures": lower_fail,
                  "upper_failures": upper_fail,
                  "inverted_prefactor_failures": inverted_fail},
        expected={"lower_failures": 0, "upper_failures": 0}))

    # |x|^{-1} on the unit disk: borderline-L^2 singularity with weak norm
    # sqrt(pi); nodes inside 4h are excluded (the lattice order statistics
    # there are delta-scale artifacts, exactly like the radial fit window)
    grid = mesh.build_grid(2, 1.0, 257)
    h = grid.h
    r = grid.distances((0.0, 0.0))
    mask = (r <= 1.0) & (r >= 4 * h)
    vals = 1.0 / r[mask]
    norm = analysis.weak_lorentz_norm(vals, h * h, p=2.0)
    ref = float(np.sqrt(np.pi))
    checks.append(Check(
        name="lorentz.disk_inverse_radius",
        anchor="|| |x|^{-1} ||_{L^{2,inf}(disk)} = sqrt(pi)",
        passed=abs(norm / ref - 1.0) <= 0.02,
        measured={"norm": norm, "rel_err": norm / ref - 1.0},
        expected={"norm": ref, "tol": 0.02},
        details="n = 257, near-field exclusion 4h"))

    rep2 = analysis.lorentz_sandwich_check(vals, h * h, p=2.0, beta=0.5)
    checks.append(Check(
        name="lorentz.disk_lower_sandwich",
        anchor="C(p,b) ||f||_{p-b} <= ||f||_{p,inf} at p = 2, b = 0.5",
        passed=rep2.lower_ok and rep2.upper_ok,
        measured={"weak": rep2.weak, "lpb": rep2.lp_minus_beta,
                  "c_corrected": rep2.c_corrected},
        expected={"lower_ok": True, "upper_ok": True}))
    return checks


# ---------------------------------------------------------------------------
# uniform-in-R bounds across nested boxes and source positions
# ---------------------------------------------------------------------------

def checks_uniform(families=DECAY_FAMILIES, rel_tol=1e-10):
    """Fitted constants and ||grad G_R||_{2,inf} in 2D on the nested boxes
    R = 1, 2, 4 (h = 1/32) with two sources each; every quantity must vary
    by less than a factor 1.25 over the six (R, y) pairs."""
    checks = []
    for fam in families:
        field = fields.make_field(fam, 2)
        records = {"G": {}, "grad": {}, "weak_grad": {}, "mixed": {}}
        for R in (1.0, 2.0, 4.0):
            grid = green.nested_grid(2, R, 1.0 / 32.0)
            system = mesh.assemble(field, grid)
            window = analysis.fit_window(grid)
            for y_phys in ((0.0, 0.0), (0.25, 0.0)):
                y = grid.node_at(y_phys)
                key = str((R, y_phys))
                col = green.green_column(field, grid, y, system=system,
                                         rel_tol=rel_tol)
                # the log slope is normalization-independent while the
                # column is one-signed, so fit the raw positive column
                spec, stats = _profile(col.values, grid, col.source_coords,
                                       window)
                records["G"][key] = analysis.fit_log_growth(
                    spec.radii, stats, window).slope
                gmag = np.linalg.norm(mesh.gradient_field(col.values, grid),
                                      axis=1)
                records["grad"][key] = analysis.fit_power_decay(
                    spec.radii, analysis.annulus_average(gmag, grid, spec),
                    window, "grad_x").fitted_constant
                records["weak_grad"][key] = analysis.weak_lorentz_norm(
                    gmag, grid.h**2, 2.0)
                tensor = green.mixed_derivative(field, grid, y, system=system,
                                                rel_tol=rel_tol)
                tmag = np.sqrt((tensor**2).sum(axis=(1, 2)))
                records["mixed"][key] = analysis.fit_power_decay(
                    spec.radii, analysis.annulus_average(tmag, grid, spec),
                    window, "mixed").fitted_constant
        spreads = {name: max(vals.values()) / min(vals.values())
                   for name, vals in records.items()}
        checks.append(Check(
            name=f"uniform.{fam}",
            anchor="decay constants and ||grad G_R||_{d/(d-1),inf} "
                   "uniform in R and y",
            passed=all(sp < 1.25 for sp in spreads.values()),
            measured={"spreads": spreads, "records": records},
            expected={"max_spread": 1.25}))
    return checks


# ---------------------------------------------------------------------------
# dimension lifting
# ---------------------------------------------------------------------------

def _simpson(f, a, b, n):
    if n % 2:
        n += 1
    x = np.linspace(a, b, n + 1)
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return float((b - a) / (3.0 * n) * np.einsum("i,i->", w, f(x)))


def checks_lift(R=1.0, rel_tol=1e-10):
    checks = []
    kappa = 4.0 * R

    # arctan kernel identity, quadrature against the closed form
    quad = _simpson(lambda t: 1.0 / (1.0 + t**2), -100.0, 100.0, 1_000_000)
    closed = float(lift.arctan_kernel(1.0, 100.0))
    limit_err = float(np.pi - lift.arctan_kernel(1.0, 1e13))
    checks.append(Check(
        name="lift.arctan_kernel",
        anchor="int_{-k}^{k} dt/(r^2+t^2) = (2/r) atan(k/r) -> pi/r",
        passed=abs(quad - closed) <= 1e-12 and abs(limit_err) <= 1e-12,
        measured={"quadrature": quad, "closed_form": closed,
                  "limit_error_at_k_1e13": limit_err},
        expected={"quad_tol": 1e-12, "limit_tol": 1e-12}))

    for fam, tol in (("identity", 0.15), ("scalar_trig", 0.20)):
        field = fields.make_field(fam, 2)
        grid = mesh.build_grid(2, R, 33)
        slab = lift.build_slab(grid, kappa)
        rep = lift.compare_lift(field, grid, slab, grid.center_index, kappa,
                                rel_tol=rel_tol)
        checks.append(Check(
            name=f"lift.gradient_match.{fam}",
            anchor="grad_x G_kappa = grad_x G in the kappa -> inf limit",
            passed=(rep.rel_discrepancy_l2 <= tol and rep.positive
                    and rep.monotone_in_kappa),
            measured={"rel_l2": rep.rel_discrepancy_l2,
                      "rel_max": rep.rel_discrepancy_max,
                      "positive": rep.positive,
                      "monotone_in_kappa": rep.monotone_in_kappa,
                      "slab_iterations": rep.slab_iterations,
                      "slab_residual": rep.slab_residual},
            expected={"rel_l2": tol, "positive": True,
                      "monotone_in_kappa": True},
            details=f"kappa = {kappa}, base n = 33"))

    field = fields.make_field("identity", 2)
    grid = mesh.build_grid(2, R, 65)
    slab = lift.build_slab(grid, kappa)
    rep = lift.compare_lift(field, grid, slab, grid.center_index, kappa,
                            rel_tol=rel_tol)
    checks.append(Check(
        name="lift.grad_exponent.identity",
        anchor="|grad_x G_kappa(x,y)| <= C pi / |x-y|",
        passed=(_within(rep.decay.fitted_exponent, -1.0, 0.2)
                and rep.kappa_stability < 1.25),
        measured={"exponent": rep.decay.fitted_exponent,
                  "constant": rep.decay.fitted_constant,
                  "kappa_stability": rep.kappa_stability,
                  "slab_iterations": rep.slab_iterations,
                  "slab_residual": rep.slab_residual},
        expected={"exponent": -1.0, "tol": 0.2, "stability": 1.25},
        details="base n = 65 (window needs 4h < R/4)"))
    return checks


# ---------------------------------------------------------------------------
# oracle equivalence: iterative Green matrices against dense inverses
# ---------------------------------------------------------------------------

def checks_oracle(families=fields.FAMILIES, rel_tol=1e-10):
    checks = []
    for d, n in ((2, 17), (3, 9)):
        for fam in families:
            field = fields.make_field(fam, d)
            grid = mesh.build_grid(d, 1.0, n)
            system = mesh.assemble(field, grid)
            inverse = np.linalg.inv(system.to_dense())
            worst = 0.0
            for i in range(system.n_rows):
                e = np.zeros(system.n_rows)
                e[i] = 1.0
                u, _ = sparse.solve(system, e, rel_tol=rel_tol)
                worst = max(worst, float(np.abs(u - inverse[:, i]).max()))
            checks.append(Check(
                name=f"oracle.{fam}.d{d}",
                anchor="iterative Green columns match the dense inverse",
                passed=worst <= 1e-8,
                measured={"max_abs_err": worst},
                expected={"bound": 1e-8},
                details=f"n = {n}, all {system.n_rows} columns"))
    return checks


# ---------------------------------------------------------------------------
# preset registry
# ---------------------------------------------------------------------------

# "all" runs these in this order
PRESETS = {
    "decay3d": checks_decay3d,
    "log2d": checks_log2d,
    "monotone": checks_monotone,
    "adjoint": checks_adjoint,
    "lorentz": checks_lorentz,
    "uniform": checks_uniform,
    "lift": checks_lift,
    "oracle": checks_oracle,
}


def run_preset(spec, **overrides):
    """Run the comma-separated presets in ``spec`` and return their checks.
    Each override reaches the runners that have a parameter of its name; an
    unknown name, or an override that reaches none of them, raises before
    anything runs."""
    names = []
    for part in spec.split(","):
        part = part.strip()
        if part == "all":
            names.extend(PRESETS)
        elif part in PRESETS:
            names.append(part)
        else:
            raise ConfigError(f"unknown preset {part!r}")
    params = {nm: inspect.signature(PRESETS[nm]).parameters for nm in names}
    unread = sorted(set(overrides).difference(*params.values()))
    if unread:
        raise ConfigError(f"{', '.join(unread)} reaches no preset of {spec!r}")
    return [c for nm in names for c in PRESETS[nm](**{
        key: value for key, value in overrides.items() if key in params[nm]})]
