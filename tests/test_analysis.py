from dataclasses import fields

import numpy as np
import pytest

from greenbox import ConfigError, build_grid, green_column, make_field
from greenbox.analysis import (AnnulusSpec, annulus_average,
                               embedding_constant,
                               embedding_constant_inverted_prefactor,
                               fit_log_growth, fit_offset_decay,
                               fit_power_decay, fit_two_box_decay,
                               fit_window, interior_ratio, lebesgue_norm,
                               lorentz_sandwich_check, make_annuli,
                               weak_lorentz_norm)
from greenbox.mesh import gradient_field


def test_annulus_average_constant():
    g = build_grid(2, 2.0, 65)
    spec = make_annuli(g, (0.0, 0.0), (0.25, 1.0), count=5)
    vals = np.full(g.n_nodes, -2.5)
    np.testing.assert_allclose(annulus_average(vals, g, spec), 2.5)


def test_annulus_average_log_profile():
    g = build_grid(2, 2.0, 129)
    r = g.distances_from(g.center_index)
    vals = np.where(r > 0, -np.log(np.maximum(r, 1e-300)) / (2 * np.pi), 0.0)
    spec = make_annuli(g, (0.0, 0.0), (0.1, 0.5), count=6)
    f = annulus_average(vals, g, spec)
    ref = np.abs(np.log(np.array(spec.radii))) / (2 * np.pi)
    assert np.abs(f / ref - 1.0).max() <= 0.03


def test_annulus_average_radial_inverse_3d():
    g = build_grid(3, 1.0, 33)
    r = g.distances_from(g.center_index)
    vals = np.where(r > 0, 1.0 / np.maximum(r, 1e-300), 0.0)
    spec = make_annuli(g, (0.0, 0.0, 0.0), (0.2, 0.8), count=5)
    f = annulus_average(vals, g, spec)
    assert np.abs(f * np.array(spec.radii) - 1.0).max() <= 0.03


def test_annulus_spec_validation():
    with pytest.raises(ConfigError):
        AnnulusSpec(center=(0.0, 0.0), rel_thickness=0.7, radii=(0.1, 0.2))
    with pytest.raises(ConfigError):
        AnnulusSpec(center=(0.0, 0.0), rel_thickness=0.1, radii=(0.2, 0.1))
    g = build_grid(2, 1.0, 9)
    with pytest.raises(ConfigError):
        # shells far thinner than the spacing cannot hold 8 nodes
        make_annuli(g, (0.0, 0.0), (0.01, 0.02), count=5, eta=0.05)


def test_weak_norm_constant_unit_measure():
    vals = np.full(50, 3.0)
    assert weak_lorentz_norm(vals, 1.0 / 50, p=2.0) == pytest.approx(3.0)


def test_weak_norm_single_entry():
    vals = np.zeros(64)
    vals[17] = -5.0
    cell = 0.125
    assert weak_lorentz_norm(vals, cell, p=3.0) == pytest.approx(
        5.0 * cell ** (1 / 3))


def test_weak_norm_matches_brute_force_sup():
    # independent oracle: scan the level parameter t on a fine grid; the
    # order-statistic formula must dominate and match at the jumps
    rng = np.random.default_rng(7)
    for _ in range(25):
        vals = rng.lognormal(sigma=1.5, size=rng.integers(5, 60))
        cell = float(rng.uniform(0.01, 2.0))
        p = float(rng.uniform(1.0, 4.0))
        norm = weak_lorentz_norm(vals, cell, p)
        ts = np.linspace(0, np.abs(vals).max(), 2000)[1:]
        counts = (np.abs(vals)[None, :] >= ts[:, None]).sum(axis=1)
        brute = (ts * (counts * cell) ** (1 / p)).max()
        assert brute <= norm * (1 + 1e-12)
        assert norm <= brute * 1.01


def test_weak_norm_disk_inverse_radius():
    g = build_grid(2, 1.0, 257)
    r = np.linalg.norm(g.node_coords, axis=1)
    mask = (r <= 1.0) & (r >= 4 * g.h)
    norm = weak_lorentz_norm(1.0 / r[mask], g.h**2, p=2.0)
    assert abs(norm / np.sqrt(np.pi) - 1.0) <= 0.02


def test_embedding_constant_derivation_brute_force():
    # layer-cake optimum: C = (beta/p)^{1/(p-beta)} mu^{-beta/(p(p-beta))};
    # check validity on random fields and that the inverted prefactor fails
    rng = np.random.default_rng(11)
    inverted_violations = 0
    for _ in range(500):
        size = 100
        kind = rng.integers(0, 3)
        if kind == 0:
            vals = rng.normal(size=size)
        elif kind == 1:
            vals = rng.lognormal(sigma=2.0, size=size)
        else:
            vals = np.zeros(size)
            vals[rng.choice(size, 10, replace=False)] = rng.normal(10) * 50
        cell = float(rng.uniform(0.001, 10.0))
        p = float(rng.uniform(1.6, 4.0))
        beta = float(rng.uniform(0.1, p - 1.0 - 0.05))
        rep = lorentz_sandwich_check(vals, cell, p, beta)
        assert rep.lower_ok and rep.upper_ok
        inverted_violations += not rep.inverted_lower_ok
    # constant fields certify the failure of the inverted prefactor
    rep = lorentz_sandwich_check(np.ones(100), 0.01, 2.0, 1.0)
    assert not rep.inverted_lower_ok
    assert rep.c_inverted == pytest.approx(2.0)
    assert rep.c_corrected == pytest.approx(0.5)
    assert inverted_violations >= 1


def test_embedding_constant_values():
    assert embedding_constant(2.0, 1.0, 1.0) == pytest.approx(0.5)
    assert embedding_constant_inverted_prefactor(2.0, 1.0, 1.0) == pytest.approx(2.0)
    # measure dependence: mu^(-beta/(p(p-beta)))
    assert embedding_constant(2.0, 0.5, 16.0) == pytest.approx(
        (0.25) ** (1 / 1.5) * 16.0 ** (-0.5 / 3.0))


def test_sandwich_parameter_validation():
    with pytest.raises(ConfigError):
        lorentz_sandwich_check(np.ones(4), 1.0, p=2.0, beta=1.5)
    with pytest.raises(ConfigError):
        weak_lorentz_norm(np.ones(4), 1.0, p=0.5)


def test_fit_power_exact_law():
    radii = np.geomspace(0.1, 1.0, 9)
    rep = fit_power_decay(radii, radii**-1.0, (0.1, 1.0))
    assert abs(rep.fitted_exponent + 1.0) <= 1e-10
    assert rep.fitted_constant == pytest.approx(1.0, abs=1e-10)
    assert rep.rms_log_residual <= 1e-12
    rep2 = fit_power_decay(radii, 3.7 * radii**-2.5, (0.1, 1.0), "mixed")
    assert abs(rep2.fitted_exponent + 2.5) <= 1e-10
    assert rep2.fitted_constant == pytest.approx(3.7, rel=1e-10)


def test_fit_two_box_decay_eliminates_box_offset():
    # shell means C r^p - c0/R on the box [-R, R]^3 and on the nested
    # [-R/2, R/2]^3, whose offset is twice as large
    R, c0, C = 2.0, 0.0695, 1.0 / (4.0 * np.pi)
    radii = np.geomspace(0.25, 0.5, 9)
    window = (0.25, 0.5)
    for p in (-1.0, -2.0):
        f_R = C * radii**p - c0 / R
        f_half = C * radii**p - c0 / (R / 2.0)
        rep = fit_two_box_decay(radii, f_R, f_half, window)
        assert abs(rep.fitted_exponent - p) <= 1e-10
        assert rep.fitted_constant == pytest.approx(C, rel=1e-10)
        assert rep.rms_log_residual <= 1e-12
        # the offset is what biases the one-box fit
        raw = fit_power_decay(radii, f_R, window)
        assert abs(raw.fitted_exponent - p) > 0.1


def test_fit_offset_decay_recovers_amplitude_and_offset():
    # shell means C / r - c on a Dirichlet box, over decay3d's window
    C, c = 1.0 / (4.0 * np.pi), 0.0348
    radii = np.geomspace(0.25, 0.5, 9)
    fit = fit_offset_decay(radii, C / radii - c, (0.25, 0.5))
    assert abs(fit.amplitude - C) <= 1e-12
    assert abs(fit.offset - c) <= 1e-12
    assert fit.rel_rms <= 1e-14
    assert abs(fit.corrected.fitted_exponent + 1.0) <= 1e-12
    assert fit.corrected.fitted_constant == pytest.approx(C, rel=1e-12)


def test_fit_power_errors():
    radii = np.geomspace(0.1, 1.0, 9)
    with pytest.raises(ConfigError):
        fit_power_decay(radii, radii**-1.0, (0.5, 0.6))  # < 5 radii inside
    vals = radii**-1.0
    vals[3] = 0.0
    with pytest.raises(ConfigError):
        fit_power_decay(radii, vals, (0.1, 1.0))


def test_fit_log_growth_synthetic():
    radii = np.geomspace(0.05, 0.9, 11)
    stats = 1.0 + np.abs(np.log(radii))
    rep = fit_log_growth(radii, stats, (0.05, 0.9))
    assert rep.slope == pytest.approx(1.0, abs=1e-12)
    assert rep.rms_residual <= 1e-12


def test_fit_window_log_cap():
    g = build_grid(2, 4.0, 129)
    assert fit_window(g) == (4 * g.h, 1.0)
    assert fit_window(g, "log") == (4 * g.h, 0.5)
    g_small = build_grid(2, 1.0, 65)
    assert fit_window(g_small, "log") == (4 * g_small.h, 0.25)


def _column_and_gmag():
    f = make_field("identity", 2)
    g = build_grid(2, 1.0, 65)
    col = green_column(f, g, g.center_index)
    return col, np.linalg.norm(gradient_field(col.values, g), axis=1)


def test_ratio_scale_invariance():
    col, gmag = _column_and_gmag()
    g = col.grid
    x = g.node_at((12 * g.h, 0.0))
    base = interior_ratio(col, gmag, x, 8 * g.h)
    col.values = col.values * 10.0
    scaled = interior_ratio(col, gmag * 10.0, x, 8 * g.h)
    assert scaled == pytest.approx(base, rel=1e-12)


def test_ratio_preconditions():
    col, gmag = _column_and_gmag()
    g = col.grid
    x = g.node_at((12 * g.h, 0.0))
    with pytest.raises(ConfigError, match="below 8h"):
        interior_ratio(col, gmag, x, 4 * g.h)
    with pytest.raises(ConfigError, match="holds the source"):
        interior_ratio(col, gmag, x, 12 * g.h)
    edge = g.node_at((g.half_width - g.h, 0.0))
    with pytest.raises(ConfigError, match="leaves the domain"):
        interior_ratio(col, gmag, edge, 8 * g.h)


def test_lebesgue_norm():
    vals = np.array([1.0, -2.0, 2.0])
    assert lebesgue_norm(vals, 0.5, 2.0) == pytest.approx(np.sqrt(4.5))


def test_column3d_pass_never_builds_node_coords():
    # the measurements of a 3D column broadcast per-axis distances and the
    # source and padding work on the interior block: no per-node array is
    # cached on the grid
    g = build_grid(3, 1.0, 41)
    col = green_column(make_field("scalar_trig", 3), g, g.center_index + 1)
    window = fit_window(g)
    spec = make_annuli(g, col.source_coords, window)
    fit_power_decay(spec.radii, annulus_average(col.values, g, spec), window)
    gmag = np.linalg.norm(gradient_field(col.values, g), axis=1)
    annulus_average(gmag, g, spec)
    col.radii()
    interior_ratio(col, gmag, g.node_at((0.55, 0.0, 0.0)), 8 * g.h)
    assert "node_coords" not in g.__dict__
    # nor any other per-node table: besides the dataclass fields, only the
    # per-axis coordinates are cached
    assert set(g.__dict__) - {f.name for f in fields(g)} <= {"axis"}
