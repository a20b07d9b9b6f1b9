import numpy as np
import pytest

from greenbox import ConfigError, assemble, build_grid, make_field
from greenbox.lift import (arctan_kernel, assemble_lifted, build_slab,
                           compare_lift, integrate_t, lifted_column)


def test_slab_validation():
    base = build_grid(2, 1.0, 9)
    with pytest.raises(ConfigError):
        build_slab(base, 1.3)  # not a layer multiple
    with pytest.raises(ConfigError):
        build_slab(build_grid(3, 1.0, 9), 1.0)
    slab = build_slab(base, 2.0)
    assert slab.n_layers == 17
    assert slab.t_axis[(slab.n_layers - 1) // 2] == 0.0
    assert np.array_equal(slab.t_axis, -slab.t_axis[::-1])


def test_lifted_identity_matches_3d_assembler_bitwise():
    base = build_grid(2, 1.0, 9)
    slab = build_slab(base, 1.0)  # a cube
    K_lift = assemble_lifted(make_field("identity", 2), slab)
    K_3d = assemble(make_field("identity", 3), build_grid(3, 1.0, 9))
    assert K_lift.shape == K_3d.shape
    assert np.array_equal(K_lift.data, K_3d.data)


def test_lifted_symmetry_flags_and_transpose():
    base = build_grid(2, 1.0, 9)
    slab = build_slab(base, 1.0)
    assert assemble_lifted(make_field("scalar_trig", 2), slab).symmetric
    f = make_field("nonsym_skew", 2)
    K = assemble_lifted(f, slab)
    assert not K.symmetric
    from greenbox import transpose_field
    Kt = assemble_lifted(transpose_field(f), slab)
    scale = np.abs(K.to_dense()).max()
    assert np.abs(Kt.to_dense() - K.to_dense().T).max() <= 1e-15 * scale


def test_kappa_positivity_and_monotonicity():
    f = make_field("scalar_trig", 2)
    base = build_grid(2, 1.0, 17)
    slab = build_slab(base, 2.0)
    vals, info = lifted_column(f, slab, base.center_index)
    assert 0 < info.iterations <= 20 and info.residual <= 1e-9
    g1 = integrate_t(slab, vals, 1.0)
    g2 = integrate_t(slab, vals, 2.0)
    assert g1.min() >= -1e-12 * g1.max()
    assert np.all(g2 - g1 >= -1e-12 * g2.max())


def test_integrate_t_trapezoid_weights():
    base = build_grid(2, 1.0, 9)
    slab = build_slab(base, 1.0)
    vals = np.zeros(slab.shape)
    vals[:, :, :] = slab.t_axis[None, None, :] ** 2  # even polynomial in t
    out = integrate_t(slab, vals, 1.0)
    # trapezoid of t^2 over [-1, 1] at spacing h: 2/3 + h^2/3 exactly
    exact = 2.0 / 3.0 + slab.h**2 / 3.0
    np.testing.assert_allclose(out, exact, rtol=1e-13)


def test_kappa_validation():
    slab = build_slab(build_grid(2, 1.0, 9), 1.0)
    vals = np.ones(slab.shape)
    with pytest.raises(ConfigError):
        integrate_t(slab, vals, 2.0)  # beyond the slab
    with pytest.raises(ConfigError):
        integrate_t(slab, vals, 0.3 * slab.h)


def test_arctan_kernel_identity():
    # quadrature-free closed form and its kappa -> inf limit
    assert arctan_kernel(1.0, 100.0) == pytest.approx(2.0 * np.arctan(100.0))
    assert abs(arctan_kernel(1.0, 100.0) - 3.12159) <= 1e-5
    assert abs(np.pi - arctan_kernel(1.0, 1e13)) <= 1e-12
    r = 0.35
    assert arctan_kernel(r, 1e14) == pytest.approx(np.pi / r, abs=1e-12)


def test_compare_lift_small():
    f = make_field("identity", 2)
    grid = build_grid(2, 1.0, 33)
    slab = build_slab(grid, 4.0)
    rep = compare_lift(f, grid, slab, grid.center_index, 4.0)
    assert rep.positive and rep.monotone_in_kappa
    assert rep.rel_discrepancy_l2 <= 0.15
    assert rep.decay is None  # 4h = R/4 leaves no room for shells
    assert 0 < rep.slab_iterations <= 20 and rep.slab_residual <= 1e-9


def test_compare_lift_requires_large_kappa():
    f = make_field("identity", 2)
    grid = build_grid(2, 1.0, 33)
    slab = build_slab(grid, 2.0)
    with pytest.raises(ConfigError):
        compare_lift(f, grid, slab, grid.center_index, 2.0)
