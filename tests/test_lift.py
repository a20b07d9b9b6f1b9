import numpy as np
import pytest

from greenbox import (ConfigError, ConvergenceError, assemble, build_grid,
                      make_field, sparse)
from greenbox.lift import (arctan_kernel, assemble_lifted, build_slab,
                           compare_lift, integrate_t, lifted_column, mass_2d,
                           sine_modes)
from oracles import dense_solve, validate

FAMILIES = ("identity", "scalar_trig", "nonsym_skew")


def _tridiagonal(size, lower_upper, centre):
    return (centre * np.eye(size)
            + lower_upper * (np.eye(size, k=1) + np.eye(size, k=-1)))


def _t_factors(slab):
    """Dense K_t = (1/h)[-1, 2, -1] and M_t = h[1/6, 2/3, 1/6] on m layers."""
    m, h = slab.n_layers - 2, slab.h
    return (_tridiagonal(m, -1.0, 2.0) / h,
            h * _tridiagonal(m, 1.0 / 6.0, 2.0 / 3.0))


def _slab_delta(slab, y):
    """The slab load: a unit vector at base node y on the layer t = 0."""
    base = slab.base
    rhs = np.zeros((base.n - 2, base.n - 2, slab.n_layers - 2))
    i1, i2 = base.multi(y)
    rhs[i1 - 1, i2 - 1, (slab.n_layers - 3) // 2] = 1.0
    return rhs.ravel()


def test_slab_validation():
    base = build_grid(2, 1.0, 9)
    with pytest.raises(ConfigError):
        build_slab(base, 1.3)  # not a layer multiple
    with pytest.raises(ConfigError):
        build_slab(build_grid(3, 1.0, 9), 1.0)
    slab = build_slab(base, 2.0)
    assert slab.n_layers == 17
    assert slab.axes[2][(slab.n_layers - 1) // 2] == 0.0
    assert np.array_equal(slab.axes[2], -slab.axes[2][::-1])


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
    vals[:, :, :] = slab.axes[2][None, None, :] ** 2  # even polynomial in t
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


def test_integrate_t_rejects_a_non_finite_kappa():
    slab = build_slab(build_grid(2, 1.0, 9), 1.0)
    vals = np.ones(slab.shape)
    for kappa in (np.nan, np.inf, -np.inf):
        with pytest.raises(ConfigError, match="finite"):
            integrate_t(slab, vals, kappa)


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


def test_mass_2d_is_the_tensor_product_mass():
    base = build_grid(2, 1.0, 9)
    m1 = base.h * _tridiagonal(base.n - 2, 1.0 / 6.0, 2.0 / 3.0)
    mass = mass_2d(base)
    assert validate(mass) and mass.symmetric
    assert np.abs(mass.to_dense() - np.kron(m1, m1)).max() <= 1e-16


def test_sine_modes_diagonalize_the_t_factors():
    slab = build_slab(build_grid(2, 1.0, 9), 2.0)
    k_t, m_t = _t_factors(slab)
    phi, lam, mu = sine_modes(slab)
    assert phi.shape == ((slab.n_layers - 1) // 2, slab.n_layers - 2)
    np.testing.assert_allclose(phi @ phi.T, np.eye(len(phi)), atol=1e-14)
    np.testing.assert_allclose(phi @ k_t, lam[:, None] * phi, atol=1e-13)
    np.testing.assert_allclose(phi @ m_t, mu[:, None] * phi, atol=1e-15)


@pytest.mark.parametrize("n", [7, 9])
@pytest.mark.parametrize("family", FAMILIES)
def test_slab_matrix_separates(family, n):
    # K_slab = K_x (x) M_t + M_x (x) K_t, against the assembled 3D slab
    base = build_grid(2, 1.0, n)
    slab = build_slab(base, 1.0)
    f = make_field(family, 2)
    k_x = assemble(f, base).to_dense()
    m1 = base.h * _tridiagonal(n - 2, 1.0 / 6.0, 2.0 / 3.0)
    k_t, m_t = _t_factors(slab)
    separated = np.kron(k_x, m_t) + np.kron(np.kron(m1, m1), k_t)
    dense = assemble_lifted(f, slab).to_dense()
    assert np.abs(dense - separated).max() <= 1e-14 * np.abs(dense).max()


@pytest.mark.parametrize("family", ["scalar_trig", "nonsym_skew"])
@pytest.mark.parametrize("n", [7, 9])
def test_lifted_column_matches_dense_slab_solve(n, family):
    # base 7 has an odd q = 3 modes, base 9 an even q = 4
    base = build_grid(2, 1.0, n)
    slab = build_slab(base, 1.0)
    f = make_field(family, 2)
    vals, info = lifted_column(f, slab, base.center_index)
    ref = dense_solve(assemble_lifted(f, slab),
                      _slab_delta(slab, base.center_index))
    got = vals[1:-1, 1:-1, 1:-1].ravel()
    assert np.abs(got - ref).max() <= 1e-9 * np.abs(ref).max()
    assert np.all(vals[[0, -1]] == 0.0) and np.all(vals[:, [0, -1]] == 0.0)
    assert np.all(vals[:, :, [0, -1]] == 0.0)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("n, width, node", [(17, 2.0, (6, 9)),
                                            (11, 5.0, (4, 6))])
def test_block_residual_is_the_slab_residual(n, width, node, family):
    # base 11, width 5 has q = 25 odd modes; the coarsest level (25, 4, 4)
    # couples, so the cap is 180, yet it converges in under 120 iterations
    base = build_grid(2, 1.0, n)
    slab = build_slab(base, width)
    f = make_field(family, 2)
    y = base.index(node)
    vals, info = lifted_column(f, slab, y)
    u = vals[1:-1, 1:-1, 1:-1].ravel()
    r = _slab_delta(slab, y) - sparse.matvec(assemble_lifted(f, slab), u)
    assert 0.0 < info.residual <= 1e-10 and info.iterations < 120
    assert abs(info.residual - np.linalg.norm(r)) <= 1e-15


def test_odd_mode_count_keeps_the_mode_axis_on_every_level(monkeypatch):
    # base 17, kappa = 4.125: q = 33 odd modes.  Coarsening the mode axis
    # would mix modes of unlike scale (19 iterations for identity, 24 for
    # scalar_trig); as a batch axis it keeps length q on every level
    base = build_grid(2, 1.0, 17)
    slab = build_slab(base, 4.125)
    q = len(sine_modes(slab)[0])
    assert q == 33
    solve, systems = sparse.solve, []

    def capture(system, rhs, **kwargs):
        systems.append(system)
        return solve(system, rhs, **kwargs)
    monkeypatch.setattr(sparse, "solve", capture)
    for family in ("identity", "scalar_trig"):
        _, info = lifted_column(make_field(family, 2), slab,
                                base.center_index)
        assert info.iterations <= 8 and info.residual <= 1e-10
    for blocks in systems:
        shapes = [lv.shape for lv in (blocks,) + blocks.hierarchy]
        assert shapes == [(q, 15, 15), (q, 7, 7), (q, 3, 3), (q, 1, 1)]


def test_lift_iteration_cap_is_the_base_grids():
    # 32 uncoupled modes over a 7 x 7 base interior: the coarsest level is
    # 32 x 1 x 1 and couples along no axis, so the default cap is the base
    # grid's 120, not the 740 that its longest axis would give
    base = build_grid(2, 1.0, 9)
    slab = build_slab(base, 8.0)
    assert len(sine_modes(slab)[0]) == 32
    with pytest.raises(ConvergenceError) as err:
        lifted_column(make_field("identity", 2), slab, base.center_index,
                      rel_tol=1e-300)
    assert err.value.iterations == 120


def test_lifted_column_never_coarsens_the_block_system(monkeypatch):
    # the block system's levels are summed from the Galerkin chains of its
    # two 2D factors, K_x and M_x, level by level: _galerkin never sees a
    # (q, m, m) block, for 5 rows (symmetric) or 9 (nonsym_skew) alike
    base = build_grid(2, 1.0, 33)
    slab = build_slab(base, 1.0)
    galerkin, shapes = sparse._galerkin, []

    def count(system):
        shapes.append(system.shape)
        return galerkin(system)
    monkeypatch.setattr(sparse, "_galerkin", count)
    for family in ("scalar_trig", "nonsym_skew"):
        _, info = lifted_column(make_field(family, 2), slab,
                                base.center_index)
        assert info.residual <= 1e-10
    # per field: the 4 levels below 31 x 31 of K_x, then those of M_x
    assert shapes == [(m, m) for _ in "KM" for m in (31, 15, 7, 3)] * 2


@pytest.mark.parametrize("family", FAMILIES)
def test_block_levels_are_the_block_chain_rounded(monkeypatch, family):
    # each level summed from the factors' float64 chains agrees with the
    # Galerkin chain of the whole block system to float64 round-off, so its
    # float32 rounding is that chain's within one float32 unit; at base 17
    # with q = 33 some entries that cancel to round-off (identity,
    # nonsym_skew) round to other float32 values than the block chain's
    base = build_grid(2, 1.0, 17)
    solve, systems = sparse.solve, []

    def capture(system, rhs, **kwargs):
        systems.append(system)
        return solve(system, rhs, **kwargs)
    monkeypatch.setattr(sparse, "solve", capture)
    lifted_column(make_field(family, 2), build_slab(base, 4.125),
                  base.center_index)
    fine = systems[0]
    assert fine.shape == (33, 15, 15) and len(fine.hierarchy) == 3
    for stored in fine.hierarchy:
        fine = sparse._galerkin(fine)
        assert stored.data.dtype == np.float32
        assert stored.shape == fine.shape
        scale = np.abs(fine.data).max()
        np.testing.assert_allclose(stored.data, fine.data,
                                   rtol=np.finfo(np.float32).eps,
                                   atol=64 * np.finfo(float).eps * scale)
