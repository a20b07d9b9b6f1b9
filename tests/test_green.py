import itertools

import numpy as np
import pytest

from greenbox import (ConfigError, SourcePlacementError, adjoint_column,
                      assemble, build_grid, domain_growth, gradient_field,
                      green_column, make_field, mixed_derivative, normalize_2d,
                      sparse)
from greenbox.verify import checks_decay3d

FAMILIES = ("identity", "scalar_trig", "diag_aniso", "nonsym_skew")


def box_image_sum(points, R, K=10):
    """Dirichlet Green function of -Laplace on [-R, R]^3 with source 0.

    Exact by the reflection principle: charges at 2R k with alternating
    signs, accumulated over charge-neutral 2x2x2 blocks so the lattice sum
    converges absolutely.
    """
    pts = np.atleast_2d(points)
    total = np.zeros(len(pts))
    for block in itertools.product(range(-K, K, 2), repeat=3):
        for corner in itertools.product((0, 1), repeat=3):
            k = np.array(block) + np.array(corner)
            sign = -1.0 if (k.sum() % 2) else 1.0
            dist = np.linalg.norm(pts - 2.0 * R * k, axis=1)
            total += sign / (4.0 * np.pi * dist)
    return total


@pytest.mark.parametrize("dim,n", [(2, 33), (3, 17)])
@pytest.mark.parametrize("family", FAMILIES)
def test_positivity_and_source_dominance(dim, n, family):
    f = make_field(family, dim)
    g = build_grid(dim, 1.0, n)
    col = green_column(f, g, g.center_index)
    assert col.values.min() >= -1e-12 * col.values.max()
    assert int(np.argmax(col.values)) == col.source


def test_boundary_zeros():
    g = build_grid(2, 1.0, 17)
    col = green_column(make_field("scalar_trig", 2), g, g.center_index)
    v = col.values.reshape(g.shape)
    for k in range(g.dim):
        assert np.all(np.take(v, [0, -1], axis=k) == 0.0)


def test_d3_laplacian_matches_box_image_oracle():
    f = make_field("identity", 3)
    g = build_grid(3, 1.0, 33)
    col = green_column(f, g, g.center_index)
    r = col.radii()
    for rr in (3 * g.h, 4 * g.h):
        shell = (r >= rr * 0.9) & (r <= rr * 1.1)
        measured = np.abs(col.values[shell]).mean()
        exact = box_image_sum(g.node_coords[shell], 1.0).mean()
        assert abs(measured / exact - 1.0) <= 0.02
    # against free space 1/(4 pi r) the same shells carry the O(1/R)
    # boundary offset (about -0.070 here), i.e. a 10-25% deficit
    rr = 4 * g.h
    shell = (r >= rr * 0.9) & (r <= rr * 1.1)
    measured = np.abs(col.values[shell]).mean()
    free = (1.0 / (4.0 * np.pi * r[shell])).mean()
    assert 0.10 <= 1.0 - measured / free <= 0.25


def test_d2_log_differences_cancel_constant():
    # G(x1, y) - G(x2, y) ~ (1/2pi) log(r2/r1), additive constants cancel
    f = make_field("identity", 2)
    g = build_grid(2, 1.0, 65)
    col = green_column(f, g, g.center_index)
    h = g.h
    v1 = col.values[g.node_at((4 * h, 0.0))]
    v2 = col.values[g.node_at((8 * h, 0.0))]
    target = np.log(2.0) / (2.0 * np.pi)
    assert abs((v1 - v2) / target - 1.0) <= 0.05


def test_normalize_constant_column():
    g = build_grid(2, 2.0, 17)
    col = green_column(make_field("identity", 2), g, g.center_index)
    col.values = np.full(g.n_nodes, 3.25)
    out = normalize_2d(col)
    inside = out.radii() <= 1.0
    assert np.abs(out.values[inside]).max() <= 1e-13
    assert out.offset == pytest.approx(3.25)


def test_normalize_idempotent_and_zero_mean():
    g = build_grid(2, 2.0, 33)
    col = green_column(make_field("scalar_trig", 2), g, g.center_index)
    once = normalize_2d(col)
    inside = once.radii() <= 1.0
    mean = once.values[inside].mean()
    assert abs(mean) <= 1e-13 * np.abs(once.values).max()
    twice = normalize_2d(once)
    assert abs(twice.offset - once.offset) <= 1e-13 * abs(once.offset)


def test_normalize_requires_unit_ball_inside():
    g = build_grid(2, 1.0, 17)
    col = green_column(make_field("identity", 2), g, g.node_at((0.25, 0.0)))
    with pytest.raises(ConfigError):
        normalize_2d(col)
    with pytest.raises(ConfigError):
        normalize_2d(green_column(make_field("identity", 3),
                                  build_grid(3, 2.0, 9), 364))


def test_normalized_log_profile_constant_reproducible_across_n():
    f = make_field("identity", 2)
    c0 = []
    for n in (65, 129):
        g = build_grid(2, 4.0, n)
        col = normalize_2d(green_column(f, g, g.center_index))
        r = col.radii()
        keep = (r >= 4 * g.h) & (r <= 1.0)
        c0.append(np.mean(col.values[keep] + np.log(r[keep]) / (2 * np.pi)))
    assert abs(c0[1] / c0[0] - 1.0) <= 0.02
    # and the constant itself is the B_1 normalization value -1/(4 pi) up to
    # a few percent of box corrections
    assert abs(c0[1] / (-1.0 / (4.0 * np.pi)) - 1.0) <= 0.05


def test_domain_growth_monotone_small():
    rep = domain_growth(make_field("identity", 2), (0.0, 0.0), (1.0, 2.0),
                        h=1.0 / 8.0)
    scale = max(float(c.values.max()) for c in rep.columns)
    assert rep.worst_violation <= 1e-10 * scale
    drift = np.log(2.0) / (2.0 * np.pi)
    assert abs(rep.drifts[0] / drift - 1.0) <= 0.10


def test_domain_growth_single_R_trivial():
    rep = domain_growth(make_field("diag_aniso", 2), (0.0, 0.0), (1.0,),
                        h=1.0 / 8.0)
    assert rep.worst_violation == 0.0
    assert rep.drifts == []


def test_domain_growth_source_on_smallest_box_face():
    # (1, 0) is interior to the R = 2 box but on the face of the R = 1 box
    with pytest.raises(SourcePlacementError):
        domain_growth(make_field("identity", 2), (1.0, 0.0), (1.0, 2.0),
                      h=1.0 / 8.0)


def test_domain_growth_rejects_non_nested():
    with pytest.raises(ConfigError):
        # 2R/h = 36.8 is not an integer step count
        domain_growth(make_field("identity", 2), (0.0, 0.0), (1.0, 2.3),
                      h=1.0 / 8.0)
    with pytest.raises(ConfigError):
        # 2R/h = 9 steps would need an even count for an odd node number
        domain_growth(make_field("identity", 2), (0.0, 0.0), (0.5625,),
                      h=1.0 / 8.0)
    with pytest.raises(ConfigError):
        domain_growth(make_field("identity", 2), (0.0, 0.0), (2.0, 1.0),
                      h=1.0 / 8.0)


def test_decay3d_rejects_half_box_off_grid():
    # n = 67 puts 33 steps across the half box, which then has no center
    # node; the check must refuse before it solves anything
    with pytest.raises(ConfigError):
        checks_decay3d(n=67)


def test_adjoint_column_symmetric_field_unchanged():
    g = build_grid(2, 1.0, 17)
    f = make_field("scalar_trig", 2)
    a = adjoint_column(f, g, g.center_index)
    b = green_column(f, g, g.center_index)
    assert np.abs(a.values - b.values).max() <= 1e-9 * b.values.max()


def test_adjoint_identity_iterative():
    g = build_grid(2, 1.0, 17)
    f = make_field("nonsym_skew", 2)
    y = g.center_index
    x = g.node_at((0.25, -0.25))
    col = green_column(f, g, y)
    adj = adjoint_column(f, g, x)
    assert abs(col.values[x] - adj.values[y]) <= 1e-8 * col.values.max()


def test_mixed_derivative_constant_shift_invariance():
    # adding a constant to each source column leaves the tensor unchanged:
    # rebuild the central-difference pipeline by hand with a shift
    f = make_field("identity", 2)
    g = build_grid(2, 1.0, 17)
    K = assemble(f, g)
    y = g.center_index
    tensor = mixed_derivative(f, g, y, system=K)
    multi = np.array(g.multi(y))
    manual = np.zeros_like(tensor)
    for j in range(2):
        plus, minus = multi.copy(), multi.copy()
        plus[j] += 1
        minus[j] -= 1
        cp = green_column(f, g, g.index(plus), system=K).values + 7.5
        cm = green_column(f, g, g.index(minus), system=K).values + 7.5
        manual[:, :, j] = gradient_field((cp - cm) / (2 * g.h), g)
    np.testing.assert_allclose(manual, tensor, atol=1e-9)


def test_mixed_derivative_kernel_symmetry():
    # symmetric A: the mixed tensor at (x, y) is the transpose of (y, x)
    f = make_field("identity", 2)
    g = build_grid(2, 1.0, 17)
    y = g.center_index
    x = g.node_at((0.5, 0.0))
    t_y = mixed_derivative(f, g, y)
    t_x = mixed_derivative(f, g, x)
    a, b = t_y[x], t_x[y].T
    assert np.abs(a - b).max() <= 0.1 * np.abs(a).max()


def test_mixed_derivative_boundary_neighbor_rejected(monkeypatch):
    f = make_field("identity", 2)
    g = build_grid(2, 1.0, 9)
    edge = g.node_at((g.half_width - g.h, 0.0))
    solve, solves = sparse.solve, []
    monkeypatch.setattr(sparse, "solve", lambda *args, **kw: (
        solves.append(args) or solve(*args, **kw)))
    # a source next to the face, and one on it, are rejected before a solve
    for y in (edge, g.index((1, 4)), g.index((0, 4))):
        with pytest.raises(SourcePlacementError):
            mixed_derivative(f, g, y)
    assert solves == []


def test_green_column_boundary_source_rejected():
    g = build_grid(2, 1.0, 9)
    with pytest.raises(SourcePlacementError):
        green_column(make_field("identity", 2), g, 0)
