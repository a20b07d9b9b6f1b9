import math

import numpy as np
import pytest

from greenbox import (ConfigError, SourcePlacementError, assemble, build_grid,
                      expand_interior, fields, gradient_field, load_delta,
                      make_field, mesh, sparse, transpose_field)
from greenbox.lift import assemble_lifted, build_slab, lifted_column
from greenbox.sparse import stencil_offsets
from oracles import validate

# reference Q1 stiffness of -Laplace on a unit square, corners in C order
# (0,0), (0,1), (1,0), (1,1): diagonal 2/3, edge-adjacent -1/6, opposite -1/3
_Q1_UNIT = np.array([
    [2 / 3, -1 / 6, -1 / 6, -1 / 3],
    [-1 / 6, 2 / 3, -1 / 3, -1 / 6],
    [-1 / 6, -1 / 3, 2 / 3, -1 / 6],
    [-1 / 3, -1 / 6, -1 / 6, 2 / 3],
])


def test_grid_counting_2d():
    g = build_grid(2, 1.0, 5)
    assert g.n_nodes == 25
    assert g.n_interior == 9
    assert g.h == pytest.approx(0.5)


def test_grid_counting_3d():
    g = build_grid(3, 2.0, 9)
    assert g.n_nodes == 729
    assert g.h == pytest.approx(0.5)


def test_grid_parity_rule():
    with pytest.raises(ConfigError):
        build_grid(2, 1.0, 4)
    with pytest.raises(ConfigError):
        build_grid(2, 1.0, 3)
    with pytest.raises(ConfigError):
        build_grid(2, -1.0, 5)


def test_grid_rejects_a_non_finite_half_width_and_a_non_integer_count():
    # R = nan passed R <= 0 and built a grid of NaN coordinates; n = 9.5
    # built n = 9
    for R in (math.nan, math.inf, -math.inf):
        with pytest.raises(ConfigError, match="finite"):
            build_grid(2, R, 9)
    for n in (9.5, 9.0):
        with pytest.raises(ConfigError, match="integer"):
            build_grid(2, 1.0, n)
    assert build_grid(2, 1.0, np.int64(9)).n == 9


def test_even_steps_rejects_non_finite_lengths():
    for half_width, h in ((math.nan, 0.25), (math.inf, 0.25), (1.0, math.nan)):
        with pytest.raises(ConfigError, match="finite"):
            mesh.even_steps(half_width, h)
    # a slab's layer count goes through even_steps
    base = build_grid(2, 1.0, 9)
    for width in (math.nan, math.inf):
        with pytest.raises(ConfigError, match="finite"):
            build_slab(base, width)


def test_origin_is_exact_node():
    for d, n in ((2, 9), (3, 7)):
        g = build_grid(d, 1.7, n)
        assert np.all(g.coords(g.center_index) == 0.0)


def test_index_coordinate_roundtrip():
    g = build_grid(2, 1.0, 7)
    for idx in range(g.n_nodes):
        assert g.node_at(g.coords(idx)) == idx


@pytest.mark.parametrize("point", [0.5, (0.5,), (0.5, 0.5, 0.5),
                                   [(0.5, 0.5)]])
def test_node_at_needs_one_coordinate_per_axis(point):
    # one coordinate per axis: a scalar would broadcast to (0.5, 0.5)
    g = build_grid(2, 1.0, 9)
    with pytest.raises(ConfigError, match="2 coordinates"):
        g.node_at(point)


@pytest.mark.parametrize("d,R,n", [(2, 1.0, 17), (2, 4.0, 129),
                                   (3, 2.0, 33), (3, 1.0, 9)])
def test_distances_are_bitwise_the_norm_of_node_coords(d, R, n):
    g = build_grid(d, R, n)
    h = g.h
    # box centre, next to a face, off-centre between nodes
    for c in (np.zeros(d), np.full(d, R - h), 0.3 * h + np.arange(d) * 0.17):
        ref = np.linalg.norm(g.node_coords - c, axis=1)
        assert g.distances(c).tobytes() == ref.tobytes()
    idx = g.center_index + 3
    assert np.array_equal(g.coords(idx), g.node_coords[idx])
    assert g.distances_from(idx).tobytes() == np.linalg.norm(
        g.node_coords - g.node_coords[idx], axis=1).tobytes()
    ids = np.arange(0, g.n_nodes, 7)
    assert np.array_equal(g.coords(ids), g.node_coords[ids])


def test_interior_boundary_classification():
    # every node: a source is rejected exactly when an axis index is 0 or
    # n - 1, and an interior source round-trips to its unit vector
    for d, n in ((2, 7), (3, 5)):
        g = build_grid(d, 1.0, n)
        rejected = 0
        for y in range(g.n_nodes):
            if any(i in (0, n - 1) for i in g.multi(y)):
                with pytest.raises(SourcePlacementError):
                    load_delta(g, y)
                rejected += 1
                continue
            full = expand_interior(g, load_delta(g, y))
            assert full.shape == (g.n_nodes,)
            assert full[y] == 1.0 and np.count_nonzero(full) == 1
        assert rejected == g.n_nodes - g.n_interior
        assert g.n_interior == (n - 2) ** d


def _laplace_stencil(n, R):
    """Assembled interior row of the center node as a dict offset -> value."""
    g = build_grid(2, R, n)
    f = make_field("identity", 2)
    K = assemble(f, g)
    ii = int(np.flatnonzero(load_delta(g, g.center_index))[0])
    m = n - 2
    shifts = stencil_offsets(2) @ np.array([m, 1])
    dense = K.to_dense()    # the rows before the centre are transposes
    row = {int(s): dense[ii, ii + s] for s in shifts}
    return row, m


@pytest.mark.parametrize("n,R", [(9, 1.0), (17, 3.0)])
def test_laplace_stencil_h_independent(n, R):
    # oracle: four unit-square element matrices summed around one node
    diag = 4 * _Q1_UNIT[0, 0]
    edge = 2 * _Q1_UNIT[0, 1]
    corner = _Q1_UNIT[0, 3]
    row, m = _laplace_stencil(n, R)
    assert row[0] == pytest.approx(diag, rel=1e-14)        # 8/3
    for off in (1, -1, m, -m):
        assert row[off] == pytest.approx(edge, rel=1e-14)  # -1/3
    for off in (m + 1, m - 1, -m + 1, -m - 1):
        assert row[off] == pytest.approx(corner, rel=1e-14)
    assert diag == pytest.approx(8 / 3)
    assert edge == pytest.approx(-1 / 3)
    assert corner == pytest.approx(-1 / 3)


def test_interior_row_sums_vanish():
    g = build_grid(2, 1.0, 9)
    K = assemble(make_field("identity", 2), g)
    m = g.n - 2
    sums = K.to_dense().sum(axis=1).reshape(m, m)
    # rows whose full 3x3 neighborhood is interior
    np.testing.assert_allclose(sums[1:-1, 1:-1], 0.0, atol=1e-13)


@pytest.mark.parametrize("dim,n", [(2, 9), (3, 5)])
def test_transpose_identity_all_families(dim, n):
    g = build_grid(dim, 1.0, n)
    for fam in ("identity", "scalar_trig", "diag_aniso", "nonsym_skew"):
        f = make_field(fam, dim)
        K = assemble(f, g).to_dense()
        Kt = assemble(transpose_field(f), g).to_dense()
        scale = np.abs(K).max()
        assert np.abs(Kt - K.T).max() <= 1e-15 * scale


@pytest.mark.parametrize("dim,n", [(2, 17), (3, 9)])
def test_nonsym_skew_assembles_nonsymmetric(dim, n):
    g = build_grid(dim, 1.0, n)
    f = make_field("nonsym_skew", dim)
    K = assemble(f, g).to_dense()
    Kt = assemble(transpose_field(f), g).to_dense()
    scale = np.abs(K).max()
    assert np.abs(K - K.T).max() > 0.01 * scale
    assert np.abs(Kt - K.T).max() <= 1e-15 * scale


def test_symmetric_field_symmetric_matrix():
    g = build_grid(2, 1.0, 9)
    K = assemble(make_field("scalar_trig", 2), g)
    dense = K.to_dense()
    assert K.symmetric
    assert np.abs(dense - dense.T).max() <= 1e-15 * np.abs(dense).max()


def test_stencil_locality():
    g = build_grid(2, 1.0, 9)
    K = assemble(make_field("diag_aniso", 2), g)
    dense = K.to_dense()
    m = g.n - 2
    for i in range(K.n_rows):
        for j in range(K.n_rows):
            mi = np.array(np.unravel_index(i, (m, m)))
            mj = np.array(np.unravel_index(j, (m, m)))
            if np.abs(mi - mj).max() > 1:
                assert dense[i, j] == 0.0


def test_dimension_mismatch():
    with pytest.raises(ConfigError):
        assemble(make_field("identity", 3), build_grid(2, 1.0, 5))


def test_load_delta():
    g = build_grid(2, 1.0, 5)
    rhs = load_delta(g, g.center_index)
    assert rhs.sum() == 1.0
    c = (g.n - 1) // 2
    assert rhs.reshape(g.n - 2, g.n - 2)[c - 1, c - 1] == 1.0
    other = load_delta(g, g.node_at((0.5, 0.5)))
    assert float(rhs @ other) == 0.0
    with pytest.raises(SourcePlacementError):
        load_delta(g, 0)  # a corner node


def test_gradient_linear_reproduction():
    for d in (2, 3):
        g = build_grid(d, 1.0, 9)
        vals = g.node_coords[:, 0]
        grad = gradient_field(vals, g)
        assert np.abs(grad[:, 0] - 1.0).max() <= 1e-13
        assert np.abs(grad[:, 1:]).max() <= 1e-13


def test_gradient_constant_is_zero():
    g = build_grid(2, 1.0, 9)
    assert np.abs(gradient_field(np.full(g.n_nodes, 3.7), g)).max() == 0.0


def test_gradient_bilinear_monomial():
    # u = x1 x2 is bilinear: cell-center gradients are exact and the node
    # average reproduces (x2, x1) at interior nodes
    g = build_grid(2, 1.0, 17)
    x = g.node_coords
    grad = gradient_field(x[:, 0] * x[:, 1], g)
    inner = grad.reshape(g.shape + (2,))[1:-1, 1:-1]
    xi = x.reshape(g.shape + (2,))[1:-1, 1:-1]
    np.testing.assert_allclose(inner[..., 0], xi[..., 1], atol=1e-12)
    np.testing.assert_allclose(inner[..., 1], xi[..., 0], atol=1e-12)
    # boundary nodes average one-sided cells: O(h) there
    assert np.abs(grad[:, 0] - x[:, 1]).max() <= g.h


def _fail(what):
    def refused(*args, **kwargs):
        pytest.fail(f"the oversized stencil reached {what}")
    return refused


def test_oversized_grid_and_slab_rejected_before_allocation(monkeypatch):
    # 1999^3 unknowns, period 1000: the period torus alone, 1000^3 nodes in
    # 14 rows, needs about 0.15 TiB for the stencil and its float32 copy
    base = build_grid(2, 1.0, 9)
    K_x = assemble(make_field("scalar_trig", 2), base)
    monkeypatch.setattr(fields, "evaluate", _fail("the coefficients"))
    with pytest.raises(ConfigError, match="stencil"):
        assemble(make_field("identity", 3), build_grid(3, 1.0, 2001))
    # the lift block system (4 modes of 7 x 7 nodes in 5 rows) one byte
    # short: refused before its rhs or any block row exists
    monkeypatch.setattr(sparse, "physical_memory", lambda: 12 * 5 * 4 * 49 - 1)
    monkeypatch.setattr(mesh, "load_delta", _fail("the rhs"))
    monkeypatch.setattr(sparse, "_chain", _fail("the block rows"))
    with pytest.raises(ConfigError, match="stencil"):
        lifted_column(make_field("scalar_trig", 2), build_slab(base, 1.0),
                      base.center_index, system=K_x)


def test_memory_guard_charges_the_stored_slab_and_its_copy(monkeypatch):
    # the lift block system: 4 modes of 7 x 7 nodes in the 5 rows of a
    # symmetric field, which lifted_column stores; a nonsymmetric field's 9
    # rows are charged before they are allocated
    blocks = 5 * 4 * 7 ** 2
    base = build_grid(2, 1.0, 9)
    y = base.center_index
    slab = build_slab(base, 1.0)
    monkeypatch.setattr(sparse, "physical_memory", lambda: 12 * blocks)
    lifted_column(make_field("scalar_trig", 2), slab, y)
    with pytest.raises(ConfigError, match="stencil"):
        lifted_column(make_field("nonsym_skew", 2), slab, y)
    monkeypatch.setattr(sparse, "physical_memory", lambda: 12 * 9 * 4 * 7 ** 2)
    lifted_column(make_field("nonsym_skew", 2), slab, y)
    # the slab grid allocates nothing, so it is charged nothing
    monkeypatch.setattr(sparse, "physical_memory", lambda: 0)
    assert build_slab(base, 1.0).n_layers == 9
    # the 14 rows of a symmetric 27-point stencil on 16 of the 63 planes
    g, f = build_grid(3, 2.0, 65), make_field("scalar_trig", 3)
    stored = 14 * 16 * 63 ** 2
    assert 8 * 27 * 63 ** 3 > 12 * stored    # the full stencil would not fit
    monkeypatch.setattr(sparse, "physical_memory", lambda: 12 * stored)
    K = assemble(f, g)
    assert K.data.nbytes + K.single.data.nbytes == 12 * stored
    # one byte short: the slab is refused before any coefficient of its
    # period torus (charged 12 * 14 * 16^3 bytes) is evaluated
    assert 12 * 14 * 16 ** 3 < 12 * stored - 1
    monkeypatch.setattr(sparse, "physical_memory", lambda: 12 * stored - 1)
    monkeypatch.setattr(fields, "evaluate", _fail("the coefficients"))
    with pytest.raises(ConfigError, match="stencil and its float32 copy"):
        assemble(f, g)


def test_each_allocation_of_stored_rows_is_charged_once(monkeypatch):
    # (rows, nodes) of every guard call, each on what it then allocates
    charged = []
    monkeypatch.setattr(sparse, "check_stencil_fits",
                        lambda rows, nodes: charged.append((rows, nodes)))
    base = build_grid(2, 1.0, 9)    # period 4: a 4 x 4 torus on 7 x 7 nodes
    lifted_column(make_field("scalar_trig", 2), build_slab(base, 1.0),
                  base.center_index)
    # K_x's slab, then the torus it is tiled from, M_x tiled from its
    # period-1 cell (never assembled), the 4 mode blocks, then the tiled
    # Galerkin levels of K_x and of M_x, 3 x 3 and 1 x 1 nodes each
    assert charged == [(5, 49), (5, 16), (5, 49), (5, 4 * 49),
                       (5, 9), (5, 1), (5, 9), (5, 1)]
    charged.clear()
    # no period fits the box: the slab (the whole box), then the box's own
    # torus of 64 nodes per axis
    assemble(make_field("nonsym_skew", 2), build_grid(2, 1.5, 65))
    assert charged == [(9, 63 ** 2), (9, 64 ** 2)]


def _lifted(field):
    def matrix_fn(pts):
        out = np.zeros((len(pts), 3, 3))
        out[:, :2, :2] = fields.evaluate(field, pts[:, :2])
        out[:, 2, 2] = 1.0
        return out
    return matrix_fn


def _element_reference(matrix_fn, axes, h):
    """Dense interior stiffness scattered element by element in plain loops."""
    d = len(axes)
    ishape = tuple(len(a) - 2 for a in axes)
    xi, gref = mesh._reference_rules(d)
    corners = mesh._corner_offsets(d)
    dense = np.zeros((math.prod(ishape),) * 2)
    for e in np.ndindex(*(len(a) - 1 for a in axes)):
        lower = np.array([axes[k][e[k]] for k in range(d)])
        amat = matrix_fn(lower + h * xi)  # coefficient at the Gauss points
        # int grad phi_i . A grad phi_j: weights 2^-d, Jacobian h^d / h^2
        ke = np.einsum("qki,qkl,qlj->ij", gref, amat, gref) * h ** (d - 2) / 2**d
        nodes = [np.array(e) + c - 1 for c in corners]  # interior multi-index
        for i, ni in enumerate(nodes):
            for j, nj in enumerate(nodes):
                if all(0 <= v < s for v, s in zip(np.r_[ni, nj], ishape * 2)):
                    dense[np.ravel_multi_index(ni, ishape),
                          np.ravel_multi_index(nj, ishape)] += ke[i, j]
    return dense


def _box(matrix_fn, axes, h, symmetric):
    """The whole box, assembled as its own torus of n - 1 nodes per axis."""
    return mesh.assemble_tiled(matrix_fn, axes, h,
                               [len(x) - 1 for x in axes], symmetric)


def _assert_matches(K, ref):
    assert validate(K)  # off-grid stencil entries stay exactly zero
    assert np.abs(ref).max() > 0
    assert np.abs(K.to_dense() - ref).max() <= 1e-13 * np.abs(ref).max()


# tori of p = 3 (2D n = 7) and p = 2 (3D n = 5), then p = 1 (h = 1), p = 2
# in 2D and boxes with no period (h = 3/8), closed through their boundary node
@pytest.mark.parametrize("dim,n,R", [
    (2, 7, 1.0), (3, 5, 1.0), (2, 5, 2.0), (3, 5, 2.0), (2, 5, 1.0),
    (2, 9, 1.5), (3, 9, 1.5)], ids=["2-7", "3-5", "2-5-p1", "3-5-p1",
                                    "2-5-p2", "2-9-box", "3-9-box"])
@pytest.mark.parametrize("family",
                         ["identity", "scalar_trig", "diag_aniso", "nonsym_skew"])
def test_assembler_matches_element_reference(dim, n, R, family):
    g = build_grid(dim, R, n)
    f = make_field(family, dim)
    _assert_matches(assemble(f, g), _element_reference(
        lambda pts: fields.evaluate(f, pts), [g.axis] * dim, g.h))


@pytest.mark.parametrize("family", ["scalar_trig", "nonsym_skew"])
def test_lifted_assembler_matches_element_reference(family):
    slab = build_slab(build_grid(2, 1.0, 7), 2.0)
    assert slab.shape == (7, 7, 13)
    f = make_field(family, 2)
    _assert_matches(assemble_lifted(f, slab),
                    _element_reference(_lifted(f), slab.axes, slab.h))


@pytest.mark.parametrize("lengths", [(6, 9), (5, 4, 7)])
def test_assembler_nonsymmetric_variable_coefficient(lengths):
    # non-cubic axes and a nonsymmetric coupling on every axis pair, so a
    # transposed element matrix or an offset on any one axis would show
    def matrix_fn(pts):
        out = np.zeros(pts.shape + (pts.shape[1],))
        for k in range(pts.shape[1]):
            out[:, k, k] = 2.0 + np.cos(pts[:, k])
            out[:, k, (k + 1) % pts.shape[1]] += pts[:, k] * pts[:, -1]
        return out
    h = 0.3
    axes = [h * np.arange(n) - 0.7 for n in lengths]
    K = _box(matrix_fn, axes, h, symmetric=False)
    ref = _element_reference(matrix_fn, axes, h)
    assert np.abs(ref - ref.T).max() > 1e-3 * np.abs(ref).max()
    _assert_matches(K, ref)


@pytest.mark.parametrize("dim,R,n,period", [
    (3, 2.0, 65, 16), (2, 3.0, 65, 32), (3, 3.0, 33, 16), (3, 2.0, 33, 8),
    (2, 1.5, 65, None)])  # h = 3/64 needs p = 64 = n - 1: the box itself
def test_cell_stencil_period(dim, R, n, period):
    g = build_grid(dim, R, n)
    p = period or n - 1
    assert mesh.cell_period(g) == p
    rows, cell = assemble(make_field("scalar_trig", dim), g).cell
    assert cell == (p,) * dim
    # the (3^d + 1) / 2 rows of a symmetric stencil
    assert rows.shape == ((3**dim + 1) // 2, p ** dim)


def test_assemble_rejects_a_scalar_trig_field_of_period_two():
    # freq 0.5 has period 2, but tiling would repeat period-1 rows
    f = fields.PeriodicField(2, "scalar_trig", (2.0, 1.0, 0.5), alpha=1.0,
                             bound=3.0)
    with pytest.raises(ConfigError, match="freq"):
        assemble(f, build_grid(2, 1.0, 17))


def test_near_period_is_assembled_whole():
    # p h = 1 + 1e-10 at p = 64: tiling would be off by 2.1e-10 of the
    # largest entry, above the solver tolerance, so the box is assembled whole
    g = build_grid(2, 1.0 + 1e-10, 129)
    f = make_field("scalar_trig", 2)
    assert mesh.cell_period(g) == g.n - 1
    direct = _box(lambda pts: fields.evaluate(f, pts), [g.axis] * 2, g.h,
                  fields.is_symmetric(f))
    assert np.array_equal(assemble(f, g).data, direct.data)


@pytest.mark.parametrize("dim,R,n", [(2, 3.0, 65), (3, 3.0, 33), (2, 1.5, 65)])
@pytest.mark.parametrize("family",
                         ["identity", "scalar_trig", "diag_aniso", "nonsym_skew"])
def test_tiled_assembly_matches_direct(dim, R, n, family):
    # 1/h is not an integer on any of these grids
    g = build_grid(dim, R, n)
    f = make_field(family, dim)
    K = assemble(f, g)
    direct = _box(lambda pts: fields.evaluate(f, pts), [g.axis] * dim, g.h,
                  fields.is_symmetric(f))
    assert validate(K)
    assert K.data.flags["C_CONTIGUOUS"]  # strided rows would slow every matvec
    assert K.symmetric == direct.symmetric
    assert not np.signbit(K.data[~K._on_grid()]).any()
    scale = np.abs(direct.data).max()
    assert np.abs(K.data - direct.data).max() <= 1e-15 * scale


def test_assemble_evaluates_one_period_cell(monkeypatch):
    seen, evaluate = [], fields.evaluate

    def counting(field, pts):
        seen.append(len(pts))
        return evaluate(field, pts)
    monkeypatch.setattr(fields, "evaluate", counting)
    g = build_grid(3, 2.0, 33)  # h = 1/8: period p = 8 of 31 interior nodes
    assemble(make_field("scalar_trig", 3), g)
    assert sum(seen) == 8 * 8 ** 3  # not 8 * 32^3 for the whole box


def test_batch_seams_match_single_batch(monkeypatch):
    g = build_grid(3, 1.0, 9)
    slab = build_slab(build_grid(2, 1.0, 7), 2.0)
    f2, f3 = make_field("nonsym_skew", 2), make_field("scalar_trig", 3)
    whole = [assemble(f3, g).data, assemble_lifted(f2, slab).data]
    monkeypatch.setattr(mesh, "_BATCH", 1)  # one element layer per batch
    seamed = [assemble(f3, g).data, assemble_lifted(f2, slab).data]
    for a, b in zip(seamed, whole):
        assert np.abs(a - b).max() <= 1e-14 * np.abs(b).max()
