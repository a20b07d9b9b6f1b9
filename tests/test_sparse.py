import os
import subprocess
import sys

import numpy as np
import pytest

import greenbox
from greenbox import (ConfigError, ConvergenceError, SparseSystem, assemble,
                      build_grid, lift, load_delta, make_field, matvec, mesh,
                      solve, sparse)
from oracles import dense_solve, validate


def from_dense(mat, symmetric=None):
    """1D 3-point stencil system of a tridiagonal matrix."""
    mat = np.asarray(mat, dtype=float)
    n = mat.shape[0]
    assert np.array_equal(np.triu(np.tril(mat, 1), -1), mat), "not tridiagonal"
    data = np.zeros((3, n))
    data[0, 1:] = np.diag(mat, -1)
    data[1] = np.diag(mat)
    data[2, :-1] = np.diag(mat, 1)
    if symmetric is None:
        symmetric = bool(np.array_equal(mat, mat.T))
    return SparseSystem(shape=(n,), data=data, symmetric=symmetric)


TWO_BY_TWO = [[2.0, -1.0], [-1.0, 2.0]]


def unsymmetric(K):
    """The same stencil with the symmetric flag cleared: solved by BiCGStab."""
    return SparseSystem(K.shape, K.data, False)


def test_matvec_identity():
    eye = from_dense(np.eye(3))
    x = np.array([1.0, -2.0, 0.5])
    assert np.array_equal(matvec(eye, x), x)


def test_matvec_hand_cases():
    K = from_dense(TWO_BY_TWO)
    assert np.array_equal(matvec(K, np.array([1.0, 1.0])), np.array([1.0, 1.0]))
    assert np.array_equal(matvec(K, np.array([1.0, 0.0])), np.array([2.0, -1.0]))


def test_matvec_length_mismatch():
    K = from_dense(TWO_BY_TWO)
    with pytest.raises(ConfigError):
        matvec(K, np.zeros(3))


def test_cg_hand_elimination():
    K = from_dense(TWO_BY_TWO)
    u, info = solve(K, np.array([1.0, 0.0]), rel_tol=1e-12)
    np.testing.assert_allclose(u, [2 / 3, 1 / 3], atol=1e-12)
    assert info.iterations >= 1


def test_solve_zero_rhs():
    K = from_dense(TWO_BY_TWO)
    u, info = solve(K, np.zeros(2))
    assert np.array_equal(u, np.zeros(2))
    assert info.iterations == 0


def test_bicgstab_hand_elimination():
    K = from_dense([[2.0, 1.0], [-1.0, 2.0]])
    u, _ = solve(K, np.array([3.0, 1.0]), rel_tol=1e-12)
    np.testing.assert_allclose(u, [1.0, 1.0], atol=1e-10)


def test_solvers_agree_on_symmetric_input():
    g = build_grid(2, 1.0, 17)
    K = assemble(make_field("scalar_trig", 2), g)
    rhs = load_delta(g, g.center_index)
    u_cg, _ = solve(K, rhs)
    u_bi, _ = solve(unsymmetric(K), rhs)
    assert np.abs(u_cg - u_bi).max() <= 1e-8


def test_krylov_matches_dense_oracle_laplacian_n17():
    g = build_grid(2, 1.0, 17)
    K = assemble(make_field("identity", 2), g)
    rhs = load_delta(g, g.center_index)
    u_it, _ = solve(K, rhs)
    u_ref = dense_solve(K, rhs)
    assert np.abs(u_it - u_ref).max() <= 1e-8


def test_krylov_matches_dense_oracle_nonsym_n17():
    g = build_grid(2, 1.0, 17)
    K = assemble(make_field("nonsym_skew", 2), g)
    rhs = load_delta(g, g.center_index)
    u_it, _ = solve(K, rhs)
    u_ref = dense_solve(K, rhs)
    assert np.abs(u_it - u_ref).max() <= 1e-8


def test_residual_contract_rechecked():
    g = build_grid(3, 1.0, 9)
    K = assemble(make_field("diag_aniso", 3), g)
    rhs = np.sin(np.arange(K.n_rows, dtype=float))
    for rel_tol in (1e-6, 1e-10):
        u, info = solve(K, rhs, rel_tol=rel_tol)
        res = np.linalg.norm(matvec(K, u) - rhs)
        assert res <= rel_tol * np.linalg.norm(rhs)
        assert info.residual <= rel_tol * np.linalg.norm(rhs)


def test_convergence_failure_carries_residual():
    g = build_grid(2, 1.0, 17)
    K = assemble(make_field("identity", 2), g)
    rhs = load_delta(g, g.center_index)
    with pytest.raises(ConvergenceError) as exc:
        solve(K, rhs, rel_tol=1e-12, max_iter=2)
    assert exc.value.residual is not None and exc.value.residual > 0.0
    with pytest.raises(ConvergenceError):
        solve(unsymmetric(K), rhs, rel_tol=1e-12, max_iter=2)


def test_zero_iteration_cap_raises_with_the_rhs_residual():
    g = build_grid(2, 1.0, 17)
    rhs = load_delta(g, g.center_index)
    for K in (assemble(make_field("identity", 2), g),
              assemble(make_field("nonsym_skew", 2), g)):
        with pytest.raises(ConvergenceError) as exc:
            solve(K, rhs, max_iter=0)
        assert exc.value.iterations == 0 and exc.value.history == []
        assert exc.value.residual == np.linalg.norm(rhs)


@pytest.mark.parametrize("recurrence, family", [("_cg", "scalar_trig"),
                                                ("_bicgstab", "nonsym_skew")])
def test_drifted_pass_restarts_from_true_residual(monkeypatch, recurrence,
                                                  family):
    # the first pass returns a correction off by a relative 1e-6, as a
    # recursion whose residual drifted would: solve must restart from the
    # true residual and count both passes
    original = getattr(sparse, recurrence)
    passes = []

    def drifting(levels, r, tol_abs, history, max_iter):
        e = original(levels, r, tol_abs, history, max_iter)
        passes.append(len(history))
        return e * (1.0 + 1e-6) if len(passes) == 1 else e

    monkeypatch.setattr(sparse, recurrence, drifting)
    g = build_grid(2, 1.0, 17)
    K = assemble(make_field(family, 2), g)
    rhs = load_delta(g, g.center_index + 3)
    u, info = solve(K, rhs)
    assert len(passes) == 2 and 0 < passes[0] < passes[1]
    assert info.iterations == passes[-1]
    tol = 1e-10 * np.linalg.norm(rhs)
    assert info.residual <= tol
    assert np.linalg.norm(rhs - matvec(K, u)) <= tol
    ref = dense_solve(K, rhs)
    assert np.abs(u - ref).max() <= 1e-10 * np.abs(ref).max()


def test_determinism_bitwise():
    g = build_grid(2, 1.0, 17)
    K = assemble(make_field("scalar_trig", 2), g)
    rhs = load_delta(g, g.center_index)
    u1, i1 = solve(K, rhs)
    u2, i2 = solve(K, rhs)
    assert np.array_equal(u1, u2)
    assert i1 == i2
    K2 = assemble(make_field("scalar_trig", 2), g)
    assert np.array_equal(K.data, K2.data)


_COLUMN_HASH = """
import hashlib
import greenbox as gb
g = gb.build_grid(3, 1.0, 33)
col = gb.green_column(gb.make_field("scalar_trig", 3), g, g.center_index)
print(col.iterations, hashlib.sha256(col.values.tobytes()).hexdigest())
"""


def test_column_bitwise_across_blas_threads():
    src = os.path.dirname(os.path.dirname(greenbox.__file__))
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       [src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-c", _COLUMN_HASH], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


def _interpolation(m):
    """Dense 1D linear interpolation from (m - 1) / 2 coarse nodes, or I."""
    if m < 3 or m % 2 == 0:
        return np.eye(m)
    P = np.zeros((m, (m - 1) // 2))
    for J in range(P.shape[1]):
        P[2 * J:2 * J + 3, J] = (0.5, 1.0, 0.5)
    return P


def _lift_blocks(n):
    """The block system lift.lifted_column solves for a base grid of n nodes
    and slab half-width 1: q = 4 modes at n = 9, q = 3 at n = 7."""
    grid = build_grid(2, 1.0, n)
    solve_blocks, captured = sparse.solve, []

    def capture(system, rhs, **kwargs):
        captured.append(system)
        return solve_blocks(system, rhs, **kwargs)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sparse, "solve", capture)
        lift.lifted_column(make_field("scalar_trig", 2),
                           lift.build_slab(grid, 1.0), grid.center_index)
    return captured[0]


def test_galerkin_levels_match_dense_triple_product():
    systems = []
    for dim, n in ((2, 9), (3, 5)):
        g = build_grid(dim, 1.0, n)
        for fam in ("scalar_trig", "nonsym_skew"):
            systems.append(assemble(make_field(fam, dim), g))
            assert systems[-1].hierarchy[-1].shape == (1,) * dim
    # the uncoupled mode axis of the lift block system: at q = 4 it does not
    # coarsen, so _galerkin keeps only its centre offset; at q = 3 it
    # coarsens, and the full stencil must go through P^T K P
    blocks = [_lift_blocks(9), _lift_blocks(7)]
    assert [b.couplings.axes for b in blocks] == [(False, True, True)] * 2
    assert [sparse.coarse_axes(b.shape) for b in blocks] == [(1, 2),
                                                              (0, 1, 2)]
    # the float64 _galerkin chain holds the products to 1e-12; the stored
    # hierarchy is that chain rounded once to float32, level by level
    for fine in systems + blocks:
        for stored in fine.hierarchy:
            coarse = sparse._galerkin(fine)
            assert stored.data.dtype == np.float32
            assert stored.shape == coarse.shape
            assert stored.data.tobytes() == \
                coarse.data.astype(np.float32).tobytes()
            P = _interpolation(fine.shape[0])
            for m in fine.shape[1:]:
                P = np.kron(P, _interpolation(m))
            expected = P.T @ fine.to_dense() @ P
            xc = np.sin(np.arange(coarse.n_rows) + 1.0)
            np.testing.assert_allclose(sparse.prolong(xc, fine.shape),
                                       P @ xc, rtol=1e-14, atol=1e-14)
            x = np.cos(np.arange(fine.n_rows) + 1.0)
            np.testing.assert_allclose(sparse.restrict(x, fine.shape),
                                       P.T @ x, rtol=1e-14, atol=1e-14)
            assert validate(coarse) and validate(stored)
            assert coarse.symmetric == stored.symmetric == fine.symmetric
            np.testing.assert_allclose(coarse.to_dense(), expected,
                                       rtol=1e-12,
                                       atol=1e-14 * abs(expected).max())
            fine = coarse


def test_coupling_record_of_the_lift_block_system():
    blocks = _lift_blocks(9)
    assert blocks.shape == (4, 7, 7)
    in_plane = sparse.stencil_offsets(3)[:, 0] == 0
    assert blocks.couplings.rows == tuple(np.flatnonzero(in_plane))
    assert len(blocks.couplings.rows) == 9
    assert blocks.couplings.axes == (False, True, True)
    x = np.sin(np.arange(blocks.n_rows) + 1.0)
    ref = blocks.to_dense() @ x
    np.testing.assert_allclose(matvec(blocks, x), ref, rtol=0,
                               atol=1e-14 * np.abs(ref).max())
    # the coarsest level (4, 1, 1) keeps only its centre row; its shifts
    # repeat out of order, and the last is still the largest
    coarsest = blocks.hierarchy[-1]
    assert coarsest.shape == (4, 1, 1)
    assert coarsest.couplings == ((13,), (False, False, False))
    assert np.any(np.diff(coarsest.shifts) <= 0)
    assert coarsest.shifts[-1] == np.abs(coarsest.shifts).max()


def test_matvec_skipping_a_zero_row_is_bitwise_the_full_loop():
    rng = np.random.default_rng(3)
    g = build_grid(2, 1.0, 9)
    K = assemble(make_field("identity", 2), g)
    data = rng.standard_normal(K.data.shape) * K._on_grid()
    data[4] = 1.0 + np.abs(data[4])
    data[2] = 0.0  # offset (-1, 1) couples nothing
    system = SparseSystem(K.shape, data, False)
    assert validate(system)
    assert system.couplings.rows == (0, 1, 3, 4, 5, 6, 7, 8)
    x = rng.standard_normal(system.n_rows)
    x[::5] = -0.0
    assert matvec(system, x).tobytes() == _full_loop(system, x).tobytes()


def _full_loop(system, x):
    """The unblocked matvec over every stencil row, zero or not."""
    n, pad = system.n_rows, system.shifts[-1]
    xp = np.zeros(n + 2 * pad)
    xp[pad:pad + n] = x
    y = np.zeros(n)
    for row, s in zip(system.data, system.shifts):
        y += row * xp[pad + s:pad + s + n]
    return y


def _random_stencil(shape, rng):
    """A nonsymmetric stencil with random entries at every on-grid coupling."""
    system = SparseSystem(shape, np.zeros((3 ** len(shape), np.prod(shape))),
                          False)
    data = rng.standard_normal(system.data.shape) * system._on_grid()
    centre = (len(data) - 1) // 2
    data[centre] = 1.0 + np.abs(data[centre])
    return SparseSystem(shape, data, False)


@pytest.mark.parametrize("block", [1, 3, 100])
def test_blocked_matvec_seams_are_bitwise_the_full_loop(monkeypatch, block):
    rng = np.random.default_rng(5)
    blocks = _lift_blocks(9)
    # the lift coarsest level (4, 1, 1) has a length-1 axis, and its shifts
    # repeat out of order
    systems = [_random_stencil((7, 7, 7), rng), blocks,
               _random_stencil(blocks.hierarchy[-1].shape, rng)]
    # 1: a seam after every node; 3 and 100: a partial last block on each
    monkeypatch.setattr(sparse, "_BLOCK", block)
    for system in systems:
        assert validate(system)
        x = rng.standard_normal(system.n_rows)
        x[::3] = -0.0
        x[1::7] = 0.0
        assert matvec(system, x).tobytes() == _full_loop(system, x).tobytes()


@pytest.mark.parametrize("family", ["scalar_trig", "nonsym_skew"])
def test_blocked_solve_is_bitwise_the_single_block_solve(monkeypatch, family):
    g = build_grid(3, 1.0, 9)
    rhs = load_delta(g, g.center_index + 1)
    K = assemble(make_field(family, 3), g)
    u, info = solve(K, rhs)
    assert K.n_rows <= sparse._BLOCK  # one block by default
    monkeypatch.setattr(sparse, "_BLOCK", 7)
    u7, info7 = solve(assemble(make_field(family, 3), g), rhs)
    assert u7.tobytes() == u.tobytes()
    assert info7 == info


# (dim, R, n, family, block): a block of exactly p node planes makes
# assemble store a p-plane slab
SLABS = [(2, 1.0, 17, "scalar_trig", 8 * 15),
         (2, 1.0, 17, "nonsym_skew", 8 * 15),
         (3, 1.0, 9, "scalar_trig", 4 * 7 ** 2),
         (3, 1.0, 9, "nonsym_skew", 4 * 7 ** 2),
         # h = 1/3: odd period 3, so the Galerkin product wraps at p_c = p
         (2, 3.0, 19, "scalar_trig", 3 * 17),
         # p_c = 3 is not below the 2 coarse planes: widened before Galerkin
         (2, 1.0, 7, "scalar_trig", 3 * 5)]


def _layout_results(K, g):
    x = np.random.default_rng(7).standard_normal(K.n_rows)
    x[::4] = -0.0
    u, info = solve(K, load_delta(g, g.center_index + 1))
    return ([matvec(K, x).tobytes(), K.diagonal().tobytes(),
             K.to_dense().tobytes(), u.tobytes(), info]
            + [(lv.shape, lv.period, lv.expanded().tobytes())
               for lv in K.hierarchy])


@pytest.mark.parametrize("dim,R,n,family,block", SLABS)
def test_slab_is_bitwise_the_full_layout(monkeypatch, dim, R, n, family,
                                         block):
    g = build_grid(dim, R, n)
    f = make_field(family, dim)
    full = assemble(f, g)
    assert full.period == full.shape[0]
    expected = _layout_results(full, g)
    monkeypatch.setattr(sparse, "_BLOCK", block)
    slab = assemble(f, g)
    assert slab.period < slab.shape[0]
    assert slab.data.shape == (3 ** dim, block)
    assert validate(slab)
    assert slab.expanded().tobytes() == full.data.tobytes()
    # every coarse level keeps the full layout: its period is compared too
    assert _layout_results(slab, g) == expected


def test_lift_column_on_a_slab_base_is_bitwise(monkeypatch):
    g = build_grid(2, 1.0, 17)
    f = make_field("scalar_trig", 2)
    slab_grid = lift.build_slab(g, 1.0)
    ref, ref_info = lift.lifted_column(f, slab_grid, g.center_index + 1,
                                       system=assemble(f, g))
    monkeypatch.setattr(sparse, "_BLOCK", 8 * 15)
    K_x = assemble(f, g)
    assert K_x.period == 8
    col, info = lift.lifted_column(f, slab_grid, g.center_index + 1,
                                   system=K_x)
    assert col.tobytes() == ref.tobytes()
    assert info == ref_info


def test_production_column_stores_a_16_plane_slab():
    K = assemble(make_field("scalar_trig", 3), build_grid(3, 2.0, 65))
    assert K.period == 16
    assert K.data.shape == (27, 63504)  # 16 planes of 63 x 63 nodes


@pytest.mark.parametrize("p,shape,planes", [
    (16, (63, 63, 63), 16), (8, (63, 63, 63), 16),
    # 2D n = 129 would split into 8 blocks of 2,032 nodes at 16 planes
    (16, (127, 127), 127),
    # a slab of 160, 192 or 224 planes gives 3 blocks, the whole axis 2
    (32, (255, 255), 255)])
def test_slab_planes_never_add_matvec_blocks(p, shape, planes):
    assert sparse.slab_planes(p, shape) == planes
    n = int(np.prod(shape))
    size = planes * n // shape[0]
    blocks = sparse._blocks(n, size, sparse._BLOCK)
    assert len(blocks) == -(-n // sparse._BLOCK)


def test_non_contiguous_stencil_data_rejected(monkeypatch):
    g = build_grid(3, 1.0, 9)
    f = make_field("scalar_trig", 3)
    p, rows = mesh.cell_stencil(f, g)
    tile = np.arange(7) % p
    strided = rows.reshape((27,) + (p,) * 3)[
        (slice(None),) + np.ix_(tile, tile, tile)].reshape(27, -1)
    assert not strided.flags["C_CONTIGUOUS"]
    with pytest.raises(ConfigError, match="C-contiguous"):
        SparseSystem((7, 7, 7), strided, True)
    # the producers of stencil data pass: assembly, Galerkin levels (the slab
    # wrap and widening among them) and the lift block system
    monkeypatch.setattr(sparse, "_BLOCK", 4 * 7 ** 2)
    assert assemble(f, g).hierarchy
    assert _lift_blocks(9).hierarchy


def test_nnz_counts_the_on_grid_couplings_of_the_coupled_rows():
    g3, g2 = build_grid(3, 1.0, 9), build_grid(2, 1.0, 17)
    systems = [assemble(make_field("scalar_trig", 3), g3),
               assemble(make_field("nonsym_skew", 2), g2), _lift_blocks(9)]
    for system in systems:
        on_grid = system._on_grid()[list(system.couplings.rows)]
        assert system.nnz == on_grid.sum()
    # every row of an assembled stencil couples; the lift block system's
    # 9 in-plane rows bill 4 modes of 7 x 7 nodes
    assert [s.nnz for s in systems] == [19 ** 3, 43 ** 2, 4 * 19 ** 2]


def test_poorly_coarsening_systems_match_dense_oracle():
    rng = np.random.default_rng(0)
    off = -rng.uniform(0.5, 1.0, 6)
    tri = np.diag(np.full(7, 3.0)) + np.diag(off, 1) + np.diag(off, -1)
    g = build_grid(2, 1.0, 7)
    K2 = assemble(make_field("scalar_trig", 2), g)
    assert [lv.shape for lv in K2.hierarchy] == [(2, 2)]
    for K, rhs in ((from_dense(tri), rng.standard_normal(7)),
                   (K2, load_delta(g, g.center_index))):
        u, _ = solve(K, rhs)
        assert np.abs(u - dense_solve(K, rhs)).max() <= 1e-10


@pytest.mark.parametrize("dim,n", [(2, 129), (3, 33)])
def test_multigrid_iterations_per_column(dim, n):
    g = build_grid(dim, 1.0, n)
    K = assemble(make_field("scalar_trig", dim), g)
    _, info = solve(K, load_delta(g, g.center_index))
    assert info.iterations <= 15


# (dim, R, n, family): iterations of the float64 CG/BiCGStab with the float32
# V-cycle, equal to those of the float64 V-cycle it replaced
ACCEPTANCE_SOLVES = [((3, 2.0, 65, "scalar_trig"), 9),
                     ((3, 1.0, 33, "nonsym_skew"), 5),
                     ((2, 4.0, 129, "scalar_trig"), 8)]


@pytest.mark.parametrize("size,iterations", ACCEPTANCE_SOLVES)
def test_iterations_at_acceptance_sizes(size, iterations):
    dim, R, n, family = size
    g = build_grid(dim, R, n)
    _, info = solve(assemble(make_field(family, dim), g),
                    load_delta(g, g.center_index))
    assert info.iterations == iterations


def test_lift_iterations_at_base_33():
    g = build_grid(2, 1.0, 33)
    slab = lift.build_slab(g, 4.0)
    counts = [lift.lifted_column(make_field(family, 2), slab,
                                 g.center_index)[1].iterations
              for family in ("identity", "scalar_trig")]
    assert counts == [9, 8]


@pytest.mark.parametrize("family", ["scalar_trig", "nonsym_skew"])
def test_vcycle_is_float32_and_krylov_float64(monkeypatch, family):
    # the dtypes follow the data under numpy 1.24's value-based casting and
    # numpy 2's NEP 50 alike: no float64 scalar may widen the V-cycle
    g = build_grid(3, 1.0, 9)
    K = assemble(make_field(family, 3), g)
    seen, transfers = [], []
    matvec, prolong, restrict = sparse.matvec, sparse.prolong, sparse.restrict

    def recording(system, x):
        y = matvec(system, x)
        seen.append((system is K, (system.data.dtype, x.dtype, y.dtype)))
        return y

    def transfer(fn):
        def recorded(x, fine_shape):
            y = fn(x, fine_shape)
            transfers.append((x.dtype, y.dtype))
            return y
        return recorded
    monkeypatch.setattr(sparse, "matvec", recording)
    monkeypatch.setattr(sparse, "prolong", transfer(prolong))
    monkeypatch.setattr(sparse, "restrict", transfer(restrict))
    u, info = solve(K, load_delta(g, g.center_index + 1))
    assert set(transfers) == {(np.dtype(np.float32),) * 2}
    assert u.dtype == np.float64
    krylov = [dtypes for fine, dtypes in seen if fine]
    cycle = [dtypes for fine, dtypes in seen if not fine]
    assert set(krylov) == {(np.dtype(np.float64),) * 3}
    assert set(cycle) == {(np.dtype(np.float32),) * 3}
    # CG: one matvec per iteration and the true-residual re-check;
    # BiCGStab: at most two per iteration and the re-check
    if K.symmetric:
        assert len(krylov) == info.iterations + 1
    else:
        assert info.iterations + 1 <= len(krylov) <= 2 * info.iterations + 1
    levels = (K.single,) + K.hierarchy
    assert [lv.smoother.dtype for lv in levels] == [np.float32] * len(levels)
    assert "smoother" not in K.__dict__    # no float64 V-cycle ran


def test_vcycle_scaling_is_exact():
    g = build_grid(3, 1.0, 9)
    K = assemble(make_field("scalar_trig", 3), g)
    levels = (K,) + K.hierarchy
    b = np.sin(np.arange(K.n_rows) + 1.0)
    tiny = b * 2.0 ** -160
    assert not tiny.astype(np.float32).any()    # a plain cast flushes to 0
    assert sparse._vcycle(levels, tiny).tobytes() == \
        (sparse._vcycle(levels, b) * 2.0 ** -160).tobytes()
    assert not sparse._vcycle(levels, np.zeros(K.n_rows)).any()


def test_single_copy_writes_only_the_coupled_rows():
    blocks = _lift_blocks(9)
    single = blocks.single
    assert single.data.dtype == np.float32 and single.shape == blocks.shape
    assert single.couplings == blocks.couplings
    assert single.data.tobytes() == blocks.data.astype(np.float32).tobytes()
    assert blocks.single is single    # cached with the system


def test_hierarchy_built_once_per_system():
    g = build_grid(2, 1.0, 17)
    K = assemble(make_field("scalar_trig", 2), g)
    solve(K, load_delta(g, g.center_index))
    levels = K.hierarchy
    solve(K, load_delta(g, g.center_index + 1))
    assert K.hierarchy is levels


def test_default_iteration_cap_and_history():
    g = build_grid(2, 1.0, 17)
    K = assemble(make_field("identity", 2), g)
    with pytest.raises(ConvergenceError) as exc:
        solve(K, load_delta(g, g.center_index), rel_tol=1e-300)
    assert exc.value.iterations == len(exc.value.history) == 120
    assert exc.value.history[0] > exc.value.history[5] > 0.0
    # 2D n = 103 stops coarsening at 50 x 50: the cap grows to 1,100
    g = build_grid(2, 1.0, 103)
    K = assemble(make_field("scalar_trig", 2), g)
    assert K.hierarchy[-1].shape == (50, 50)
    _, info = solve(K, load_delta(g, g.center_index))
    assert info.iterations <= 100


def test_dense_solve_identity_and_hand_case():
    eye = from_dense(np.eye(4))
    rhs = np.array([1.0, 2.0, 3.0, 4.0])
    assert np.array_equal(dense_solve(eye, rhs), rhs)
    np.testing.assert_allclose(dense_solve(from_dense(TWO_BY_TWO),
                                           np.array([1.0, 0.0])),
                               [2 / 3, 1 / 3], atol=1e-15)


def test_dense_solve_singular():
    sing = from_dense([[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(np.linalg.LinAlgError):
        dense_solve(sing, np.array([1.0, 0.0]))


def test_dense_solve_size_cap():
    n = 4097
    data = np.zeros((3, n))
    data[1] = 1.0  # the identity, without a dense 4097 x 4097 copy
    big = SparseSystem(shape=(n,), data=data, symmetric=True)
    with pytest.raises(ConfigError):
        dense_solve(big, np.zeros(n))


def test_stencil_invariants_on_assembled_systems():
    for dim, n in ((2, 9), (3, 5)):
        g = build_grid(dim, 1.0, n)
        for fam in ("identity", "nonsym_skew"):
            K = assemble(make_field(fam, dim), g)
            assert validate(K)
            assert np.all(K.diagonal() > 0.0)
            off_grid = K.data.copy()
            off_grid[0, 0] = 1.0  # node 0's (-1, ..., -1) neighbour
            for broken in (K.data[:, 1:], off_grid, -K.data):
                with pytest.raises(ConfigError):
                    validate(SparseSystem(K.shape, broken, K.symmetric))


@pytest.mark.parametrize("shape", [(1,), (2,), (5,), (1, 4), (2, 3),
                                   (3, 1, 2), (2, 2, 5)])
def test_zero_faces_leaves_exactly_the_on_grid_couplings(shape):
    d = len(shape)
    data = 1.0 + np.random.default_rng(5).random((3 ** d,) + shape)
    sparse.zero_faces(data.reshape((3,) * d + shape), range(d))
    on_grid = SparseSystem(shape, data.reshape(3 ** d, -1), False)._on_grid()
    assert np.array_equal(data.reshape(3 ** d, -1) != 0.0, on_grid)
    assert not np.signbit(data).any()


def test_zero_faces_skips_an_axis_sliced_to_the_centre():
    # the lift block's layout: axis 0 couples nothing, so its offset
    # dimension is sliced to the centre and its rows +-1 stay untouched
    shape = (4, 3, 2)
    data = 1.0 + np.random.default_rng(6).random((27,) + shape)
    view = data.reshape((3, 3, 3) + shape)[1:2]
    sparse.zero_faces(view, range(3))
    on_grid = SparseSystem(shape, data.reshape(27, -1), False)._on_grid()
    centre = sparse.stencil_offsets(3)[:, 0] == 0
    assert np.array_equal(data.reshape(27, -1)[centre] != 0.0,
                          on_grid[centre])
    assert np.all(data[~centre] > 1.0)
