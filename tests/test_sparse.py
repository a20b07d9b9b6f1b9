import dataclasses
import gc
import hashlib
import math
import os
import subprocess
import sys
import tracemalloc
import weakref

import numpy as np
import pytest

import greenbox
from greenbox import (ConfigError, ConvergenceError, SparseSystem, assemble,
                      build_grid, lift, load_delta, make_field, matvec, mesh,
                      solve, sparse)
from oracles import box_cell, dense_solve, galerkin_chain, validate


def from_dense(mat, symmetric=None):
    """1D 3-point stencil system of a tridiagonal matrix: rows (-1, 0, 1),
    or (0, 1) when symmetric, with its ``box_cell``."""
    mat = np.asarray(mat, dtype=float)
    n = mat.shape[0]
    assert np.array_equal(np.triu(np.tril(mat, 1), -1), mat), "not tridiagonal"
    data = np.zeros((3, n))
    data[0, 1:] = np.diag(mat, -1)
    data[1] = np.diag(mat)
    data[2, :-1] = np.diag(mat, 1)
    if symmetric is None:
        symmetric = bool(np.array_equal(mat, mat.T))
    system = SparseSystem(shape=(n,), data=data[1:] if symmetric else data,
                          symmetric=symmetric)
    system.cell = box_cell(system)
    return system


TWO_BY_TWO = [[2.0, -1.0], [-1.0, 2.0]]


def unsymmetric(K):
    """The same operator with all its rows and the symmetric flag cleared,
    and its ``box_cell``: solved by BiCGStab."""
    system = SparseSystem(K.shape, K.full_rows(), False, K.stencil_axes)
    system.cell = box_cell(system)
    return system


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


def test_solve_rejects_an_rhs_of_the_wrong_shape():
    # 225 unknowns: a 5-vector used to return u = 0 with SolveInfo(0, 0.0)
    # (zeros) or fail in a numpy broadcast (ones), a (15, 15) grid in einsum
    g = build_grid(2, 1.0, 17)
    K = assemble(make_field("identity", 2), g)
    assert K.n_rows == 225
    for rhs in (np.zeros(5), np.ones(5), np.ones((15, 15))):
        with pytest.raises(ConfigError, match="shape"):
            solve(K, rhs)
    assert "hierarchy" not in K.__dict__    # rejected before anything ran


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


@pytest.mark.parametrize("dim, n, family", [(2, 17, "scalar_trig"),
                                           (2, 17, "nonsym_skew"),
                                           (3, 9, "scalar_trig")])
def test_solve_is_bitwise_equivariant_under_powers_of_two(dim, n, family):
    g = build_grid(dim, 1.0, n)
    K = assemble(make_field(family, dim), g)
    r = np.sin(np.arange(K.n_rows) + 1.0)
    u, info = solve(K, r)
    for k in (-600, -1, 600):
        uk, info_k = solve(K, np.ldexp(r, k))
        assert uk.tobytes() == np.ldexp(u, k).tobytes()
        assert info_k == (info.iterations, math.ldexp(info.residual, k))


def test_solve_at_the_ends_of_the_float64_range():
    g = build_grid(2, 1.0, 17)
    K = assemble(make_field("scalar_trig", 2), g)
    delta = load_delta(g, g.center_index)
    u, _ = solve(K, delta)
    # without scaling, ||rhs||^2 underflows (1e-160, 1e-170: a division by
    # zero, or u = 0 as if rhs were zero) or overflows (1e160: nan)
    for s in (1e-160, 1e-170, 1e160):
        us, info = solve(K, s * delta)
        assert info.iterations > 0 and 0.0 < info.residual <= 1e-10 * s
        assert np.abs(us / s - u).max() <= 1e-8 * np.abs(u).max()
    # at the smallest subnormal, u scaled back flushes to 0 or to a few
    # subnormal steps: no float64 u meets the bound, and the re-check says so
    with pytest.raises(ConvergenceError, match="subnormal") as sub:
        solve(K, 5e-324 * delta)
    assert sub.value.residual > 0.0    # not the 0.0 of a flushed residual
    with pytest.raises(ConvergenceError) as ref:
        solve(K, delta, rel_tol=1e-12, max_iter=2)
    with pytest.raises(ConvergenceError) as big:
        solve(K, np.ldexp(delta, 600), rel_tol=1e-12, max_iter=2)
    assert big.value.residual == math.ldexp(ref.value.residual, 600)
    assert big.value.history == [math.ldexp(h, 600)
                                  for h in ref.value.history]
    for bad in (np.nan, np.inf, -np.inf):
        rhs = delta.copy()
        rhs[0] = bad
        with pytest.raises(ConfigError):
            solve(K, rhs)


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


# (dim, R, n, family, source shift, rel_tol): recurrence passes, SolveInfo
# and sha256 of u, as solved before the solve ran on one workspace; every
# solve must stay bitwise.  "lift-33" is the block system of
# lift.lifted_column at base 33; "cg-restart" drifts at rel_tol 1e-15 and
# restarts from the true residual once.
PINNED_SOLVES = {
    "cg-2d": ((2, 1.0, 33, "scalar_trig", 0, 1e-10), 1, 7,
              3.628234275713567e-12, "d527e8e35247086a51fb4892328209c6"
              "5d38f6dc5ab18e3fe8ddd85dd04c1b84"),
    "cg-3d-slab": ((3, 4.0, 65, "scalar_trig", 0, 1e-10), 1, 7,
                   3.173967034032096e-11, "a8cd9c5f0746a3480d95ffc282898a28"
                   "d70c9ce51208bb2858c2306f60356f70"),
    "bicgstab-2d": ((2, 1.0, 33, "nonsym_skew", 1, 1e-10), 1, 4,
                    1.476342028418279e-11, "394322b1be7c8081073db326f390be73"
                    "52b34eef180d2bb3a529a7fdd8c8661a"),
    "cg-restart": ((2, 1.0, 17, "scalar_trig", 1, 1e-15), 2, 11,
                   6.493510110462117e-16, "e6cdbcfac7b54ae330f87ca69d0127c4"
                   "238200cc9c5ad73246e2439b9af6acf5"),
    "lift-33": (None, 1, 7, 2.97984480730898e-12,
                "44e045d945002b83c19a0650e7e386710399407aa44ad0e119e910d5"
                "5e974db1"),
}


@pytest.mark.parametrize("case", PINNED_SOLVES)
def test_solves_are_bitwise_pinned(monkeypatch, case):
    size, passes, iterations, residual, digest = PINNED_SOLVES[case]
    ran, solved = [], []
    for name in ("_cg", "_bicgstab"):
        def counted(*args, recurrence=getattr(sparse, name)):
            ran.append(recurrence)
            return recurrence(*args)
        monkeypatch.setattr(sparse, name, counted)
    if size is None:
        def kept(*args, solve_blocks=sparse.solve, **kwargs):
            solved.append(solve_blocks(*args, **kwargs))
            return solved[-1]
        monkeypatch.setattr(sparse, "solve", kept)
        g = build_grid(2, 1.0, 33)
        lift.lifted_column(make_field("scalar_trig", 2),
                           lift.build_slab(g, 4.0), g.center_index)
        u, info = solved[0]
    else:
        dim, R, n, family, shift, rel_tol = size
        g = build_grid(dim, R, n)
        K = assemble(make_field(family, dim), g)
        assert case != "cg-3d-slab" or K.period < K.shape[0]
        u, info = solve(K, load_delta(g, g.center_index + shift),
                        rel_tol=rel_tol)
    assert len(ran) == passes
    assert info == (iterations, residual)
    assert hashlib.sha256(u.tobytes()).hexdigest() == digest


def test_repeat_solve_peak_memory():
    # traced peak of a repeat solve (the hierarchy, smoothers and plans
    # cached by the first) before the solve ran on one workspace: 2,404,602
    # bytes, about 10 float64 vectors of 29,791 unknowns
    g = build_grid(3, 1.0, 33)
    K = assemble(make_field("scalar_trig", 3), g)
    rhs = load_delta(g, g.center_index)
    solve(K, rhs)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        solve(K, rhs)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= 2_404_602


@pytest.mark.parametrize("family", ["scalar_trig", "nonsym_skew"])
def test_workspace_is_freed_when_solve_returns(monkeypatch, family):
    # with the cyclic collector off, nothing of a solve's workspace outlives
    # the solve: a reference cycle would keep every buffer until a collection
    g = build_grid(2, 1.0, 17)
    K = assemble(make_field(family, 2), g)
    recurrence = "_cg" if K.symmetric else "_bicgstab"
    original, refs = getattr(sparse, recurrence), []

    def keep(ws, *args):
        _, b, x = ws.cycle
        refs.extend(weakref.ref(a) for a in (ws, b.base, x.base) + tuple(
            v.base for v in ws.x + ws.y))
        return original(ws, *args)
    monkeypatch.setattr(sparse, recurrence, keep)
    gc.disable()
    try:
        solve(K, load_delta(g, g.center_index))
        assert refs and not any(ref() is not None for ref in refs)
    finally:
        gc.enable()


_COLUMN_HASH = """
import hashlib
import greenbox as gb
g = gb.build_grid(3, 1.0, 33)
col = gb.green_column(gb.make_field("scalar_trig", 3), g, g.center_index)
print(col.iterations, hashlib.sha256(col.values.tobytes()).hexdigest())
# the quadrature of the lift.arctan_kernel check, a dot over 1,000,001 nodes
print(repr(gb.verify._simpson(lambda t: 1.0 / (1.0 + t**2), -100.0, 100.0,
                              1_000_000)))
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


def _lift_blocks(n, family="scalar_trig"):
    """The block system lift.lifted_column solves for a base grid of n nodes
    and slab half-width 1: q = 4 modes at n = 9, q = 3 at n = 7."""
    grid = build_grid(2, 1.0, n)
    solve_blocks, captured = sparse.solve, []

    def capture(system, rhs, **kwargs):
        captured.append(system)
        return solve_blocks(system, rhs, **kwargs)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sparse, "solve", capture)
        lift.lifted_column(make_field(family, 2),
                           lift.build_slab(grid, 1.0), grid.center_index)
    return captured[0]


def test_galerkin_levels_match_dense_triple_product():
    systems = []
    for dim, n in ((2, 9), (3, 5)):
        g = build_grid(dim, 1.0, n)
        for fam in ("scalar_trig", "nonsym_skew"):
            systems.append(assemble(make_field(fam, dim), g))
            assert systems[-1].hierarchy[-1].shape == (1,) * dim
    # the mode axis of the lift block system is a batch axis: at q = 4 and
    # at odd q = 3 alike only the base axes (1, 2) coarsen, and P is the
    # identity along the modes; 5 rows for a symmetric field, 9 for
    # nonsym_skew
    blocks = [_lift_blocks(9), _lift_blocks(7), _lift_blocks(9, "diag_aniso"),
              _lift_blocks(9, "nonsym_skew"), _lift_blocks(7, "nonsym_skew")]
    assert [len(b.data) for b in blocks] == [5, 5, 5, 9, 9]
    assert [b.shape[0] for b in blocks] == [4, 3, 4, 4, 3]
    assert [b.stencil_axes for b in blocks] == [(1, 2)] * 5
    assert [b.coarse_axes for b in blocks] == [(1, 2)] * 5
    for b in blocks:
        b.cell = box_cell(b)
    # the float64 _galerkin chain holds the products to 1e-12; the stored
    # hierarchy is that chain rounded once to float32, level by level (the
    # lift block system's is summed from its factors' chains, and rounds to
    # the same float32 values here)
    for fine in systems + blocks:
        for stored in fine.hierarchy:
            coarse = sparse._galerkin(fine)
            assert stored.data.dtype == np.float32
            assert stored.shape == coarse.shape
            assert stored.data.tobytes() == \
                coarse.data.astype(np.float32).tobytes()
            P = np.ones((1, 1))
            for k, m in enumerate(fine.shape):
                P = np.kron(P, _interpolation(m) if k in fine.stencil_axes
                            else np.eye(m))
            expected = P.T @ fine.to_dense() @ P
            # P and P^T: the V-cycle's transfer steps, on fresh buffers
            y, bc = np.empty(fine.n_rows), np.empty(coarse.n_rows)
            pool = np.empty((2, (fine.n_rows + 1) // 2))
            xc = np.sin(np.arange(coarse.n_rows) + 1.0)
            sparse._run(sparse._prolong(fine, xc, y, pool))
            np.testing.assert_allclose(y, P @ xc, rtol=1e-14, atol=1e-14)
            x = np.cos(np.arange(fine.n_rows) + 1.0)
            sparse._run(sparse._restrict(fine, x, bc, pool))
            np.testing.assert_allclose(bc, P.T @ x, rtol=1e-14, atol=1e-14)
            assert validate(coarse) and validate(stored)
            assert coarse.symmetric == stored.symmetric == fine.symmetric
            np.testing.assert_allclose(coarse.to_dense(), expected,
                                       rtol=1e-12,
                                       atol=1e-14 * abs(expected).max())
            fine = coarse


def test_offsets_of_the_lift_block_system():
    blocks = _lift_blocks(9)
    assert blocks.shape == (4, 7, 7) and blocks.stencil_axes == (1, 2)
    # it stores the 5 in-plane offsets of the 27-point stencil from its
    # centre on, in its order
    forward = sparse.stencil_offsets(3)[13:]
    assert np.array_equal(blocks.offsets, forward[forward[:, 0] == 0])
    assert blocks.data.shape == (5, blocks.n_rows)
    x = np.sin(np.arange(blocks.n_rows) + 1.0)
    ref = blocks.to_dense() @ x
    np.testing.assert_allclose(matvec(blocks, x), ref, rtol=0,
                               atol=1e-14 * np.abs(ref).max())
    # the coarsest level (4, 1, 1) has 5 rows, and only its centre row has
    # an on-grid coupling; its shifts repeat out of order, and the last is
    # still the largest
    coarsest = blocks.hierarchy[-1]
    assert coarsest.shape == (4, 1, 1) and coarsest.data.shape == (5, 4)
    assert coarsest.data[0].all() and not coarsest.data[1:].any()
    assert coarsest.nnz == 4
    assert np.any(np.diff(coarsest.shifts) <= 0)
    assert coarsest.shifts[-1] == np.abs(coarsest.shifts).max()


@pytest.mark.parametrize("family", ["scalar_trig", "nonsym_skew"])
def test_block_system_is_the_27_row_operator(family):
    # the lift block system (5 rows if symmetric, else 9) against the
    # 27-point stencil (14 or 27 rows) of the same rows with zeros at the
    # offsets that leave the base plane
    blocks = _lift_blocks(9, family)
    rows = sparse.stored_rows(3, blocks.symmetric)
    assert len(blocks.data) == sparse.stored_rows(2, blocks.symmetric)
    in_plane = sparse.stencil_offsets(3)[27 - rows:, 0] == 0
    data = np.zeros((rows, blocks.n_rows))
    data[in_plane] = blocks.data
    full = SparseSystem(blocks.shape, data, blocks.symmetric)
    full.cell = box_cell(full)
    assert validate(blocks) and validate(full)
    x = np.random.default_rng(4).standard_normal(blocks.n_rows)
    x[::3] = -0.0
    assert matvec(blocks, x).tobytes() == matvec(full, x).tobytes()
    dense = blocks.to_dense()
    assert np.array_equal(dense, full.to_dense())
    # block diagonal over the modes, with blocks mu_k K_x + lambda_k M_x
    grid = build_grid(2, 1.0, 9)
    _, lam, mu = lift.sine_modes(lift.build_slab(grid, 1.0))
    k_x = assemble(make_field(family, 2), grid).to_dense()
    m_x = lift.mass_2d(grid).to_dense()
    assert np.array_equal(dense, np.kron(np.diag(mu), k_x)
                          + np.kron(np.diag(lam), m_x))
    # q = 4 coarsens no mode axis in either layout: the same solve
    rhs = np.sin(np.arange(blocks.n_rows) + 1.0)
    u, info = solve(blocks, rhs)
    u27, info27 = solve(full, rhs)
    assert u.tobytes() == u27.tobytes() and info == info27


@pytest.mark.parametrize("family,rows", [("scalar_trig", 5),
                                         ("nonsym_skew", 9)])
def test_smoother_of_the_lift_block_system_and_its_levels(family, rows):
    # l1-Jacobi weights over a batch axis: THETA over the row sums of |K|,
    # on the block system and on each level (in float64 to 1e-14, and in
    # its stored float32 to a few float32 units)
    blocks = _lift_blocks(9, family)
    assert len(blocks.data) == rows and blocks.stencil_axes == (1, 2)
    for level in (blocks,) + blocks.hierarchy:
        l1 = np.abs(level.to_dense()).sum(axis=1)
        wide = SparseSystem(level.shape, level.data.astype(np.float64),
                            level.symmetric, level.stencil_axes)
        np.testing.assert_allclose(wide.smoother, sparse.THETA / l1,
                                   rtol=1e-14)
        assert level.smoother.dtype == level.data.dtype
        np.testing.assert_allclose(level.smoother, sparse.THETA / l1,
                                   rtol=4 * np.finfo(level.data.dtype).eps)
    # the coarsest level (4, 1, 1) couples nothing off the centre: its
    # weights are bitwise THETA over the centre row, in float32
    coarsest = blocks.hierarchy[-1]
    assert coarsest.shape == (4, 1, 1)
    centre = np.abs(coarsest.data[coarsest.centre])
    assert coarsest.smoother.tobytes() == \
        (np.float32(sparse.THETA) / centre).tobytes()


def test_matvec_over_an_all_zero_row_is_bitwise_the_full_loop():
    rng = np.random.default_rng(3)
    g = build_grid(2, 1.0, 9)
    K = unsymmetric(assemble(make_field("identity", 2), g))
    data = rng.standard_normal(K.data.shape) * K._on_grid()
    data[4] = 1.0 + np.abs(data[4])
    data[2] = 0.0  # offset (-1, 1) couples nothing
    system = SparseSystem(K.shape, data, False)
    assert validate(system)
    x = rng.standard_normal(system.n_rows)
    x[::5] = -0.0
    assert matvec(system, x).tobytes() == _full_loop(system, x).tobytes()


def _full_loop(system, x):
    """The unblocked matvec over every stencil row, zero or not, in the full
    layout; a non-centre row of a symmetric stencil is followed by its
    transpose, y_i += K_{i-o,i} x_{i-o} for the nodes with i - o >= 0."""
    n, pad = system.n_rows, system.shifts[-1]
    xp = np.zeros(n + 2 * pad)
    xp[pad:pad + n] = x
    y = np.zeros(n)
    for k, (row, s) in enumerate(zip(system.expanded(), system.shifts)):
        y += row * xp[pad + s:pad + s + n]
        if system.symmetric and k != system.centre:
            lo, hi = max(s, 0), min(n, n + s)
            y[lo:hi] += row[lo - s:hi - s] * x[lo - s:hi - s]
    return y


def _random_stencil(shape, rng, stencil_axes=None, symmetric=False):
    """A stencil with random entries at every on-grid coupling along
    ``stencil_axes`` (default: every axis) of its stored rows: nonsymmetric,
    or symmetric with the transposes of the rows after the centre."""
    c = len(shape) if stencil_axes is None else len(stencil_axes)
    system = SparseSystem(shape, np.zeros((sparse.stored_rows(c, symmetric),
                                           np.prod(shape))),
                          symmetric, stencil_axes)
    data = rng.standard_normal(system.data.shape) * system._on_grid()
    centre = system.centre
    data[centre] = 1.0 + np.abs(data[centre])
    return SparseSystem(shape, data, symmetric, stencil_axes)


@pytest.mark.parametrize("block", [1, 3, 100])
def test_blocked_matvec_seams_are_bitwise_the_full_loop(monkeypatch, block):
    rng = np.random.default_rng(5)
    blocks = _lift_blocks(9)
    # the 5-row lift block system and its coarsest level (4, 1, 1), which
    # has length-1 axes and shifts that repeat out of order, in the 9-row
    # layout and as a 27-point stencil, nonsymmetric and symmetric
    coarsest = blocks.hierarchy[-1]
    assert blocks.data.shape[0] == 5
    systems = [_random_stencil((7, 7, 7), rng), blocks,
               _random_stencil((7, 7, 7), rng, symmetric=True)]
    for symmetric in (False, True):
        systems += [_random_stencil(coarsest.shape, rng,
                                    coarsest.stencil_axes, symmetric),
                    _random_stencil(coarsest.shape, rng, None, symmetric)]
    default = [len(system._plan) for system in systems]
    # 1: a seam after every node; 3 and 100: a partial last block on each
    monkeypatch.setattr(sparse, "_BLOCK", block)
    for system, steps in zip(systems, default):
        # a system builds its plan once, so only a fresh one runs the block
        system = dataclasses.replace(system)
        assert (len(system._plan) > steps) == (system.n_rows > block)
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


# (dim, R, n, family, block): a block of at most p node planes makes
# assemble store a slab of one period p
SLABS = [(2, 1.0, 17, "scalar_trig", 8 * 15),
         (2, 1.0, 17, "nonsym_skew", 8 * 15),
         (3, 1.0, 9, "scalar_trig", 4 * 7 ** 2),
         (3, 1.0, 9, "nonsym_skew", 4 * 7 ** 2),
         # h = 1/3: odd period 3, so the Galerkin product wraps at p_c = p
         (2, 3.0, 19, "scalar_trig", 3 * 17),
         # p_c = 3 is not below the 2 coarse planes: widened before Galerkin
         (2, 1.0, 7, "scalar_trig", 3 * 5),
         # an 8-plane slab of 120 nodes covers a block of 75: matvec runs 4
         # blocks, where the full layout of 225 nodes runs 3
         (2, 1.0, 17, "scalar_trig", 75)]


def _layout_results(K, g):
    x = np.random.default_rng(7).standard_normal(K.n_rows)
    x[::4] = -0.0
    u, info = solve(K, load_delta(g, g.center_index + 1))
    return ([matvec(K, x).tobytes(), K.diagonal().tobytes(),
             K.single.smoother.tobytes(), K.to_dense().tobytes(),
             u.tobytes(), info]
            + [(lv.shape, lv.period, lv.expanded().tobytes(),
                lv.smoother.tobytes()) for lv in K.hierarchy])


@pytest.mark.parametrize("dim,R,n,family,block", SLABS)
def test_slab_is_bitwise_the_full_layout(monkeypatch, dim, R, n, family,
                                         block):
    g = build_grid(dim, R, n)
    f = make_field(family, dim)
    full = assemble(f, g)
    assert full.period == full.shape[0]
    # l1-Jacobi weights: THETA over the row sums of |K| over on-grid couplings
    l1 = np.abs(full.to_dense()).sum(axis=1)
    np.testing.assert_allclose(full.smoother, sparse.THETA / l1, rtol=1e-14)
    expected = _layout_results(full, g)
    monkeypatch.setattr(sparse, "_BLOCK", block)
    slab = assemble(f, g)
    assert slab.period < slab.shape[0]
    assert slab.period == mesh.cell_period(g)
    assert len(slab.data) == sparse.stored_rows(dim, full.symmetric)
    assert validate(slab)
    assert slab.expanded().tobytes() == full.data.tobytes()
    # the coarse levels are tiled from their cells in both layouts (none is
    # a slab here): their periods are compared too
    assert _layout_results(slab, g) == expected


# (dim, R, n, family, block, planes): grids whose every stored level is
# checked against the box product of the reference chain; ``planes`` is the
# number of node planes that the first coarse level stores (a slab at 3D
# n = 129, p = 8: 12 of 63)
CELL_PRODUCTS = [(3, 2.0, 65, "scalar_trig", None, 31),
                 (3, 2.0, 65, "diag_aniso", None, 31),
                 (3, 8.0, 129, "scalar_trig", None, 12),
                 (2, 4.0, 129, "scalar_trig", None, 63),
                 (2, 4.0, 129, "nonsym_skew", None, 63),
                 (2, 4.0, 257, "scalar_trig", None, 127),
                 (2, 4.0, 257, "nonsym_skew", None, 127),
                 # no period fits the box: the padded box is the cell
                 (2, 1.5, 65, "scalar_trig", None, 31),
                 (2, 1.5, 65, "nonsym_skew", None, 31),
                 (3, 1.5, 33, "scalar_trig", None, 15),
                 # odd p = 3 on a 3-plane slab: p_c = 3, above the coarse m
                 (2, 3.0, 19, "scalar_trig", 3 * 17, 8),
                 (2, 1.0, 7, "scalar_trig", 3 * 5, 2)]


@pytest.mark.parametrize("dim,R,n,family,block,planes", CELL_PRODUCTS)
def test_cell_levels_are_bitwise_the_box_product(monkeypatch, dim, R, n,
                                                 family, block, planes):
    g = build_grid(dim, R, n)
    if block:
        monkeypatch.setattr(sparse, "_BLOCK", block)
    K = assemble(make_field(family, dim), g)
    assert K.hierarchy[0].period == planes
    chain = list(sparse._chain(K))
    assert all(level.cell is not None and validate(level) for level in chain)
    reference = [level.single for level in galerkin_chain(K)]
    assert [(lv.shape, lv.expanded().tobytes(), lv.smoother.tobytes())
            for lv in K.hierarchy] == \
        [(lv.shape, lv.data.tobytes(), lv.smoother.tobytes())
         for lv in reference]


def _check_half_layout(K, monkeypatch):
    """A symmetric system in the half layout: exactly symmetric, its matvec
    is its dense matrix's, bitwise the unblocked loop at every block seam,
    and its smoother is THETA over the row sums of |K|."""
    assert K.symmetric and validate(K)
    assert len(K.data) == (3 ** len(K.stencil_axes) + 1) // 2
    dense = K.to_dense()
    assert np.array_equal(dense, dense.T)
    rng = np.random.default_rng(8)
    x = rng.standard_normal(K.n_rows)
    x[::3] = -0.0
    ref = dense @ x
    assert np.abs(matvec(K, x) - ref).max() <= 1e-14 * np.abs(ref).max()
    np.testing.assert_allclose(K.smoother,
                               sparse.THETA / np.abs(dense).sum(axis=1),
                               rtol=1e-14)
    # 1: a seam after every node; 3 and 100: transposes that read across a
    # block's start, and across a slab seam into the slab before it; a
    # system builds its plan once, so each block runs on a fresh one
    steps = len(K._plan)
    for block in (1, 3, 100):
        monkeypatch.setattr(sparse, "_BLOCK", block)
        fresh = dataclasses.replace(K)
        assert len(fresh._plan) > steps
        assert matvec(fresh, x).tobytes() == _full_loop(K, x).tobytes()


@pytest.mark.parametrize("family", ["identity", "scalar_trig", "diag_aniso"])
@pytest.mark.parametrize("dim,n,block", [(2, 17, None), (2, 17, 8 * 15),
                                         (3, 9, None), (3, 9, 4 * 7 ** 2)])
def test_symmetric_stencil_stores_the_centre_and_forward_rows(
        monkeypatch, family, dim, n, block):
    # a block of p node planes makes assemble store a p-plane slab
    g = build_grid(dim, 1.0, n)
    if block:
        monkeypatch.setattr(sparse, "_BLOCK", block)
    K = assemble(make_field(family, dim), g)
    assert (K.period < K.shape[0]) == bool(block)
    assert np.array_equal(K.offsets, sparse.stencil_offsets(dim)[
        (3 ** dim - 1) // 2:])
    _check_half_layout(K, monkeypatch)
    for level in K.hierarchy:
        assert len(level.data) == len(K.data) and level.symmetric


@pytest.mark.parametrize("family", ["identity", "scalar_trig"])
def test_lift_block_system_stores_the_centre_and_forward_rows(monkeypatch,
                                                               family):
    blocks = _lift_blocks(9, family)
    assert blocks.data.shape == (5, blocks.n_rows)
    _check_half_layout(blocks, monkeypatch)


def test_row_count_follows_the_symmetric_flag():
    # a nonsymmetric system keeps all 3^c rows at every level
    for dim, n in ((2, 17), (3, 9)):
        g = build_grid(dim, 1.0, n)
        K = assemble(make_field("nonsym_skew", dim), g)
        S = assemble(make_field("scalar_trig", dim), g)
        assert not K.symmetric and len(K.data) == 3 ** dim
        assert [len(lv.data) for lv in K.hierarchy] == \
            [3 ** dim] * len(K.hierarchy)
        with pytest.raises(ConfigError, match="stores"):
            SparseSystem(K.shape, K.data, True)
        with pytest.raises(ConfigError, match="stores"):
            SparseSystem(S.shape, S.data, False)
    blocks = _lift_blocks(9, "nonsym_skew")
    assert not blocks.symmetric and blocks.data.shape == (9, blocks.n_rows)
    with pytest.raises(ConfigError, match="stores"):
        SparseSystem(blocks.shape, blocks.data, True, blocks.stencil_axes)


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
    # the 14 rows of a symmetric 27-point stencil, 16 planes of 63 x 63 nodes
    assert K.data.shape == (14, 63504)


@pytest.mark.parametrize("p,shape,planes", [
    (16, (63, 63, 63), 16), (8, (63, 63, 63), 16),
    # no slab of 2D n = 129 short of the whole axis covers _BLOCK nodes
    (16, (127, 127), 127),
    # 160 planes of 255 nodes: the first multiple of 32 that covers _BLOCK
    (32, (255, 255), 160),
    # 3D R = 8, n = 129: one period, 8 planes of 127^2 nodes
    (8, (127, 127, 127), 8)])
def test_slab_planes_are_the_fewest_periods_covering_a_block(p, shape,
                                                             planes):
    assert sparse.slab_planes(p, shape) == planes


def test_non_contiguous_stencil_data_rejected(monkeypatch):
    g = build_grid(3, 1.0, 9)
    f = make_field("scalar_trig", 3)
    rows, (p, *_) = assemble(f, g).cell
    tile = np.arange(7) % p
    strided = rows.reshape((len(rows),) + (p,) * 3)[
        (slice(None),) + np.ix_(tile, tile, tile)].reshape(len(rows), -1)
    assert not strided.flags["C_CONTIGUOUS"]
    with pytest.raises(ConfigError, match="C-contiguous"):
        SparseSystem((7, 7, 7), strided, True)
    # the producers of stencil data pass: assembly, Galerkin levels (the slab
    # wrap and widening among them) and the lift block system
    monkeypatch.setattr(sparse, "_BLOCK", 4 * 7 ** 2)
    assert assemble(f, g).hierarchy
    assert _lift_blocks(9).hierarchy


def test_stencil_data_of_partial_or_surplus_planes_rejected():
    # a 7 x 7 grid has planes of 7 nodes: 50 is not whole planes, and 100
    # nodes would be 14 planes, where the grid has 7
    for nodes in (50, 100):
        with pytest.raises(ConfigError, match="whole node planes"):
            SparseSystem((7, 7), np.ones((5, nodes)), True)
    assert SparseSystem((7, 7), np.ones((5, 49)), True).period == 7
    assert SparseSystem((7, 7), np.ones((5, 7)), True).period == 1


def test_malformed_stencil_axes_rejected():
    # reversed, repeated, off the grid and none: not distinct ascending axes
    for axes in ((2, 1), (1, 1), (1, 5), ()):
        with pytest.raises(ConfigError, match="stencil axes"):
            SparseSystem((3, 5, 5), np.ones((5, 75)), True, axes)
    assert SparseSystem((3, 5, 5), np.ones((5, 75)), True,
                        (1, 2)).offsets[:, 0].tolist() == [0] * 5


def test_nnz_counts_the_on_grid_couplings_of_the_coupled_rows():
    g3, g2 = build_grid(3, 1.0, 9), build_grid(2, 1.0, 17)
    blocks = _lift_blocks(9)
    systems = [assemble(make_field("scalar_trig", 3), g3),
               assemble(make_field("nonsym_skew", 2), g2), blocks,
               blocks.hierarchy[-1]]
    for system in systems:
        # a symmetric stencil's couplings are those of all its 3^c rows
        assert system.nnz == unsymmetric(system)._on_grid().sum()
    # the lift block system's 9 in-plane rows bill 4 modes of 7 x 7 nodes;
    # on its coarsest level (4, 1, 1) only the centre row is on the grid
    assert [s.nnz for s in systems] == [19 ** 3, 43 ** 2, 4 * 19 ** 2, 4]


def test_a_system_without_a_cell_does_not_coarsen(monkeypatch):
    # a hand-built system whose axis coarsens has no Galerkin level, and
    # solve refuses it before any iteration; one that does not coarsen
    # needs no cell
    def iterated(*args):
        pytest.fail("solve iterated on a system without a cell")
    monkeypatch.setattr(sparse, "_cg", iterated)
    monkeypatch.setattr(sparse, "_bicgstab", iterated)
    data = np.array([[2.0] * 7, [-1.0] * 6 + [0.0]])
    K = SparseSystem((7,), data, True)
    assert K.cell is None and K.coarse_axes == (0,)
    with pytest.raises(ConfigError, match="cell"):
        sparse._galerkin(K)
    with pytest.raises(ConfigError, match="cell"):
        solve(K, np.ones(7))
    monkeypatch.undo()
    K2 = SparseSystem((2,), np.array([[2.0, 2.0], [-1.0, 0.0]]), True)
    assert K2.cell is None and K2.hierarchy == ()
    u, _ = solve(K2, np.ones(2))
    np.testing.assert_allclose(u, [1.0, 1.0], rtol=1e-10)


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
# V-cycle
ACCEPTANCE_SOLVES = [((3, 2.0, 65, "scalar_trig"), 7),
                     ((3, 1.0, 33, "nonsym_skew"), 4),
                     ((2, 4.0, 129, "scalar_trig"), 7)]


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
    assert counts == [7, 7]


@pytest.mark.parametrize("params,iterations", [((1, 1, 20, 0.1, 0.1, 5), 29),
                                               ((1, 1, 5, 0.1, 0.1, 1), 14)])
def test_anisotropic_coefficient_converges(params, iterations):
    # a 20:1 (5:1) diagonal A: damped Jacobi at omega = 0.6 raised
    # ConvergenceError after 120 iterations (took 35); l1-Jacobi contracts
    # for any coercive A
    g = build_grid(3, 1.0, 33)
    K = assemble(make_field("diag_aniso", 3, params), g)
    rhs = load_delta(g, g.center_index)
    u, info = solve(K, rhs)
    assert info.iterations == iterations
    assert np.linalg.norm(matvec(K, u) - rhs) <= 1e-10 * np.linalg.norm(rhs)


@pytest.mark.parametrize("family", ["scalar_trig", "nonsym_skew"])
def test_vcycle_is_float32_and_krylov_float64(monkeypatch, family):
    # every array the V-cycle's steps read or write is float32, and each
    # ufunc step computes in float32 under numpy 1.24's value-based casting
    # and numpy 2's NEP 50 alike: no Python float may widen the cycle
    g = build_grid(3, 1.0, 9)
    K = assemble(make_field(family, 3), g)
    recurrence = "_cg" if K.symmetric else "_bicgstab"
    original, product = getattr(sparse, recurrence), sparse._Workspace.product
    spaces, products = [], []

    def keep(ws, r, *args):
        spaces.append(ws)
        return original(ws, r, *args)

    def counted(ws, i):
        products.append(i)
        return product(ws, i)
    monkeypatch.setattr(sparse, recurrence, keep)
    monkeypatch.setattr(sparse._Workspace, "product", counted)
    u, info = solve(K, load_delta(g, g.center_index + 1))
    assert u.dtype == np.float64 and len(spaces) == 1
    ws = spaces[0]
    steps, b, x = ws.cycle

    def arrays(steps):
        return [a for _, args in steps for a in args
                if isinstance(a, np.ndarray)]
    assert {a.dtype for a in arrays(steps) + [b, x]} == {np.dtype(np.float32)}
    for f, args in steps:
        if isinstance(f, np.ufunc):
            assert f(*args[:-1]).dtype == np.float32, f
    krylov = ws.x + ws.y + [a for s in ws.steps for a in arrays(s)]
    assert {a.dtype for a in krylov} == {np.dtype(np.float64)}
    assert all(a.base is not None for a in ws.x)    # inside padded inputs
    # CG: one K-product per iteration and the true-residual re-check;
    # BiCGStab: at most two per iteration and the re-check
    if K.symmetric:
        assert len(products) == info.iterations + 1
    else:
        assert info.iterations + 1 <= len(products) <= 2 * info.iterations + 1
    levels = (K.single,) + K.hierarchy
    assert [lv.smoother.dtype for lv in levels] == [np.float32] * len(levels)
    assert "smoother" not in K.__dict__    # no float64 V-cycle ran


def test_vcycle_scaling_is_exact():
    g = build_grid(3, 1.0, 9)
    K = assemble(make_field("scalar_trig", 3), g)
    cycle = sparse._cycle((K.single,) + K.hierarchy)

    def vcycle(b):
        return sparse._vcycle(cycle, b, np.empty(K.n_rows))
    b = np.sin(np.arange(K.n_rows) + 1.0)
    tiny = b * 2.0 ** -160
    assert not tiny.astype(np.float32).any()    # a plain cast flushes to 0
    first = vcycle(b)
    assert vcycle(tiny).tobytes() == (first * 2.0 ** -160).tobytes()
    assert not vcycle(np.zeros(K.n_rows)).any()
    # each cycle overwrites every buffer it reads: a reused cycle is bitwise
    # one on fresh buffers
    assert vcycle(b).tobytes() == first.tobytes()


def test_single_copy_is_the_float32_rounding():
    blocks = _lift_blocks(9)
    single = blocks.single
    assert single.data.dtype == np.float32 and single.shape == blocks.shape
    assert single.stencil_axes == blocks.stencil_axes
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
    data = np.zeros((2, n))
    data[0] = 1.0  # the identity, without a dense 4097 x 4097 copy
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
            off_grid[-1, -1] = 1.0  # the last node's (1, ..., 1) neighbour
            for broken in (K.data[:, 1:], off_grid, -K.data):
                with pytest.raises(ConfigError):
                    validate(SparseSystem(K.shape, broken, K.symmetric))
            # a positive diagonal entry on the grid that is not its cell
            # row; 2D n = 9 tiles a period of 4, and 3D n = 5 one of 2
            assert K.cell[1] == (4 if dim == 2 else 2,) * dim
            drifted = K.data.copy()
            drifted[K.centre, 0] *= 2.0
            with pytest.raises(ConfigError, match="cell"):
                validate(dataclasses.replace(K, data=drifted))


@pytest.mark.parametrize("shape", [(1,), (2,), (5,), (1, 4), (2, 3),
                                   (3, 1, 2), (2, 2, 5)])
def test_zero_faces_leaves_exactly_the_on_grid_couplings(shape):
    # in the 3^d rows of a nonsymmetric stencil and the half of a symmetric
    d = len(shape)
    for symmetric in (False, True):
        rows = sparse.stored_rows(d, symmetric)
        data = 1.0 + np.random.default_rng(5).random((rows,) + shape)
        system = SparseSystem(shape, data.reshape(rows, -1), symmetric)
        sparse.zero_faces(data, system.offsets, range(d))
        assert np.array_equal(data.reshape(rows, -1) != 0.0,
                              system._on_grid())
        assert not np.signbit(data).any()


def test_zero_faces_skips_an_axis_sliced_to_the_centre():
    # the lift block's layout: axis 0 is a batch axis, every stored offset
    # is 0 along it, and no face along it is zeroed
    shape = (4, 3, 2)
    for rows, symmetric in ((9, False), (5, True)):
        system = SparseSystem(shape, np.zeros((rows, 24)), symmetric, (1, 2))
        assert not system.offsets[:, 0].any()
        data = 1.0 + np.random.default_rng(6).random((rows,) + shape)
        sparse.zero_faces(data, system.offsets, range(3))
        assert np.array_equal(data.reshape(rows, -1) != 0.0,
                              system._on_grid())
