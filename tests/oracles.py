"""Test oracles: a dense direct solve, the stencil invariant check and the
Galerkin product over all coarse rows."""

import math

import numpy as np

from greenbox import ConfigError
from greenbox.sparse import (_COLUMN_WEIGHTS, _ROW_WEIGHTS, SparseSystem,
                             _unfold, stored_rows, zero_faces)

DENSE_CAP = 4096


def dense_solve(system, rhs):
    """Direct elimination with partial pivoting, capped at DENSE_CAP
    unknowns.  A numerically singular matrix raises
    numpy.linalg.LinAlgError.
    """
    if system.n_rows > DENSE_CAP:
        raise ConfigError(
            f"dense oracle capped at {DENSE_CAP} unknowns, got {system.n_rows}")
    return np.linalg.solve(system.to_dense(), np.asarray(rhs, dtype=float))


def validate(system):
    """Check the invariants of a SparseSystem; raises ConfigError on
    violation.  It holds 3^c rows over its c stencil axes, or the
    (3^c + 1) / 2 from the centre on when symmetric, and only couplings
    along those axes can leave the grid (a batch axis has offset 0)."""
    plane = math.prod(system.shape[1:])
    axes = system.stencil_axes
    rows = stored_rows(len(axes), system.symmetric)
    if (system.data.shape != (rows, system.period * plane)
            or list(axes) != sorted(set(axes))
            or not set(axes) <= set(range(len(system.shape)))
            or not 0 < system.period <= system.shape[0]):
        raise ConfigError(f"stencil data shape {system.data.shape} does not "
                          f"fit grid shape {tuple(system.shape)}")
    if np.any(system.expanded()[~system._on_grid()] != 0.0):
        raise ConfigError("nonzero coupling to a node off the grid")
    if not np.all(system.diagonal() > 0.0):
        raise ConfigError("nonpositive diagonal entry")
    return True


def galerkin_all_rows(system):
    """sparse._galerkin as it was before it skipped the coarse rows that a
    symmetric level drops: the 1D Galerkin product along each coarsened
    axis forms all 3 coarse offsets of every row, and the coarse level
    keeps the last ``len(system.data)`` rows (the forward half, when
    symmetric).  Each kept row sees the same operations in the same order
    as in _galerkin, so the two agree bitwise."""
    d = len(system.shape)
    axes = system.coarse_axes
    p, m = system.period, system.shape[0]
    pc = p if p % 2 else p // 2
    wrap = p < m and 0 in axes and pc < (m - 1) // 2
    kept = len(system.data)
    if wrap:
        planes = np.arange(-1 if system.symmetric else 0, 2 * pc + 1) % p
        st = system.data.reshape((kept, p) + tuple(system.shape[1:])).take(
            planes, axis=1)
        if system.symmetric:
            st = _unfold(st, system.offsets)[:, 1:]
    else:
        st = system.full_rows().reshape((-1,) + tuple(system.shape))
    st = st.reshape(system.stencil_dims + st.shape[1:])
    for ax in axes:
        fine = np.moveaxis(st, (ax, d + ax), (0, 1))
        mc = (fine.shape[1] - 1) // 2
        coarse = np.zeros((3, mc) + fine.shape[2:])
        for s, w_row in _ROW_WEIGHTS:
            rows = fine[:, 1 + s:2 * mc + 1 + s:2]
            for a in (-1, 0, 1):
                for A, w_col in _COLUMN_WEIGHTS[s + a]:
                    coarse[A + 1] += (w_row * w_col) * rows[a + 1]
        st = np.moveaxis(coarse, (0, 1), (ax, d + ax))
    nodes = st.shape[d:]
    st = st.reshape((-1,) + nodes)
    data = np.ascontiguousarray(st[len(st) - kept:])
    zero_faces(data, system.offsets, axes[1:] if wrap else axes)
    shape = ((m - 1) // 2,) + nodes[1:] if wrap else nodes
    level = SparseSystem(shape, data.reshape(kept, -1), system.symmetric,
                         system.stencil_axes)
    return SparseSystem(shape, level.expanded(), system.symmetric,
                        system.stencil_axes)
