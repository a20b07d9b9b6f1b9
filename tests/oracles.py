"""Test oracles: a dense direct solve, the stencil invariant check, the
box Galerkin product and the box cell of a hand-built system."""

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
    (3^c + 1) / 2 from the centre on when symmetric, only couplings
    along those axes can leave the grid (a batch axis has offset 0), and
    every on-grid coupling of node j of a tiled system is row j mod p of
    its ``cell``."""
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
    if system.cell is not None:
        rows, p = system.cell
        index = np.ix_(*[np.arange(m) % k for m, k in zip(system.shape, p)])
        tiled = rows[:, np.ravel_multi_index(index, p).ravel()]
        if np.any((tiled != system.expanded())[system._on_grid()]):
            raise ConfigError("an on-grid coupling is not its cell row")
    if not np.all(system.diagonal() > 0.0):
        raise ConfigError("nonpositive diagonal entry")
    return True


def box_cell(system):
    """A ``cell`` for a system that has none (hand-built, or a block
    system): its box padded by a zero node past each coarsened axis, a cell
    of period m + 1 there, which ``sparse._galerkin`` reads like any
    other."""
    d, axes, kept = len(system.shape), system.coarse_axes, len(system.data)
    cell = np.pad(system.expanded().reshape((kept,) + system.shape),
                  [(0, 0)] + [(0, int(k in axes)) for k in range(d)])
    return cell.reshape(kept, -1), cell.shape[1:]


def galerkin(system):
    """Reference coarse stencil P^T K P over the box, one coarsened axis at
    a time, returned in the full layout.  A slab with coarse period p_c (p,
    or p / 2 at even p) below the coarse axis 0 gives p_c coarse planes
    from fine planes 0..2 p_c read modulo p (and plane -1, whose rows
    unfold onto plane 0); any other system is widened to all 3^c rows of
    the full layout first."""
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
    dims = tuple(3 if k in system.stencil_axes else 1 for k in range(d))
    st = st.reshape(dims + st.shape[1:])
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


def galerkin_chain(system):
    """The reference float64 levels below ``system``, coarsest last."""
    while system.coarse_axes:
        system = galerkin(system)
        yield system
