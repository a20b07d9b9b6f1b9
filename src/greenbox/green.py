"""Discrete Green columns, domain growth, adjoints, and mixed derivatives."""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from . import fields, mesh, sparse
from .errors import ConfigError


@dataclass
class GreenColumn:
    """Nodal values of x -> G_h(x, y) for one source node y.

    ``values`` covers all grid nodes with zeros on the Dirichlet boundary.
    ``offset`` records the constant subtracted by normalize_2d (0 otherwise);
    ``iterations`` and ``residual`` (the final true residual norm
    ||K u - delta_y||_2) come from the solver.
    """

    grid: mesh.BoxGrid
    field: fields.PeriodicField
    source: int
    values: np.ndarray
    offset: float = 0.0
    iterations: int = 0
    residual: float = 0.0

    @property
    def source_coords(self):
        return self.grid.coords(self.source)

    def radii(self):
        return self.grid.distances_from(self.source)


def green_column(field, grid, y, *, system=None, rel_tol=1e-10, max_iter=None):
    """Solve K u = delta_y and extend by boundary zeros.

    With the nodal-delta load the solution approximates the continuum Green
    function directly (no h-dependent rescaling).  Pass a preassembled
    ``system`` to amortize assembly over many sources.
    """
    if system is None:
        system = mesh.assemble(field, grid)
    rhs = mesh.load_delta(grid, y)
    u, info = sparse.solve(system, rhs, rel_tol=rel_tol, max_iter=max_iter)
    return GreenColumn(grid=grid, field=field, source=y,
                       values=mesh.expand_interior(grid, u),
                       iterations=info.iterations, residual=info.residual)


def normalize_2d(col):
    """Fix the 2D additive constant by zero mean over the unit ball B_1(y).

    Subtracts the (volume-weighted, here uniform) node mean of the values
    over {|x - y| <= 1} and records it in ``offset``.  Idempotent up to
    round-off.
    """
    grid = col.grid
    if grid.dim != 2:
        raise ConfigError("normalize_2d applies to 2D grids only")
    yc = col.source_coords
    if np.any(np.abs(yc) + 1.0 > grid.half_width * (1 + 1e-12)):
        raise ConfigError("unit ball around the source is not inside the box")
    inside = col.radii() <= 1.0 + 1e-12
    m = float(col.values[inside].mean())
    return GreenColumn(grid=grid, field=col.field, source=col.source,
                       values=col.values - m, offset=col.offset + m,
                       iterations=col.iterations, residual=col.residual)


@dataclass
class GrowthReport:
    """Outcome of a nested-box growth experiment."""

    R_list: tuple
    columns: list
    worst_violation: float  # max of G_R - G_R' at shared nodes, or 0
    drifts: list = dc_field(default_factory=list)   # per consecutive pair
    sup_diffs: list = dc_field(default_factory=list)  # on the smallest box


def _restrict(values, grid_big, grid_small):
    """Values of a big-box column at the nodes of a nested smaller box."""
    shift = round((grid_big.half_width - grid_small.half_width) / grid_big.h)
    v = values.reshape(grid_big.shape)
    sl = tuple(slice(shift, shift + grid_small.n) for _ in range(grid_big.dim))
    return v[sl].reshape(-1)


def nested_grid(dim, R, h):
    """Box grid on [-R, R]^dim with spacing h, nested in every other such box.

    The node count must be odd so that the origin is a node and boxes of
    different R share their nodes; raises ConfigError unless 2R/h is an even
    integer (``mesh.even_steps``).
    """
    return mesh.build_grid(dim, R, mesh.even_steps(R, h) + 1)


def domain_growth(field, y_physical, R_list, h, *, rel_tol=1e-10):
    """Green columns on nested boxes [-R, R]^d sharing one spacing h.

    Reports how far the maximum-principle monotonicity G_{R'} >= G_R fails
    at the shared nodes.  Also reports, per consecutive pair, the median value
    drift near the source (the 2D log(R'/R) effect) and, on the smallest
    box, the sup of consecutive differences (the d=3 convergence indicator).
    """
    R_list = tuple(float(R) for R in R_list)
    if any(b <= a for a, b in zip(R_list, R_list[1:])):
        raise ConfigError("R_list must be strictly increasing")
    y_physical = np.asarray(y_physical, dtype=float)
    grids = [nested_grid(len(y_physical), R, h) for R in R_list]
    cols = []
    for grid in grids:
        cols.append(green_column(field, grid, grid.node_at(y_physical),
                                 rel_tol=rel_tol))

    worst = 0.0
    drifts = []
    sup_diffs = []
    small = grids[0]
    y_small = small.node_at(y_physical)
    near = small.distances_from(y_small) <= small.half_width / 4.0 + 1e-12
    prev_on_small = cols[0].values
    for a, b in zip(range(len(grids) - 1), range(1, len(grids))):
        vb = _restrict(cols[b].values, grids[b], grids[a])
        diff = vb - cols[a].values
        worst = max(worst, float(-(diff.min())))
        vb_small = _restrict(cols[b].values, grids[b], small)
        drifts.append(float(np.median((vb_small - prev_on_small)[near])))
        sup_diffs.append(float(np.abs(vb_small - prev_on_small).max()))
        prev_on_small = vb_small
    return GrowthReport(R_list=R_list, columns=cols, worst_violation=worst,
                        drifts=drifts, sup_diffs=sup_diffs)


def adjoint_column(field, grid, x, *, system=None, rel_tol=1e-10):
    """Green column of the adjoint operator -div(A^T grad .) with source x.

    Because the assembler uses identical quadrature points, the discrete
    adjoint Green matrix is the exact transpose: G_A(x, y) = G_{A^T}(y, x)
    up to solver tolerance.
    """
    adj = fields.transpose_field(field)
    if system is None:
        system = mesh.assemble(adj, grid)
    return green_column(adj, grid, x, system=system, rel_tol=rel_tol)


def mixed_derivative(field, grid, y, *, system=None, rel_tol=1e-10):
    """Tensor field grad_x grad_y G via central differences in the source.

    Costs d solves of dipole loads delta_{y+h e_j} - delta_{y-h e_j}: by
    linearity each gives the difference of the two shifted columns, with a
    residual of at most rel_tol sqrt(2) where two column solves allow
    2 rel_tol.  No solve runs when one of the 2d shifted sources is not
    interior.  Entry [n, i, j] holds d^2 G / dx_i dy_j at node n; meaningful
    for |x - y| >= 4h.
    """
    mesh.load_delta(grid, y)    # y first, so that its neighbours are nodes
    multi = np.array(grid.multi(y))
    sources = [[grid.index(multi + sgn * e) for sgn in (+1, -1)]
               for e in np.eye(grid.dim, dtype=int)]
    for source in sum(sources, []):
        mesh.load_delta(grid, source)
    if system is None:
        system = mesh.assemble(field, grid)
    out = np.zeros((grid.n_nodes, grid.dim, grid.dim))
    for j, (plus, minus) in enumerate(sources):
        rhs = mesh.load_delta(grid, plus)
        rhs -= mesh.load_delta(grid, minus)
        dipole = sparse.solve(system, rhs, rel_tol=rel_tol)[0]
        out[:, :, j] = mesh.gradient_field(
            mesh.expand_interior(grid, dipole) / (2.0 * grid.h), grid)
        del dipole    # one dipole column alive at a time
    return out
