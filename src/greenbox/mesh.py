"""Uniform box grids and Q1 finite-element assembly of -div(A grad u).

Grids are uniform tensor products on [-R, R]^d with homogeneous Dirichlet
boundary; the discrete operator is assembled from the weak form
K_ij = int (grad phi_i)^T A grad phi_j with multilinear nodal basis
functions and tensor 2-point Gauss quadrature.  Boundary nodes are
eliminated: each pair of local element corners adds a shifted sub-box of
element entries into one row of the 3^d interior-node stencil.

A is Z^d-periodic, so when p h is an integer the stencil row of an interior
node depends only on its index mod p: ``assemble`` tiles the rows of one
period cell (``cell_stencil``) over one period slab of the box.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import fields, sparse
from .errors import ConfigError, SourcePlacementError
from .sparse import SparseSystem, stencil_offsets

# 2-point Gauss nodes on the reference interval [0, 1]; exact for the
# bilinear basis with constant coefficients, O(h^2)-consistent for smooth A.
_GAUSS = (0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0))

# elements per assembly batch, rounded down to whole layers along axis 0; the
# batch temporaries set the peak memory of a large assembly
_BATCH = 1 << 14


@dataclass(frozen=True)
class BoxGrid:
    """Uniform grid with n nodes per axis on the box [-R, R]^d.

    n is odd so that the origin is exactly a grid node; spacing is
    h = 2R/(n-1).  Nodes are indexed in C order (last axis fastest), and
    boundary nodes are the ones with any axis index in {0, n-1}.
    """

    dim: int
    half_width: float
    n: int

    @property
    def h(self):
        return 2.0 * self.half_width / (self.n - 1)

    @property
    def shape(self):
        return (self.n,) * self.dim

    @property
    def n_nodes(self):
        return self.n**self.dim

    @property
    def n_interior(self):
        return (self.n - 2) ** self.dim

    @cached_property
    def axis(self):
        """Node coordinates along one axis; the center entry is exactly 0."""
        c = (self.n - 1) // 2
        return (np.arange(self.n) - c) * self.h

    @cached_property
    def node_coords(self):
        """(n_nodes, d) array of node coordinates in C order."""
        grids = np.meshgrid(*([self.axis] * self.dim), indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=-1)

    @property
    def center_index(self):
        c = (self.n - 1) // 2
        return int(np.ravel_multi_index((c,) * self.dim, self.shape))

    def index(self, multi):
        return int(np.ravel_multi_index(tuple(multi), self.shape))

    def multi(self, index):
        return np.unravel_index(index, self.shape)

    def coords(self, index):
        return self.axis[np.stack(self.multi(index), axis=-1)]

    def node_at(self, point, tol=1e-9):
        """Full index of the node at physical coordinates ``point``."""
        point = np.asarray(point, dtype=float)
        rel = (point + self.half_width * np.ones(self.dim)) / self.h
        multi = np.rint(rel).astype(int)
        if np.any(np.abs(rel - multi) > tol) or np.any(multi < 0) or np.any(multi >= self.n):
            raise ConfigError(f"point {point} is not a grid node")
        return self.index(multi)

    def distances(self, center):
        """Euclidean distance of every node (C order) from the point
        ``center``: the per-axis squares of ``axis - c_k``, summed in axis
        order by broadcasting, so no (n_nodes, d) array is built.  Bitwise
        ``np.linalg.norm(node_coords - center, axis=1)``."""
        squares = None
        for k, c in enumerate(center):
            term = (self.axis - c) ** 2
            term = term.reshape((-1,) + (1,) * (self.dim - 1 - k))
            squares = term if squares is None else squares + term
        return np.sqrt(squares, out=squares).ravel()

    def distances_from(self, index):
        """Euclidean distance of every node from the node ``index``."""
        return self.distances(self.coords(index))


def build_grid(d, R, n):
    """Validated BoxGrid constructor: n odd, n >= 5, R > 0."""
    if d not in (2, 3):
        raise ConfigError(f"dimension must be 2 or 3, got {d}")
    if R <= 0:
        raise ConfigError("half-width R must be positive")
    if n < 5 or n % 2 == 0:
        raise ConfigError(f"nodes per axis must be odd and >= 5, got {n}")
    return BoxGrid(d, float(R), int(n))


def even_steps(half_width, h):
    """2 half_width / h, which must be even so that boxes of spacing h nest."""
    steps = 2.0 * half_width / h
    if abs(steps - round(steps)) > 1e-9 or round(steps) % 2 != 0:
        raise ConfigError(
            f"half-width {half_width} is not a multiple of the spacing {h}")
    return int(round(steps))


def physical_memory():
    """Bytes of physical memory of the machine."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def check_stencil_fits(d, nodes):
    """Reject a 3^d stencil of ``nodes`` stored nodes whose float64 data and
    float32 copy (12 bytes per entry) exceed physical memory."""
    need = 12 * 3**d * nodes
    have = physical_memory()
    if need > have:
        raise ConfigError(f"the stencil and its float32 copy need "
                          f"{need / 2**30:.1f} GiB, more than the "
                          f"{have / 2**30:.1f} GiB of memory")


def _corner_offsets(d):
    """(2^d, d) array of local corner multi-offsets in C order."""
    return np.stack(np.meshgrid(*([np.array([0, 1])] * d), indexing="ij"),
                    axis=-1).reshape(-1, d)


def _reference_rules(d):
    """Tensor Gauss points and basis gradients on the reference cell [0,1]^d.

    Returns (xi, grad) with xi of shape (nq, d) and grad of shape
    (nq, d, 2^d): grad[q, k, m] = d phi_m / d xi_k at point q.
    """
    corners = _corner_offsets(d)
    xi = np.stack(np.meshgrid(*([np.array(_GAUSS)] * d), indexing="ij"),
                  axis=-1).reshape(-1, d)
    nq, m = xi.shape[0], corners.shape[0]
    grad = np.empty((nq, d, m))
    for j in range(m):
        # phi_j(xi) = prod_k (xi_k if corner else 1 - xi_k)
        factors = np.where(corners[j], xi, 1.0 - xi)  # (nq, d)
        for k in range(d):
            others = np.prod(np.delete(factors, k, axis=1), axis=1)
            grad[:, k, j] = (1.0 if corners[j, k] else -1.0) * others
    return xi, grad


def _assemble_axes(matrix_fn, axes, h, symmetric):
    """Interior-node stiffness matrix on a uniform tensor grid.

    ``axes`` holds per-axis node coordinates with common spacing ``h``;
    ``matrix_fn`` maps (M, d) points to (M, d, d) coefficients.  Elements
    come in batches of whole layers along axis 0.  Corner c_i of a batch's
    elements is a shifted sub-box of the nodes, so local corners (i, j) add
    one element sub-box into the stencil row of offset c_j - c_i, clipped to
    the elements with both corners interior.  The fixed order (batch, i, j)
    leaves the output dependent on nothing but the batch size.
    """
    d = len(axes)
    eshape = tuple(len(a) - 1 for a in axes)
    ishape = tuple(e - 1 for e in eshape)
    corners = _corner_offsets(d)
    m = corners.shape[0]
    xi, gref = _reference_rules(d)
    nq = xi.shape[0]
    off_id = {tuple(o): k for k, o in enumerate(stencil_offsets(d))}

    # quadrature contraction tensor: P[(q,k,l), (i,j)]
    pairs = np.einsum("qki,qlj->qklij", gref, gref).reshape(nq * d * d, m * m)
    scale = h ** (d - 2) / (2**d)

    data = np.zeros((3**d,) + ishape)
    step = max(1, _BATCH // math.prod(eshape[1:]))
    for a in range(0, eshape[0], step):
        start = np.array([a] + [0] * (d - 1))
        stop = np.array([min(a + step, eshape[0])] + list(eshape[1:]))
        lows = np.meshgrid(axes[0][a:stop[0]], *[x[:-1] for x in axes[1:]],
                           indexing="ij", sparse=True)
        qpts = np.stack(np.broadcast_arrays(
            *(low[..., None] + h * xi[:, k] for k, low in enumerate(lows))), axis=-1)
        amat = matrix_fn(qpts.reshape(-1, d)).reshape(-1, nq * d * d)
        elem = (amat @ pairs).reshape(qpts.shape[:d] + (m * m,))
        elem *= scale
        for i, ci in enumerate(corners):
            for j, cj in enumerate(corners):
                # elements e of the batch with e + c_i and e + c_j interior
                lo = np.maximum(1 - np.minimum(ci, cj), start)
                hi = np.minimum(np.array(eshape) - np.maximum(ci, cj), stop)
                if lo[0] >= hi[0]:
                    continue
                rows = tuple(slice(l + c - 1, u + c - 1)
                             for l, u, c in zip(lo, hi, ci))
                els = tuple(slice(l - s, u - s) for l, u, s in zip(lo, hi, start))
                data[(off_id[tuple(cj - ci)],) + rows] += elem[els + (i * m + j,)]

    return SparseSystem(ishape, data.reshape(3**d, -1), symmetric)


def cell_period(grid):
    """The smallest p <= n - 4 with p h an integer to 1e-12 (tiling treats
    p h as exact), or None."""
    cycles = grid.h * np.arange(1, grid.n - 3)
    hits = np.flatnonzero((np.abs(cycles - np.rint(cycles)) <= 1e-12)
                          & (np.rint(cycles) >= 1))
    return int(hits[0]) + 1 if hits.size else None


def cell_stencil(field, grid):
    """Period in nodes and stiffness rows of one period cell of the grid.

    p is ``cell_period(grid)``; a ``scalar_trig`` field with a non-integer
    frequency is not Z^d-periodic and is rejected.  The cell is
    ``grid.axis[:p + 4]`` along every axis: its interior rows 1..p see only
    cell nodes, so they are complete periodic rows.  Rolled by one node,
    they come back as ``rows`` of shape (3^d, p^d), laid out as
    ``SparseSystem.data`` on a (p,) * d grid, and box interior node j takes
    row j mod p on every axis.  When no p <= n - 4 exists, p is None and
    ``rows`` is the stencil of the whole box, of shape (3^d, (n - 2)^d).
    """
    if field.dim != grid.dim:
        raise ConfigError(
            f"field dimension {field.dim} does not match grid dimension {grid.dim}")
    if field.family == "scalar_trig" and not field.params[2].is_integer():
        raise ConfigError(f"scalar_trig freq must be an integer for a "
                          f"Z^d-periodic A, got {field.params[2]}")
    d, p = grid.dim, cell_period(grid)
    axis = grid.axis if p is None else grid.axis[:p + 4]
    system = _assemble_axes(lambda pts: fields.evaluate(field, pts),
                            [axis] * d, grid.h, fields.is_symmetric(field))
    if p is None:
        return None, system.data
    rows = system.data.reshape((3**d,) + system.shape)
    cell = rows[(slice(None),) + (slice(1, p + 1),) * d]
    return p, np.roll(cell, 1, axis=tuple(range(1, d + 1))).reshape(3**d, -1)


def assemble(field, grid):
    """Stiffness matrix of -div(A grad .) over the grid's interior nodes.

    Relies on A being Z^d-periodic: the rows of one period cell
    (``cell_stencil``) are tiled over ``sparse.slab_planes`` node planes
    along axis 0, and the couplings to nodes off the grid are set to exactly
    zero, except the axis-0 face couplings of a slab (see ``SparseSystem``).
    The stored planes and their float32 copy must fit in memory
    (``check_stencil_fits``) before anything is assembled.
    """
    d, m, p = grid.dim, grid.n - 2, cell_period(grid)
    q = m if p is None else sparse.slab_planes(p, (m,) * d)
    check_stencil_fits(d, q * m ** (d - 1))
    p, rows = cell_stencil(field, grid)
    symmetric = fields.is_symmetric(field)
    if p is None:
        return SparseSystem((m,) * d, rows, symmetric)
    # one gather into C order: interior node j reads cell row j mod p
    tile = [np.arange(q) % p] + [np.arange(m) % p] * (d - 1)
    cell_of = np.ravel_multi_index(np.ix_(*tile), (p,) * d).ravel()
    data = rows.take(cell_of, axis=1)
    sparse.zero_faces(data.reshape((3,) * d + (q,) + (m,) * (d - 1)),
                      range(0 if q == m else 1, d))
    return SparseSystem((m,) * d, data, symmetric)


def load_delta(grid, y):
    """Unit load at the interior node ``y`` (full node index).

    Against the nodal basis, int phi_i delta_y = phi_i(y) = delta_iy, so the
    discrete right-hand side is exactly a unit coordinate vector over the
    interior unknowns.
    """
    multi = np.array(grid.multi(y))
    if np.any((multi == 0) | (multi == grid.n - 1)):
        raise SourcePlacementError(
            f"source node {y} lies on the Dirichlet boundary")
    rhs = np.zeros((grid.n - 2,) * grid.dim)
    rhs[tuple(multi - 1)] = 1.0
    return rhs.ravel()


def expand_interior(grid, interior_values):
    """Embed an interior-node vector into a full-node vector (boundary zeros)."""
    shape = (grid.n - 2,) * grid.dim
    return np.pad(np.asarray(interior_values, dtype=float).reshape(shape),
                  1).ravel()


def gradient_field(values, grid):
    """Nodal gradients: Q1 element-center gradients, volume-averaged to nodes.

    ``values`` lives on all nodes (boundary included).  Exact for affine
    data; second-order accurate on smooth fields away from singularities.
    Returns an (n_nodes, d) array.
    """
    d, shape, h = grid.dim, grid.shape, grid.h
    v = np.asarray(values, dtype=float).reshape(shape)
    cell_grad = []
    for k in range(d):
        diff = (np.diff(v, axis=k)) / h
        # average the axis-k differences over the remaining corner pairs
        for j in range(d):
            if j == k:
                continue
            lo = [slice(None)] * d
            hi = [slice(None)] * d
            lo[j] = slice(0, -1)
            hi[j] = slice(1, None)
            diff = 0.5 * (diff[tuple(lo)] + diff[tuple(hi)])
        cell_grad.append(diff)  # shape: one less node per axis
    out = np.zeros(shape + (d,))
    for corner in _corner_offsets(d):
        sl = tuple(slice(c, c + s - 1) for c, s in zip(corner, shape))
        for k in range(d):
            out[sl + (k,)] += cell_grad[k]
    # cells meeting at a node: the product over axes of 1 at a face, else 2
    per_axis = np.full(grid.n, 2.0)
    per_axis[[0, -1]] = 1.0
    out /= math.prod(np.ix_(*[per_axis] * d))[..., None]
    return out.reshape(-1, d)
