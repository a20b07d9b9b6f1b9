"""Uniform box grids and Q1 finite-element assembly of -div(A grad u).

Grids are uniform tensor products on [-R, R]^d with homogeneous Dirichlet
boundary; the discrete operator is assembled from the weak form
K_ij = int (grad phi_i)^T A grad phi_j with multilinear nodal basis
functions and tensor 2-point Gauss quadrature.  Boundary nodes are
eliminated.

A is Z^d-periodic, so when p h is an integer the stencil row of an interior
node is its row on the torus of p nodes per axis.  ``assemble`` assembles
that torus, clipping nothing, and hands its rows to ``sparse.tile``, which
alone sets the couplings that leave the box to 0.0.  With no such p < n - 1,
the box is its own torus of n - 1 nodes, closed through its boundary node.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import fields, sparse
from .errors import ConfigError, SourcePlacementError

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
    """Validated BoxGrid constructor: n an odd integer >= 5, R finite and
    positive."""
    if d not in (2, 3):
        raise ConfigError(f"dimension must be 2 or 3, got {d}")
    if not (math.isfinite(R) and R > 0):
        raise ConfigError(f"half-width R must be finite and positive, got {R}")
    if not isinstance(n, numbers.Integral) or n < 5 or n % 2 == 0:
        raise ConfigError(
            f"nodes per axis must be an odd integer >= 5, got {n}")
    return BoxGrid(d, float(R), int(n))


def even_steps(half_width, h):
    """2 half_width / h, which must be even so that boxes of spacing h nest."""
    steps = 2.0 * half_width / h
    if not math.isfinite(steps):
        raise ConfigError(f"half-width {half_width} and spacing {h} must be "
                          "finite")
    if abs(steps - round(steps)) > 1e-9 or round(steps) % 2 != 0:
        raise ConfigError(
            f"half-width {half_width} is not a multiple of the spacing {h}")
    return int(round(steps))


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


def _torus_rows(matrix_fn, lows, h, symmetric):
    """Stored stiffness rows, (rows, prod p), of the torus of p =
    len(lows[k]) nodes along axis k, laid out as ``SparseSystem.data``.

    Element e spans torus nodes e and e + 1 mod p and has its lower corner
    at ``lows[k][e_k]``; ``matrix_fn`` maps (M, d) points to (M, d, d)
    coefficients.  Elements come in batches of whole layers along axis 0,
    and local corners (i, j) add the batch's element box, shifted by c_i
    mod p, into the row of offset c_j - c_i, so every element adds its full
    matrix.  ``check_stencil_fits`` runs before the rows are allocated.
    The fixed order (batch, i, j) leaves them dependent on nothing but the
    batch size.
    """
    d, p = len(lows), tuple(len(low) for low in lows)
    corners, (xi, gref) = _corner_offsets(d), _reference_rules(d)
    m, nq = len(corners), len(xi)
    rows = sparse.stored_rows(d, symmetric)
    sparse.check_stencil_fits(rows, math.prod(p))
    data = np.zeros((rows,) + p)
    off_id = {tuple(o): k for k, o in
              enumerate(sparse.stencil_offsets(d)[3 ** d - rows:])}

    # quadrature contraction tensor: P[(q,k,l), (i,j)]
    pairs = np.einsum("qki,qlj->qklij", gref, gref).reshape(nq * d * d, m * m)
    scale = h ** (d - 2) / (2**d)

    step = max(1, _BATCH // math.prod(p[1:]))
    for a in range(0, p[0], step):
        layers = np.arange(a, min(a + step, p[0]))
        low = np.meshgrid(lows[0][layers], *lows[1:], indexing="ij",
                          sparse=True)
        qpts = np.stack(np.broadcast_arrays(
            *(x[..., None] + h * xi[:, k] for k, x in enumerate(low))), axis=-1)
        amat = matrix_fn(qpts.reshape(-1, d)).reshape(-1, nq * d * d)
        elem = (amat @ pairs).reshape(qpts.shape[:d] + (m * m,))
        elem *= scale
        for i, ci in enumerate(corners):
            for j, cj in enumerate(corners):
                k = off_id.get(tuple(cj - ci))
                if k is not None:
                    data[k, (layers + ci[0]) % p[0]] += np.roll(
                        elem[..., i * m + j], tuple(ci[1:]),
                        tuple(range(1, d)))
    return data.reshape(rows, -1)


def assemble_tiled(matrix_fn, axes, h, p, symmetric):
    """The SparseSystem over the interior of the grid with node coordinates
    ``axes`` (spacing h), ``sparse.tile``d from ``_torus_rows`` at p[k]
    nodes along axis k.  Torus node t is grid node t + 1, so element
    e < p - 1 has its lower corner at grid node e + 1, and element p - 1 at
    grid node 0, one period before grid node p.  At p = n - 1 the torus is
    the box itself, closed through its boundary node p - 1, whose rows are
    never read; otherwise A must have period p h."""
    lows = [np.roll(x[:q], -1) for x, q in zip(axes, p)]
    return sparse.tile(tuple(len(x) - 2 for x in axes), tuple(p), symmetric,
                       lambda: _torus_rows(matrix_fn, lows, h, symmetric))


def cell_period(grid):
    """The smallest p < n - 1 with p h an integer to 1e-12 (tiling treats
    p h as exact), else n - 1, the box closed through its boundary node."""
    cycles = grid.h * np.arange(1, grid.n - 1)
    hits = np.flatnonzero((np.abs(cycles - np.rint(cycles)) <= 1e-12)
                          & (np.rint(cycles) >= 1))
    return int(hits[0]) + 1 if hits.size else grid.n - 1


def assemble(field, grid):
    """Stiffness matrix of -div(A grad .) over the grid's interior nodes.

    Relies on A being Z^d-periodic (a ``scalar_trig`` field with a
    non-integer frequency is not, and is rejected): the box is tiled from
    its torus of ``cell_period`` nodes per axis (``assemble_tiled``).
    """
    if field.dim != grid.dim:
        raise ConfigError(
            f"field dimension {field.dim} does not match grid dimension {grid.dim}")
    if field.family == "scalar_trig" and not field.params[2].is_integer():
        raise ConfigError(f"scalar_trig freq must be an integer for a "
                          f"Z^d-periodic A, got {field.params[2]}")
    return assemble_tiled(lambda pts: fields.evaluate(field, pts),
                          [grid.axis] * grid.dim, grid.h,
                          (cell_period(grid),) * grid.dim,
                          fields.is_symmetric(field))


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
    out = np.zeros(shape + (d,))
    for k in range(d):
        diff = np.diff(v, axis=k)
        diff /= h
        # average the axis-k differences over the remaining corner pairs
        for j in range(d):
            if j == k:
                continue
            lo = [slice(None)] * d
            hi = [slice(None)] * d
            lo[j] = slice(0, -1)
            hi[j] = slice(1, None)
            diff = diff[tuple(lo)] + diff[tuple(hi)]
            diff *= 0.5
        # one less node per axis: spread to the cell's corners
        for corner in _corner_offsets(d):
            sl = tuple(slice(c, c + s - 1) for c, s in zip(corner, shape))
            out[sl + (k,)] += diff
    # cells meeting at a node: the product over axes of 1 at a face, else 2
    per_axis = np.full(grid.n, 2.0)
    per_axis[[0, -1]] = 1.0
    out /= math.prod(np.ix_(*[per_axis] * d))[..., None]
    return out.reshape(-1, d)
