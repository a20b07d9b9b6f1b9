"""3^d stencil operators and multigrid-preconditioned Krylov solvers.

An operator on a grid of interior nodes is stored as its stencil: one
coefficient per (neighbour offset, node).  Conjugate gradients (symmetric
case) and BiCGStab (otherwise) are preconditioned by one geometric multigrid
V-cycle: vertex-centred 2:1 coarsening, linear prolongation P, Galerkin
coarse stencils P^T K P (faithful to an oscillating coefficient; Alcouffe,
Brandt, Dendy & Painter, SIAM J. Sci. Stat. Comput. 2, 1981) and scaled
l1-Jacobi smoothing (Baker, Falgout, Kolev & Yang, SIAM J. Sci. Comput. 33,
2011): node i is weighted THETA / sum_j |K_ij| over its on-grid couplings,
the row sum (|K| 1)_i that matvec's own multiply-adds give.
For symmetric K, M = diag(sum_j |K_ij|) has M - K >= 0, so the eigenvalues
of THETA M^-1 K lie in (0, THETA]: with THETA < 2 every sweep contracts for
any coercive A, however anisotropic, and the V-cycle stays SPD for CG.  On
a row whose off-diagonal couplings are nonpositive and sum to -K_ii (an
interior row of the Laplacian) the weight is the damped Jacobi
THETA / 2 / K_ii = 0.8 / K_ii.  The hierarchy is built once per system and
cached on it.
The V-cycle runs in float32 inside float64 Krylov (mixed-precision
multigrid; Goddeke, Strzodka & Turek, IJPEDS 22, 2007): the coarse levels
and the ``single`` copy of the fine stencil are float32, while CG, BiCGStab,
their matvecs with the float64 stencil and the true-residual re-check stay
float64, so the 1e-10 residual contract is unchanged.  A preconditioner
only needs to reduce the error, and a float32 smoothing matvec moves half
the bytes of a float64 one.  The V-cycle scales its float64 input by 2^-e,
e the exponent of max|b|, before rounding it to float32 and undoes that on
return; both scalings are exact, and a tiny residual (1e-46 at rel_tol =
1e-300) does not flush to zero in float32.  matvec and the smoother
weights follow the dtype of the data they are given.
Each solve runs on one workspace (``_Workspace``), dropped when it returns:
every V-cycle level keeps x inside its zero-padded matvec input, b, y and
one scratch pool, and CG keeps p inside a padded float64 input.  Every
multiply-add, transfer and smoother update is bound once to views of these
buffers as a ufunc with out=, so an iteration allocates nothing and slices
nothing, in the same operations and order as on fresh arrays: the results
are bitwise unchanged.  matvec binds the same steps to fresh buffers.
A symmetric stencil stores its centre row and the rows after it in offset
order, (3^c + 1) / 2 of the 3^c: row o of node i is K_{i, i+o}, and its
transpose K_{i+o, i} is the coupling of row -o, so matvec (and so the
smoother weights), ``nnz`` and ``to_dense`` apply each non-centre row
twice, and the operator is exactly symmetric.  A nonsymmetric stencil
stores all 3^c rows.
A stencil stores rows only over the axes it couples; the other axes are
batch axes (the mode axis of the lift block system), which are never padded
or coarsened, so a batch of uncoupled problems stores and cycles only the
rows of its c coupled axes.  ``batch_system`` builds such a system,
sum_t diag(w_t) (x) F_t, and sums each of its Galerkin levels from the
float64 levels of its factors F_t, so no Galerkin product runs over the
batch.
A matvec walks the nodes in blocks of _BLOCK, each block running the stored
rows in offset order, so a block's slices stay in a core's L2 cache while
every node sees the same operations in the same order as in one sweep: the
output is bitwise that of the unblocked loop, signed zeros included.  A
symmetric row's transpose is gathered, y_i += K_{i-o, i} x_{i-o}, so a
block writes only its own nodes.
Matvecs and inner products run in numpy's own fixed-order loops, never in
BLAS, so runs with identical inputs are bitwise reproducible at any BLAS
thread count.
Every stored layout is decided here; callers hand over rows.  ``tile``
lays one period cell over a box in a slab of ``period`` node planes along
axis 0 (see ``SparseSystem``), the fewest whole periods that cover _BLOCK
nodes (``slab_planes``), and keeps the cell: P^T K P of a periodic K is
periodic, so each Galerkin level is formed on the cell of the level above
and tiled alike; a system that coarsens needs a cell.  ``tile`` and
``batch_system`` each run ``check_stencil_fits`` once, first, on the rows
they allocate, as ``mesh`` does on the torus rows it assembles.
A slab's axis-0 face couplings meet the zero padding of x and add +-0,
which leaves y (never -0) bitwise unchanged, and a block never crosses a
slab seam, so matvec may run more blocks than over the full layout, with
the same output.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, ConvergenceError

# nodes per matvec block: its data, x, y and product slices take 1 MiB
_BLOCK = 1 << 15
# V(SWEEPS, SWEEPS) cycle with scaled l1-Jacobi smoothing
THETA = 1.6
SWEEPS = 2


class SolveInfo(NamedTuple):
    iterations: int
    residual: float


def stencil_offsets(d):
    """(3^d, d) neighbour offsets in {-1, 0, 1}^d, in C order.

    On a grid with at least two nodes per axis this is also the order of the
    linear index shifts: the centre sits at (3^d - 1) // 2, and offset k is
    the reflection of offset 3^d - 1 - k.
    """
    axes = [np.array([-1, 0, 1])] * d
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)


def stored_rows(c, symmetric):
    """Stencil rows a SparseSystem over c stencil axes stores: the centre
    and the (3^c - 1) / 2 rows after it when symmetric, else all 3^c."""
    return (3 ** c + 1) // 2 if symmetric else 3 ** c


@dataclass
class SparseSystem:
    """3^c-point stencil operator over the nodes of a grid of ``shape``.

    The stencil couples neighbours along its c ``stencil_axes`` (default:
    every axis); the other axes are batch axes, along which nodes are
    uncoupled: a batch axis holds no stencil rows, needs no padding and
    never coarsens.  ``data[k, i]`` couples node i (C order) to its
    neighbour at ``offsets[k]``, which is a row of ``stencil_offsets(c)``
    along the stencil axes and 0 along the batch axes: all 3^c of them, or,
    when ``symmetric``, the centre and the rows after it, whose transposes
    are the rows before it (``stored_rows``).  C-contiguous, ``data`` holds
    the first ``period`` node planes along axis 0, and node plane j uses
    plane j mod period.  Entries whose neighbour is off the grid are exactly
    zero, except the periodic axis-0 face couplings of a slab
    (period < shape[0]).  The diagonal (centre row) is positive (coercivity
    of the discrete form).  A system laid out by ``tile`` keeps its
    ``cell``, (rows, p): the stored rows of its period cell, unzeroed, and
    the period p per axis, so that node j reads row j mod p of ``rows``.
    """

    shape: tuple
    data: np.ndarray
    symmetric: bool
    stencil_axes: tuple = None
    cell: tuple = None

    def __post_init__(self):
        if self.stencil_axes is None:
            self.stencil_axes = tuple(range(len(self.shape)))
        axes, d = self.stencil_axes, len(self.shape)
        if not axes or list(axes) != sorted(set(axes) & set(range(d))):
            raise ConfigError(f"stencil axes {axes} are not distinct "
                              f"ascending axes of {self.shape}")
        if not self.data.flags["C_CONTIGUOUS"]:
            raise ConfigError("stencil data must be C-contiguous")
        rows = stored_rows(len(self.stencil_axes), self.symmetric)
        if self.data.ndim != 2 or len(self.data) != rows:
            raise ConfigError(f"a {'' if self.symmetric else 'non'}symmetric "
                              f"stencil stores {rows} rows, got "
                              f"{self.data.shape}")
        q, rest = divmod(self.data.shape[1], math.prod(self.shape[1:]))
        if rest or not 1 <= q <= self.shape[0]:
            raise ConfigError(f"stencil data of {self.data.shape[1]} nodes "
                              f"is not whole node planes of {self.shape}")

    @cached_property
    def offsets(self):
        """(rows, d) neighbour offset of each stored stencil row: the last
        ``len(data)`` rows of stencil_offsets(c) along the stencil axes, 0
        along the batch axes."""
        c = len(self.stencil_axes)
        offsets = np.zeros((len(self.data), len(self.shape)), int)
        offsets[:, list(self.stencil_axes)] = stencil_offsets(c)[
            3 ** c - len(self.data):]
        return offsets

    @property
    def centre(self):
        """Stored row of the diagonal: the first of a symmetric stencil."""
        return 0 if self.symmetric else (len(self.data) - 1) // 2

    @property
    def coarse_axes(self):
        """Stencil axes that coarsen 2:1 (m -> (m - 1) / 2): odd interior
        count m >= 3.  Batch axes never coarsen."""
        return tuple(k for k in self.stencil_axes
                     if self.shape[k] >= 3 and self.shape[k] % 2 == 1)

    @property
    def coarse_shape(self):
        """Node shape of the Galerkin level below."""
        return tuple((m - 1) // 2 if k in self.coarse_axes else m
                     for k, m in enumerate(self.shape))

    @property
    def n_rows(self):
        return math.prod(self.shape)

    @property
    def period(self):
        return self.data.shape[-1] // math.prod(self.shape[1:])

    @cached_property
    def nnz(self):
        """On-grid couplings of the stored rows: prod(m - |o|) per offset o,
        twice for a symmetric non-centre row (o and -o), which is
        prod(3m - 2) over the stencil axes times the batch size."""
        times = 1 + (self.symmetric & self.offsets.any(axis=1))
        return int((np.prod(np.subtract(self.shape, np.abs(self.offsets)),
                            axis=1) * times).sum())

    @cached_property
    def hierarchy(self):
        """Galerkin coarse levels P^T K P in float32, coarsest last: the
        float64 levels of ``_chain``, each ``tile``d from its period cell
        (a slab wherever ``slab_planes`` gives one) and rounded once; only
        the rounded levels stay.  Empty when no stencil axis coarsens: the
        preconditioner is then l1-Jacobi smoothing alone.  ``batch_system``
        sets it on the systems it builds and on their factors from the
        factors' chains."""
        return tuple(level.single for level in _chain(self))

    @cached_property
    def single(self):
        """float32 copy of the stencil: the V-cycle's fine level, and the
        stored form of a coarse level."""
        return SparseSystem(self.shape, self.data.astype(np.float32),
                            self.symmetric, self.stencil_axes)

    @cached_property
    def smoother(self):
        """Scaled l1-Jacobi weights THETA / sum_j |K_ij| in the stencil's
        dtype, the sum over the on-grid couplings j of node i (Baker,
        Falgout, Kolev & Yang, SIAM J. Sci. Comput. 33, 2011).

        The sums are |K| 1: matvec's multiply-adds (``_plan``) on |row| and
        a zero-padded vector of ones, so a slab's periodic axis-0 face
        couplings meet the padding, and the weights are bitwise those of the
        full layout.
        """
        n, pad = self.n_rows, int(self.shifts[-1])
        ones = np.zeros(n + 2 * pad, self.data.dtype)
        ones[pad:pad + n] = 1.0
        w = np.zeros(n, self.data.dtype)
        for ys, row, xs in self._plan:
            w[ys] += np.abs(row) * ones[xs]
        return np.divide(THETA, w, out=w)

    @cached_property
    def _plan(self):
        """``matvec``'s multiply-adds y[ys] += row * xp[xs], built once per
        system (``row`` a view of the stencil, xp x padded by the largest
        shift): per block (_BLOCK nodes at a time, restarted at each slab
        seam), per stored row k in offset order, y_i += K_{i,i+o} x_{i+o},
        then for a non-centre row of a symmetric stencil its transpose
        y_i += K_{i-o,i} x_{i-o}, K_{i-o,i} read at node i - o modulo the
        stored nodes (in at most two pieces); nodes i < o get nothing."""
        n, size = self.n_rows, self.data.shape[1]
        shifts = self.shifts.tolist()
        pad = shifts[-1]
        steps = []
        blocks = ((a, min(a + _BLOCK, seam + size, n))
                  for seam in range(0, n, size)
                  for a in range(seam, min(seam + size, n), _BLOCK))
        for a, b in blocks:
            for k in range(len(self.data)):
                s = shifts[k]
                steps.append((slice(a, b),
                              self.data[k, a % size:a % size + b - a],
                              slice(pad + a + s, pad + b + s)))
                if self.symmetric and k != self.centre:
                    lo = max(a - s, 0)    # sources t = i - o of the block
                    cut = min(b - s, (lo // size + 1) * size)
                    for t0, t1 in ((lo, cut), (cut, b - s)):
                        if t0 < t1:
                            d0 = t0 % size
                            steps.append((slice(t0 + s, t1 + s),
                                          self.data[k, d0:d0 + t1 - t0],
                                          slice(pad + t0, pad + t1)))
        return tuple(steps)

    @cached_property
    def shifts(self):
        """Linear index shift of each stencil offset; not increasing on a grid
        with a length-1 axis, like a lift hierarchy's (q, 1, 1).  The last,
        of offset 1 along every stencil axis, sums their strides (all >= 1):
        the largest."""
        d = len(self.shape)
        strides = [int(np.prod(self.shape[k + 1:])) for k in range(d)]
        return self.offsets @ np.array(strides)

    def _on_grid(self):
        """(rows, N) mask: the neighbour at offset k of node i is on the
        grid."""
        inside = np.pad(np.ones(self.shape, dtype=bool), 1)
        views = ([slice(1 + o, 1 + o + m) for o, m in zip(off, self.shape)]
                 for off in self.offsets)
        return np.array([inside[tuple(v)].ravel() for v in views])

    def expanded(self):
        """``data`` in the full layout: node plane j reads plane j mod
        period, and the axis-0 face couplings of a slab become exactly zero."""
        p, rows = self.period, len(self.data)
        if p == self.shape[0]:
            return self.data
        box = self.data.reshape(rows, p, -1).take(
            np.arange(self.shape[0]) % p, axis=1)
        zero_faces(box.reshape((rows,) + self.shape), self.offsets, (0,))
        return box.reshape(rows, -1)

    def full_rows(self):
        """All 3^c rows in the full layout: ``expanded()``, with the rows
        before the centre of a symmetric stencil rebuilt (``_unfold``)."""
        box = self.expanded()
        if not self.symmetric:
            return box
        return _unfold(box.reshape((len(box),) + self.shape),
                       self.offsets).reshape(2 * len(box) - 1, -1)

    def diagonal(self):
        """The centre row, which never leaves the grid, over every plane."""
        p = self.period
        return self.data[self.centre].reshape(p, -1).take(
            np.arange(self.shape[0]) % p, axis=0).ravel()

    def to_dense(self):
        dense = np.zeros((self.n_rows, self.n_rows))
        k, i = np.nonzero(self._on_grid())
        j, values = i + self.shifts[k], self.expanded()[k, i]
        dense[i, j] = values
        if self.symmetric:
            dense[j, i] = values
        return dense


def zero_faces(st, offsets, axes):
    """Set the couplings of ``st``, stencil rows of shape (len(offsets),) +
    node shape with the neighbour offsets ``offsets``, that leave the grid
    along ``axes`` (offset -1 of the first node, +1 of the last) to exactly
    0.0: a multiply by a mask could leave -0.0.  Along a batch axis every
    offset is 0 and nothing is zeroed."""
    for ax in axes:
        for step, end in ((-1, 0), (1, -1)):
            st[(offsets[:, ax] == step,) + _along(ax, end)] = 0.0


def _unfold(st, offsets):
    """All 2 r - 1 stencil rows, in offset order, of the r rows ``st`` of a
    symmetric stencil (shape (r,) + node shape, offsets ``offsets``, the
    centre first): row -o of node i is the transpose K_{i, i-o} = row o of
    node i - o, and 0.0 where i - o is off the grid (``zero_faces``)."""
    r = len(st)
    full = np.empty((2 * r - 1,) + st.shape[1:], st.dtype)
    full[r - 1:] = st
    for k in range(1, r):
        src = tuple(slice(max(-o, 0), m - max(o, 0))
                    for o, m in zip(offsets[k], st.shape[1:]))
        dst = tuple(slice(max(o, 0), m + min(o, 0))
                    for o, m in zip(offsets[k], st.shape[1:]))
        full[(r - 1 - k,) + dst] = st[(k,) + src]
    zero_faces(full[:r - 1], -offsets[:0:-1], range(st.ndim - 1))
    return full


def slab_planes(p, shape):
    """Node planes along axis 0 to store of a stencil with period p there:
    the smallest multiple of p whose slab covers _BLOCK nodes, else the
    whole axis."""
    m, plane = shape[0], math.prod(shape[1:])
    return next((q for q in range(p, m, p) if q * plane >= _BLOCK), m)


def tile(shape, p, symmetric, cell, stencil_axes=None):
    """The SparseSystem over ``shape`` whose node j takes row j mod p of
    ``cell()``, the rows of one period cell (p per axis) laid out as
    ``data`` on a grid of shape p: all 3^c, or only the ``stored_rows``,
    which it keeps as ``cell``.  It stores them on ``slab_planes`` node
    planes, calls ``cell`` only once ``check_stencil_fits`` has passed
    those, and zeroes the couplings off the grid except a slab's axis-0
    faces."""
    d, p = len(shape), tuple(p)
    q = slab_planes(p[0], shape)
    rows = stored_rows(len(stencil_axes or shape), symmetric)
    check_stencil_fits(rows, q * math.prod(shape[1:]))
    stored = cell()[-rows:]
    index = np.ix_(*[np.arange(m) % k for m, k in zip((q,) + shape[1:], p)])
    system = SparseSystem(shape, stored.take(
        np.ravel_multi_index(index, p).ravel(), axis=1), symmetric,
        stencil_axes, (stored, p))
    zero_faces(system.data.reshape((rows, q) + shape[1:]),
               system.offsets, range(0 if q == shape[0] else 1, d))
    return system


def physical_memory():
    """Bytes of physical memory of the machine."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def check_stencil_fits(rows, nodes):
    """Reject ``rows`` stored rows over ``nodes`` nodes whose float64 data
    and float32 copy (12 bytes per entry) exceed physical memory; each
    allocation of stored rows runs it once, first."""
    need = 12 * rows * nodes
    have = physical_memory()
    if need > have:
        raise ConfigError(f"the stencil and its float32 copy need "
                          f"{need / 2**30:.1f} GiB, more than the "
                          f"{have / 2**30:.1f} GiB of memory")


def matvec(system, x):
    """y = K x: a shifted multiply-add per stored row, in offset order, over
    a zero-padded x, one block (at most _BLOCK nodes of one slab) at a time
    (``_product`` on fresh buffers).

    A read that wraps past a grid face meets an exactly-zero stencil entry.
    """
    x = np.asarray(x)
    n = system.n_rows
    if x.shape != (n,):
        raise ConfigError(f"matvec length mismatch: {x.shape} vs {n}")
    dtype = np.result_type(system.data, x)
    xp, middle = _padded(system, dtype)
    middle[...] = x
    y = np.empty(n, dtype)
    _run(_product(system, xp, y, np.empty(min(n, _BLOCK), dtype)))
    return y


def _padded(system, dtype):
    """A zero-padded matvec input of ``system`` and its middle, x."""
    n, pad = system.n_rows, int(system.shifts[-1])
    xp = np.zeros(n + 2 * pad, dtype)
    return xp, xp[pad:pad + n]


def _product(system, xp, y, tmp):
    """Steps of y = K x, x the middle of the zero-padded xp: ``_plan``'s
    multiply-adds y[ys] += row * xp[xs], each product formed in tmp."""
    steps = [(y.fill, (0.0,))]
    for ys, row, xs in system._plan:
        yb, t = y[ys], tmp[:len(row)]
        steps += [(np.multiply, (row, xp[xs], t)), (np.add, (yb, t, yb))]
    return steps


def _run(steps):
    """Run bound steps, each a callable and its arguments (out= last)."""
    for f, args in steps:
        f(*args)


def _along(ax, index):
    return (slice(None),) * ax + (index,)


def _parts(x, ax):
    """The odd nodes of axis ax and the even ones before and after each."""
    return [x[_along(ax, slice(a, b, 2))]
            for a, b in ((1, None), (0, -1), (2, None))]


def _prolong(fine, xc, y, pool):
    """Steps of y = P xc, linear interpolation from the coarse grid of the
    system ``fine``: coarse node J of a coarsened axis sits on fine node
    2J + 1 and spreads weight 1/2 to fine nodes 2J and 2J + 2; P is the
    identity along the other axes.  One coarsened axis at a time, x goes to
    the odd nodes, which are halved and added to their even neighbours.
    The last axis writes y; the intermediates alternate between the two
    rows of ``pool``, (2, (n + 1) // 2) for n fine nodes, which none
    exceeds, and the halves take the row of x once x is copied."""
    x, axes = xc.reshape(fine.coarse_shape), fine.coarse_axes
    steps = [] if axes else [(np.copyto, (y, xc))]
    for i, ax in enumerate(axes):
        shape = list(x.shape)
        shape[ax] = fine.shape[ax]
        up = (y if i == len(axes) - 1 else
              pool[i % 2][:math.prod(shape)]).reshape(shape)
        half = pool[1 - i % 2][:x.size].reshape(x.shape)
        odd, left, right = _parts(up, ax)
        steps += [(np.copyto, (odd, x)), (np.multiply, (0.5, odd, half)),
                  (up[_along(ax, slice(0, None, 2))].fill, (0.0,)),
                  (np.add, (left, half, left)), (np.add, (right, half, right))]
        x = up
    return steps


def _restrict(fine, x, bc, pool):
    """Steps of bc = P^T x, one coarsened axis at a time: odd + 0.5 (left +
    right).  The last axis writes bc, the others alternate between the rows
    of ``pool`` as in ``_prolong``."""
    x, axes = x.reshape(fine.shape), fine.coarse_axes
    steps = [] if axes else [(np.copyto, (bc, x.ravel()))]
    for i, ax in enumerate(axes):
        shape = list(x.shape)
        shape[ax] = (shape[ax] - 1) // 2
        t = (bc if i == len(axes) - 1 else
             pool[i % 2][:math.prod(shape)]).reshape(shape)
        odd, left, right = _parts(x, ax)
        steps += [(np.add, (left, right, t)), (np.multiply, (0.5, t, t)),
                  (np.add, (odd, t, t))]
        x = t
    return steps


# The 1D Galerkin product along one axis.  P spreads coarse node J over fine
# nodes 2J+1+s with the weights _ROW_WEIGHTS; fine node 2J+1+t is spread from
# coarse nodes J+A with the weights _COLUMN_WEIGHTS[t].  So the fine coupling
# of row 2J+1+s to its neighbour at offset a lands on coarse offset A with
# weight w_row * w_col, t = s + a.
_ROW_WEIGHTS = ((-1, 0.5), (0, 1.0), (1, 0.5))
_COLUMN_WEIGHTS = {-2: ((-1, 1.0),), -1: ((-1, 0.5), (0, 0.5)),
                   0: ((0, 1.0),), 1: ((0, 0.5), (1, 0.5)), 2: ((1, 1.0),)}


def _galerkin(system):
    """The coarse stencil P^T K P, formed on the period cell and ``tile``d.

    P is the tensor product of 1D interpolations, so P^T K P is the 1D
    Galerkin product along each coarsened axis in turn; the offsets and
    periods along the other axes ride along, and the coarse level keeps the
    stencil axes and stored rows of the fine one; a system without a
    ``cell`` raises ConfigError.  Coarse node J sits on fine node 2J + 1, so
    a coarsened period p gives p_c = p (odd) or p / 2 (even), formed from
    fine nodes 0..2 p_c modulo p; a symmetric stencil is unfolded with one
    more node at each end, then dropped, so the coarse one is exactly
    symmetric.  A coarse coupling on the grid reads only fine ones on the
    grid, so a wrapped value lands only where ``tile`` zeroes."""
    if system.cell is None:
        raise ConfigError("a system without a cell has no Galerkin level")
    d, axes, kept = len(system.shape), system.coarse_axes, len(system.data)
    cell, p = system.cell
    pc = [q if q % 2 or k not in axes else q // 2 for k, q in enumerate(p)]
    h = int(system.symmetric)
    take = [np.arange(-h, (2 * c + 1 if k in axes else c) + h) % q
            for k, (q, c) in enumerate(zip(p, pc))]
    st = cell.reshape((kept,) + tuple(p))[np.ix_(np.arange(kept), *take)]
    if system.symmetric:
        st = _unfold(st, system.offsets)[(slice(None),) + (slice(1, -1),) * d]
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
    return tile(system.coarse_shape, pc, system.symmetric,
                lambda: st.reshape(math.prod(dims), -1), system.stencil_axes)


def _chain(system):
    """The float64 Galerkin levels below ``system``, coarsest last, each
    ``_galerkin`` of the level above."""
    while system.coarse_axes:
        system = _galerkin(system)
        yield system


def batch_system(terms):
    """The block system sum_t diag(w_t) (x) F_t, with its hierarchy.

    ``terms`` are pairs (w_t, F_t) of q weights and a SparseSystem; all F_t
    couple every axis of one grid, and the system has shape (q,) + grid
    with batch axis 0.  Row k of block b is sum_t w_t[b] F_t[k] in term
    order, read in the full layout: the factors' stored rows
    (``expanded``) when all are symmetric, else all 3^c (``full_rows``).
    ``check_stencil_fits`` passes the block rows before anything is built.
    P coarsens only the factor axes, so each Galerkin level is the same sum
    over the float64 ``_chain`` levels of the factors (tiled, and read in
    the full layout alike), rounded once to float32; no product runs over
    the q blocks, whose chain would give the same levels up to round-off.
    A factor without a ``hierarchy`` gets its chain rounded to float32 as
    one, so a later solve with the factor alone builds no chain."""
    weights, factors = zip(*terms)
    q, symmetric = len(weights[0]), all(f.symmetric for f in factors)
    check_stencil_fits(stored_rows(len(factors[0].shape), symmetric),
                       q * factors[0].n_rows)

    def combine(levels):
        rows = [f.expanded() if symmetric else f.full_rows() for f in levels]
        data = np.empty((len(rows[0]), q, levels[0].n_rows))
        for k, row in enumerate(data):
            np.multiply.outer(weights[0], rows[0][k], out=row)
            for w, r in zip(weights[1:], rows[1:]):
                row += np.multiply.outer(w, r[k])
        shape = (q,) + tuple(levels[0].shape)
        return SparseSystem(shape, data.reshape(len(data), -1), symmetric,
                            tuple(range(1, len(shape))))
    chains = [tuple(_chain(f)) for f in factors]
    for f, chain in zip(factors, chains):
        if "hierarchy" not in f.__dict__:
            f.hierarchy = tuple(level.single for level in chain)
    system = combine(factors)
    system.hierarchy = tuple(combine(levels).single for levels in zip(*chains))
    return system


def _cycle(levels):
    """One V(SWEEPS, SWEEPS) cycle for K x = b from x = 0 over ``levels``
    (finest first), in their dtype, as (steps, b, x) of the finest level.

    Each level holds x inside its zero-padded matvec input, b, y and one
    pool for its matvec products and transfer intermediates.  A sweep is
    y = K x, y = w (b - y), x += y; the residual goes to y, is restricted
    into b below, and the correction is prolonged into y.  A one-node level
    is solved exactly; a level that cannot coarsen further is only smoothed.
    """
    bufs = []
    for system in levels:
        n, dtype = system.n_rows, system.data.dtype
        bufs.append(_padded(system, dtype) + tuple(np.empty((2, n), dtype))
                    + (np.empty((2, (n + 1) // 2), dtype),))
    down, up = [], []    # the steps before and after the coarsest level
    for k, (system, (xp, x, b, y, pool)) in enumerate(zip(levels, bufs)):
        if system.n_rows == 1:
            down.append((np.divide, (b, system.data[system.centre], x)))
            break
        w, kx = system.smoother, _product(system, xp, y, pool.ravel())
        sweep = kx + [(np.subtract, (b, y, y)), (np.multiply, (w, y, y)),
                      (np.add, (x, y, x))]
        down += [(np.multiply, (w, b, x))] + sweep * (SWEEPS - 1)
        post = sweep * SWEEPS
        if k + 1 < len(levels):
            _, xc, bc, _, _ = bufs[k + 1]
            down += (kx + [(np.subtract, (b, y, y))]
                     + _restrict(system, y, bc, pool))
            post = (_prolong(system, xc, y, pool) + [(np.add, (x, y, x))]
                    + post)
        up = post + up
    return down + up, bufs[0][2], bufs[0][1]


def _vcycle(cycle, r, z):
    """z = one float32 V-cycle (``cycle``, of ``_cycle``) for K z = r;
    float64 r and z.

    r is scaled by 2^-e, e the exponent of max|r|, as it is rounded to
    float32, and z by 2^e once widened: both are exact, so the cycle of
    r 2^-k is bitwise 2^-k times the cycle of r, and r = 0 gives z = 0.
    """
    steps, b, x = cycle
    e = int(np.frexp(max(r.max(), -r.min()))[1])
    np.ldexp(r, -e, out=b)
    _run(steps)
    np.copyto(z, x)
    return np.ldexp(z, e, out=z)


class _Workspace:
    """The buffers of one ``solve``: the float32 ``cycle`` of the fine
    level's ``single`` copy and its hierarchy, and ``inputs`` float64 vectors
    ``x[i]``, each the middle of a zero-padded input of K whose product
    ``product(i)`` writes into ``y[i]``; the products share one block."""

    def __init__(self, levels, inputs):
        system = levels[0]
        self.cycle = _cycle((system.single,) + levels[1:])
        pads = [_padded(system, np.float64) for _ in range(inputs)]
        self.x = [x for _, x in pads]
        self.y = list(np.empty((inputs, system.n_rows)))
        tmp = np.empty(min(system.n_rows, _BLOCK))
        self.steps = [_product(system, xp, y, tmp)
                      for (xp, _), y in zip(pads, self.y)]

    def product(self, i):
        _run(self.steps[i])
        return self.y[i]


def _dot(a, b):
    """Inner product in numpy's own fixed-order loop, not threaded BLAS."""
    return float(np.einsum("i,i->", a, b))


def _norm(a):
    return float(np.sqrt(_dot(a, a)))


def _coupled_length(system):
    """Longest stencil axis with more than one node, or 1."""
    return max((m for k, m in enumerate(system.shape)
                if k in system.stencil_axes and m > 1), default=1)


def _cg(ws, r, tol_abs, history, max_iter):
    """Preconditioned conjugate gradients for K e = r from e = 0, on the
    _Workspace ``ws`` and r, which it overwrites.

    Appends the recursive residual norm of each iteration to ``history`` and
    returns e once that norm meets tol_abs or the history is full.  p is
    ``ws.x[0]``, and the first z; K p, the later z and the update products
    share ``ws.y[0]``.
    """
    e, p, v = np.zeros_like(r), ws.x[0], ws.y[0]
    rz = _dot(r, _vcycle(ws.cycle, r, p))
    while len(history) < max_iter:
        alpha = rz / _dot(p, ws.product(0))
        np.subtract(r, np.multiply(alpha, v, out=v), out=r)
        np.add(e, np.multiply(alpha, p, out=v), out=e)
        history.append(_norm(r))
        if history[-1] <= tol_abs:
            break
        rz_new = _dot(r, _vcycle(ws.cycle, r, v))
        np.add(v, np.multiply(rz_new / rz, p, out=p), out=p)
        rz = rz_new
    return e


def _bicgstab(ws, r0, tol_abs, history, max_iter):
    """Preconditioned BiCGStab for K e = r0 from e = 0, shadow residual r0,
    on the _Workspace ``ws``.

    Same stopping rule as _cg, and it also returns at a breakdown
    (rho = 0, omega = 0 or t = 0; van der Vorst, SIAM J. Sci. Stat. Comput.
    13, 1992), leaving solve to restart from the true residual.  ph and sh
    are ``ws.x``, v = K ph is ``ws.y[0]``, and r shares ``ws.y[1]`` with
    t = K sh, which is formed once r is spent.
    """
    e, p, s = np.zeros_like(r0), np.zeros_like(r0), np.empty_like(r0)
    (ph, sh), (v, r) = ws.x, ws.y
    v.fill(0.0)
    np.copyto(r, r0)
    rho = alpha = omega = 1.0
    while len(history) < max_iter:
        rho_new = _dot(r0, r)
        if rho_new == 0.0 or omega == 0.0:
            break
        beta = (rho_new / rho) * (alpha / omega)
        rho = rho_new
        np.subtract(p, np.multiply(omega, v, out=v), out=p)
        np.add(r, np.multiply(beta, p, out=p), out=p)
        _vcycle(ws.cycle, p, ph)
        alpha = rho / _dot(r0, ws.product(0))
        np.subtract(r, np.multiply(alpha, v, out=s), out=s)
        tt = 0.0
        if _norm(s) > tol_abs:
            _vcycle(ws.cycle, s, sh)
            t = ws.product(1)
            tt = _dot(t, t)
        if tt == 0.0:    # s met the tolerance, or t = 0
            history.append(_norm(s))
            np.add(e, np.multiply(alpha, ph, out=ph), out=e)
            break
        omega = _dot(t, s) / tt
        np.add(np.multiply(alpha, ph, out=ph),
               np.multiply(omega, sh, out=sh), out=ph)
        np.add(e, ph, out=e)
        np.subtract(s, np.multiply(omega, t, out=t), out=r)
        history.append(_norm(r))
        if history[-1] <= tol_abs:
            break
    return e


def solve(system, rhs, rel_tol=1e-10, max_iter=None):
    """Multigrid-preconditioned CG (symmetric flag set) or BiCGStab.

    Returns (u, SolveInfo) with ||K u - rhs||_2 <= rel_tol ||rhs||_2, the
    bound re-checked with one extra matvec whenever the recursion stops; if
    it fails there (drift, or a BiCGStab breakdown), the recursion restarts
    from the true residual (residual replacement; van der Vorst & Ye, SIAM
    J. Sci. Comput. 22, 2000).  The default max_iter is 100 + 20 x the
    longest stencil axis of the coarsest level with more than one node:
    120 when the hierarchy reaches one node or leaves only batch axes, and
    growing with the part of the problem that multigrid leaves to
    smoothing.  Raises ConvergenceError (carrying the true residual and the
    recursive residual norm of every iteration, over all restarts) when
    max_iter is exhausted.
    An rhs not of shape (n_rows,), or not finite, raises ConfigError.  The
    solve runs on rhs 2^-e, e the exponent of max|rhs|, and scales u, the
    residual and the history back by 2^e: both scalings are exact, so the
    result is bitwise that of the unscaled solve wherever that one neither
    underflows nor overflows, and an rhs near either end of the float64
    range solves like any other.  When
    scaling back makes a normal entry of u subnormal or zero, u itself is
    re-checked (one more matvec, in the scaled domain) and ConvergenceError
    is raised if it misses the bound, as every u does at an rhs of 5e-324.
    """
    if not 0.0 < rel_tol < 1.0:
        raise ConfigError("rel_tol must lie in (0, 1)")
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape != (system.n_rows,):
        raise ConfigError(f"rhs shape {rhs.shape} does not match "
                          f"{system.n_rows} unknowns")
    peak = float(np.abs(rhs).max())    # nan or inf for any such entry
    if not math.isfinite(peak):
        raise ConfigError("rhs must be finite")
    if peak == 0.0:
        return np.zeros(system.n_rows), SolveInfo(0, 0.0)
    e = math.frexp(peak)[1]
    r = np.ldexp(rhs, -e)    # b, then each pass's true residual b - K x
    levels = (system,) + system.hierarchy
    if max_iter is None:
        max_iter = 100 + 20 * _coupled_length(levels[-1])
    res = _norm(r)
    tol_abs = rel_tol * res
    recurrence = _cg if system.symmetric else _bicgstab
    ws = _Workspace(levels, 1 if system.symmetric else 2)
    x, history = None, []
    why = f"in {max_iter} iterations"
    while len(history) < max_iter:
        # the first correction is x itself: 0 + e is e, as e holds no -0.0
        d = recurrence(ws, r, tol_abs, history, max_iter)
        x = d if x is None else np.add(x, d, out=x)
        np.copyto(ws.x[0], x)
        res = _norm(np.subtract(np.ldexp(rhs, -e, out=r), ws.product(0),
                                out=r))
        if res <= tol_abs:
            flushed = _flushes(x, e)
            u = np.ldexp(x, e, out=x)
            if flushed:
                res = _norm(np.ldexp(rhs, -e) - matvec(system,
                                                       np.ldexp(u, -e)))
                why = "once u is scaled back to subnormal float64"
            if res <= tol_abs:
                return u, SolveInfo(len(history), math.ldexp(res, e))
            break
    name = "CG" if system.symmetric else "BiCGStab"
    res = math.ldexp(res, e)
    raise ConvergenceError(
        f"{name} did not reach {rel_tol:g} {why} (residual {res:g})",
        residual=res, iterations=len(history),
        history=[math.ldexp(h, e) for h in history])


def _flushes(x, e):
    """Scaling x by 2^e makes one of its normal entries subnormal or zero."""
    if e >= 0:
        return False
    tiny = np.finfo(float).tiny
    a = np.abs(x)
    return bool(((a >= tiny) & (a < math.ldexp(tiny, -e))).any())
