"""3^d stencil operators and multigrid-preconditioned Krylov solvers.

An operator on a grid of interior nodes is stored as its stencil: one
coefficient per (neighbour offset, node).  Conjugate gradients (symmetric
case) and BiCGStab (otherwise) are preconditioned by one geometric multigrid
V-cycle: vertex-centred 2:1 coarsening, linear prolongation P, Galerkin
coarse stencils P^T K P (faithful to an oscillating coefficient; Alcouffe,
Brandt, Dendy & Painter, SIAM J. Sci. Stat. Comput. 2, 1981) and damped
Jacobi smoothing.  The hierarchy is built once per system and cached on it.
The V-cycle runs in float32 inside float64 Krylov (mixed-precision
multigrid; Goddeke, Strzodka & Turek, IJPEDS 22, 2007): the coarse levels
and the ``single`` copy of the fine stencil are float32, while CG, BiCGStab,
their matvecs with the float64 stencil and the true-residual re-check stay
float64, so the 1e-10 residual contract is unchanged.  A preconditioner
only needs to reduce the error, and a float32 smoothing matvec moves half
the bytes of a float64 one.  The V-cycle scales its float64 input by 2^-e,
e the exponent of max|b|, before rounding it to float32 and undoes that on
return; both scalings are exact, and a tiny residual (1e-46 at rel_tol =
1e-300) does not flush to zero in float32.  matvec, prolong, restrict and
the smoother weights follow the dtype of the data they are given.
Matvecs and Galerkin products skip stencil rows that are zero everywhere.
A matvec walks the nodes in blocks of _BLOCK, each block running the coupled
rows in offset order, so a block's slices stay in a core's L2 cache while
every node sees the same operations in the same order as in one sweep: the
output is bitwise that of the unblocked loop, signed zeros included.
Matvecs and inner products run in numpy's own fixed-order loops, never in
BLAS, so runs with identical inputs are bitwise reproducible at any BLAS
thread count.
A periodic stencil may store only a slab of ``period`` node planes along
axis 0 (see ``SparseSystem``); its axis-0 face couplings then meet the zero
padding of x and add +-0, which leaves y (never -0) bitwise unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, ConvergenceError

# nodes per matvec block: its data, x, y and product slices take 1 MiB
_BLOCK = 1 << 15
# V(SWEEPS, SWEEPS) cycle with damped Jacobi smoothing
OMEGA = 0.6
SWEEPS = 2


class SolveInfo(NamedTuple):
    iterations: int
    residual: float


class Couplings(NamedTuple):
    rows: tuple    # stencil rows holding a nonzero entry, in offset order
    axes: tuple    # per axis: one of those rows has a nonzero offset along it


def stencil_offsets(d):
    """(3^d, d) neighbour offsets in {-1, 0, 1}^d, in C order.

    On a grid with at least two nodes per axis this is also the order of the
    linear index shifts: the centre sits at (3^d - 1) // 2, and offset k is
    the reflection of offset 3^d - 1 - k.
    """
    axes = [np.array([-1, 0, 1])] * d
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)


@dataclass
class SparseSystem:
    """3^d-point stencil operator over the nodes of a grid of ``shape``.

    ``data[k, i]`` couples node i (C order) to its neighbour at
    ``stencil_offsets(d)[k]``; C-contiguous, it holds the first ``period``
    node planes along axis 0, and node plane j uses plane j mod period.
    Entries whose neighbour is off the grid are exactly zero, except the
    periodic axis-0 face couplings of a slab (period < shape[0]).  The
    diagonal (centre row) is positive (coercivity of the discrete form).
    The ``symmetric`` flag is set by the assembler from the coefficient
    family.
    """

    shape: tuple
    data: np.ndarray
    symmetric: bool

    def __post_init__(self):
        if not self.data.flags["C_CONTIGUOUS"]:
            raise ConfigError("stencil data must be C-contiguous")

    @property
    def n_rows(self):
        return math.prod(self.shape)

    @property
    def period(self):
        return self.data.shape[-1] // math.prod(self.shape[1:])

    @cached_property
    def nnz(self):
        """On-grid couplings of the coupled rows: prod(m - |o|) per offset o,
        which is prod(3m - 2) when every row couples."""
        offsets = stencil_offsets(len(self.shape))[list(self.couplings.rows)]
        return int(np.prod(np.subtract(self.shape, np.abs(offsets)),
                           axis=1).sum())

    @cached_property
    def hierarchy(self):
        """Galerkin coarse levels P^T K P in float32, coarsest last.

        Each level is built in float64 from the float64 level above and
        rounded once; only the rounded levels stay.  Empty when no axis
        coarsens: the preconditioner is then damped Jacobi smoothing alone.
        """
        levels = []
        level = self
        while coarse_axes(level.shape):
            level = _galerkin(level)
            levels.append(level.single)
        return tuple(levels)

    @cached_property
    def single(self):
        """float32 copy of the stencil: the V-cycle's fine level, and the
        stored form of a coarse level.  Only the coupled rows are written,
        so zero rows never become resident."""
        data = np.zeros(self.data.shape, dtype=np.float32)
        for k in self.couplings.rows:
            data[k] = self.data[k]
        copy = SparseSystem(self.shape, data, self.symmetric)
        copy.couplings = self.couplings    # no scan of the unwritten rows
        return copy

    @cached_property
    def smoother(self):
        """Damped Jacobi weights OMEGA / diag(K), in the stencil's dtype."""
        return OMEGA / self.diagonal()

    @cached_property
    def couplings(self):
        rows = tuple(k for k, row in enumerate(self.data) if row.any())
        offsets = stencil_offsets(len(self.shape))[list(rows)]
        return Couplings(rows, tuple(bool(c) for c in offsets.any(axis=0)))

    @cached_property
    def shifts(self):
        """Linear index shift of each stencil offset; not increasing on a grid
        with a length-1 axis, like a lift hierarchy's (q, 1, 1).  The last,
        of offset (1, ..., 1), sums the strides (all >= 1): the largest."""
        d = len(self.shape)
        strides = [int(np.prod(self.shape[k + 1:])) for k in range(d)]
        return stencil_offsets(d) @ np.array(strides)

    def _on_grid(self):
        """(3^d, N) mask: the neighbour at offset k of node i is on the grid."""
        inside = np.pad(np.ones(self.shape, dtype=bool), 1)
        views = ([slice(1 + o, 1 + o + m) for o, m in zip(off, self.shape)]
                 for off in stencil_offsets(len(self.shape)))
        return np.array([inside[tuple(v)].ravel() for v in views])

    def expanded(self):
        """``data`` in the full layout: node plane j reads plane j mod
        period, and the axis-0 face couplings of a slab become exactly zero."""
        m, p = self.shape[0], self.period
        if p == m:
            return self.data
        box = self.data.reshape(len(self.data), p, -1).take(np.arange(m) % p,
                                                            axis=1)
        zero_faces(box.reshape((3,) * len(self.shape) + self.shape), (0,))
        return box.reshape(len(box), -1)

    def diagonal(self):
        p = self.period
        return self.data[(len(self.data) - 1) // 2].reshape(p, -1).take(
            np.arange(self.shape[0]) % p, axis=0).ravel()

    def to_dense(self):
        dense = np.zeros((self.n_rows, self.n_rows))
        k, i = np.nonzero(self._on_grid())
        dense[i, i + self.shifts[k]] = self.expanded()[k, i]
        return dense


def zero_faces(st, axes):
    """Set the couplings of ``st``, a stencil view of layout (3,) * d + node
    shape, that leave the grid along ``axes`` (offset -1 of the first node,
    +1 of the last) to exactly 0.0: a multiply by a mask could leave -0.0.
    An axis whose offset dimension was sliced to the centre is skipped."""
    d = st.ndim // 2
    for ax in axes:
        if st.shape[ax] == 3:
            face = np.moveaxis(st, (ax, d + ax), (0, 1))
            face[0, 0] = 0.0
            face[2, -1] = 0.0


@lru_cache(maxsize=None)
def _blocks(n, size, block):
    """(start, stop) of the matvec blocks of n nodes whose stencil repeats
    every ``size`` nodes: ``block`` nodes at a time, restarted at each seam."""
    return tuple((a, min(a + block, s + size, n)) for s in range(0, n, size)
                 for a in range(s, min(s + size, n), block))


def slab_planes(p, shape):
    """Node planes along axis 0 to store of a stencil with period p there:
    the smallest multiple of p whose slab covers _BLOCK nodes and gives
    matvec no more blocks than the full layout, else the whole axis."""
    m, plane = shape[0], math.prod(shape[1:])

    def blocks(q):    # len(_blocks(m * plane, q * plane, _BLOCK)), not built
        slabs, rest = divmod(m, q)
        return slabs * -(-q * plane // _BLOCK) + -(-rest * plane // _BLOCK)
    return next((q for q in range(p, m, p) if q * plane >= _BLOCK
                 and blocks(q) <= blocks(m)), m)


def matvec(system, x):
    """y = K x: a shifted multiply-add per coupled row, in offset order, over
    a zero-padded x, one block (at most _BLOCK nodes of one slab) at a time.

    A read that wraps past a grid face meets an exactly-zero stencil entry.
    """
    x = np.asarray(x)
    n = system.n_rows
    if x.shape != (n,):
        raise ConfigError(f"matvec length mismatch: {x.shape} vs {n}")
    shifts = system.shifts.tolist()
    pad = shifts[-1]
    dtype = np.result_type(system.data, x)
    xp = np.zeros(n + 2 * pad, dtype)
    xp[pad:pad + n] = x
    y = np.zeros(n, dtype)
    size = system.data.shape[1]
    for a, b in _blocks(n, size, _BLOCK):
        yb, db, xb = y[a:b], system.data[:, a % size:a % size + b - a], xp[a:]
        m = b - a
        for k in system.couplings.rows:
            s = pad + shifts[k]
            yb += db[k] * xb[s:s + m]
    return y


def coarse_axes(shape):
    """Axes that coarsen 2:1 (m -> (m - 1) / 2): odd interior count m >= 3."""
    return tuple(k for k, m in enumerate(shape) if m >= 3 and m % 2 == 1)


def _along(ax, index):
    return (slice(None),) * ax + (index,)


def prolong(xc, fine_shape):
    """Linear interpolation P from the coarse grid of ``fine_shape``.

    Coarse node J of a coarsened axis sits on fine node 2J + 1 and spreads
    weight 1/2 to fine nodes 2J and 2J + 2.
    """
    axes = coarse_axes(fine_shape)
    x = xc.reshape([(m - 1) // 2 if k in axes else m
                    for k, m in enumerate(fine_shape)])
    for ax in axes:
        shape = list(x.shape)
        shape[ax] = fine_shape[ax]
        fine = np.zeros(shape, x.dtype)
        fine[_along(ax, slice(1, None, 2))] = x
        half = 0.5 * x
        fine[_along(ax, slice(0, -1, 2))] += half
        fine[_along(ax, slice(2, None, 2))] += half
        x = fine
    return x.ravel()


def restrict(x, fine_shape):
    """P^T: the transpose of prolong, onto the coarse grid."""
    x = x.reshape(fine_shape)
    for ax in coarse_axes(fine_shape):
        x = x[_along(ax, slice(1, None, 2))] + 0.5 * (
            x[_along(ax, slice(0, -1, 2))] + x[_along(ax, slice(2, None, 2))])
    return x.ravel()


# The 1D Galerkin product along one axis.  P spreads coarse node J over fine
# nodes 2J+1+s with the weights _ROW_WEIGHTS; fine node 2J+1+t is spread from
# coarse nodes J+A with the weights _COLUMN_WEIGHTS[t].  So the fine coupling
# of row 2J+1+s to its neighbour at offset a lands on coarse offset A with
# weight w_row * w_col, t = s + a.
_ROW_WEIGHTS = ((-1, 0.5), (0, 1.0), (1, 0.5))
_COLUMN_WEIGHTS = {-2: ((-1, 1.0),), -1: ((-1, 0.5), (0, 0.5)),
                   0: ((0, 1.0),), 1: ((0, 0.5), (1, 0.5)), 2: ((1, 1.0),)}


def _galerkin(system):
    """The coarse stencil P^T K P, one coarsened axis at a time.

    P is the tensor product of 1D interpolations, so P^T K P is the 1D
    Galerkin product applied along each coarsened axis in turn; the offsets
    along the other axes ride along unchanged (only the centre offset of an
    axis that neither couples nor coarsens: the others hold zeros).  A slab
    with coarse period p_c (p, or p / 2 at even p) below the coarse axis 0
    gives p_c coarse planes from fine planes 0..2 p_c read modulo p, others
    are widened first; the coarse level is widened to the full layout."""
    d = len(system.shape)
    axes = coarse_axes(system.shape)
    centre = tuple(slice(None) if c or k in axes else slice(1, 2)
                   for k, c in enumerate(system.couplings.axes))
    p, m = system.period, system.shape[0]
    pc = p if p % 2 else p // 2
    wrap = p < m and 0 in axes and pc < (m - 1) // 2
    st = (system.data if wrap else system.expanded()).reshape(
        (3,) * d + (-1,) + tuple(system.shape[1:]))[centre]
    if wrap:
        st = st.take(np.arange(2 * pc + 1) % p, axis=d)
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
    zero_faces(st, axes[1:] if wrap else axes)
    shape = ((m - 1) // 2,) + st.shape[d + 1:] if wrap else st.shape[d:]
    full = np.zeros((3,) * d + st.shape[d:])
    full[centre] = st
    level = SparseSystem(shape, full.reshape(3 ** d, -1), system.symmetric)
    return SparseSystem(shape, level.expanded(), system.symmetric)


def _vcycle(levels, b):
    """One float32 V(SWEEPS, SWEEPS) cycle for K x = b from x = 0, with
    K = levels[0] (float64) and levels[1:] its hierarchy; float64 b and x.

    b is scaled by 2^-e, e the exponent of max|b|, before the float32 cast,
    and x by 2^e after it: both are exact, so the cycle of b 2^-k is
    bitwise 2^-k times the cycle of b, and b = 0 gives x = 0.
    """
    e = int(np.frexp(max(b.max(), -b.min()))[1])
    x = _cycle((levels[0].single,) + levels[1:], 0,
               np.ldexp(b, -e).astype(np.float32))
    return np.ldexp(x.astype(np.float64), e)


def _cycle(levels, k, b):
    """The V-cycle below level k, in the dtype of the levels and of b.

    A one-node level is solved exactly; a level that cannot coarsen further
    is only smoothed.
    """
    system = levels[k]
    if system.n_rows == 1:
        return b / system.data[(len(system.data) - 1) // 2]
    w = system.smoother
    x = w * b
    for _ in range(SWEEPS - 1):
        x += w * (b - matvec(system, x))
    if k + 1 < len(levels):
        r = b - matvec(system, x)
        x += prolong(_cycle(levels, k + 1, restrict(r, system.shape)),
                     system.shape)
    for _ in range(SWEEPS):
        x += w * (b - matvec(system, x))
    return x


def _dot(a, b):
    """Inner product in numpy's own fixed-order loop, not threaded BLAS."""
    return float(np.einsum("i,i->", a, b))


def _norm(a):
    return float(np.sqrt(_dot(a, a)))


def _coupled_length(system):
    """Longest axis along which the stencil couples neighbours, or 1."""
    return max((m for m, c in zip(system.shape, system.couplings.axes) if c),
               default=1)


def _cg(levels, r, tol_abs, history, max_iter):
    """Preconditioned conjugate gradients for K e = r from e = 0.

    Appends the recursive residual norm of each iteration to ``history`` and
    returns e once that norm meets tol_abs or the history is full.
    """
    system = levels[0]
    e = np.zeros_like(r)
    r = r.copy()
    p = z = _vcycle(levels, r)
    rz = _dot(r, z)
    while len(history) < max_iter:
        ap = matvec(system, p)
        alpha = rz / _dot(p, ap)
        e += alpha * p
        r -= alpha * ap
        history.append(_norm(r))
        if history[-1] <= tol_abs:
            break
        z = _vcycle(levels, r)
        rz_new = _dot(r, z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    return e


def _bicgstab(levels, r, tol_abs, history, max_iter):
    """Preconditioned BiCGStab for K e = r from e = 0, shadow residual r.

    Same stopping rule as _cg, and it also returns at a breakdown
    (rho = 0, omega = 0 or t = 0; van der Vorst, SIAM J. Sci. Stat. Comput.
    13, 1992), leaving solve to restart from the true residual.
    """
    system = levels[0]
    e = np.zeros_like(r)
    r0 = r
    rho = alpha = omega = 1.0
    v = p = np.zeros_like(r)
    while len(history) < max_iter:
        rho_new = _dot(r0, r)
        if rho_new == 0.0 or omega == 0.0:
            break
        beta = (rho_new / rho) * (alpha / omega)
        rho = rho_new
        p = r + beta * (p - omega * v)
        ph = _vcycle(levels, p)
        v = matvec(system, ph)
        alpha = rho / _dot(r0, v)
        s = r - alpha * v
        tt = 0.0
        if _norm(s) > tol_abs:
            sh = _vcycle(levels, s)
            t = matvec(system, sh)
            tt = _dot(t, t)
        if tt == 0.0:    # s met the tolerance, or t = 0
            history.append(_norm(s))
            e += alpha * ph
            break
        omega = _dot(t, s) / tt
        e += alpha * ph + omega * sh
        r = s - omega * t
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
    longest axis along which the coarsest level couples: 120 when the
    hierarchy reaches one node or leaves only uncoupled axes, and growing
    with the part of the problem that multigrid leaves to smoothing.  Raises
    ConvergenceError (carrying the true residual and the recursive residual
    norm of every iteration, over all restarts) when max_iter is exhausted.
    """
    if not 0.0 < rel_tol < 1.0:
        raise ConfigError("rel_tol must lie in (0, 1)")
    rhs = np.asarray(rhs, dtype=float)
    x = np.zeros(system.n_rows)
    res = _norm(rhs)
    if res == 0.0:
        return x, SolveInfo(0, 0.0)
    levels = (system,) + system.hierarchy
    if max_iter is None:
        max_iter = 100 + 20 * _coupled_length(levels[-1])
    tol_abs = rel_tol * res
    recurrence = _cg if system.symmetric else _bicgstab
    r, history = rhs, []
    while len(history) < max_iter:
        x += recurrence(levels, r, tol_abs, history, max_iter)
        r = rhs - matvec(system, x)
        res = _norm(r)
        if res <= tol_abs:
            return x, SolveInfo(len(history), res)
    name = "CG" if system.symmetric else "BiCGStab"
    raise ConvergenceError(
        f"{name} did not reach {rel_tol:g} in {max_iter} iterations "
        f"(residual {res:g})", residual=res, iterations=len(history),
        history=history)
