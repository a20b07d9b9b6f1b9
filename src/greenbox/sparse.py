"""3^d stencil operators, Krylov solvers, and a dense direct oracle.

An operator on a grid of interior nodes is stored as its stencil: one
coefficient per (neighbour offset, node).  Solvers are deliberately plain:
Jacobi-scaled conjugate gradients for the symmetric case, Jacobi-scaled
BiCGStab otherwise.  Matvecs and inner products run in numpy's own
fixed-order loops, never in BLAS, so runs with identical inputs are bitwise
reproducible at any BLAS thread count.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, ConvergenceError

DENSE_CAP = 4096


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


@dataclass
class SparseSystem:
    """3^d-point stencil operator over the nodes of a grid of ``shape``.

    ``data[k, i]`` couples node i (C order) to its neighbour at
    ``stencil_offsets(d)[k]``.  Entries whose neighbour is off the grid are
    exactly zero, and the diagonal (centre row) is positive (coercivity of
    the discrete form).  The ``symmetric`` flag is set by the assembler from
    the coefficient family.
    """

    shape: tuple
    data: np.ndarray
    symmetric: bool

    @property
    def n_rows(self):
        return int(np.prod(self.shape))

    @property
    def nnz(self):
        """Couplings between on-grid nodes: 3m - 2 per axis of m nodes."""
        return int(np.prod([3 * m - 2 for m in self.shape]))

    @cached_property
    def shifts(self):
        """Linear index shift of each stencil offset, increasing."""
        d = len(self.shape)
        strides = [int(np.prod(self.shape[k + 1:])) for k in range(d)]
        return stencil_offsets(d) @ np.array(strides)

    def _on_grid(self):
        """(3^d, N) mask: the neighbour at offset k of node i is on the grid."""
        inside = np.pad(np.ones(self.shape, dtype=bool), 1)
        views = ([slice(1 + o, 1 + o + m) for o, m in zip(off, self.shape)]
                 for off in stencil_offsets(len(self.shape)))
        return np.array([inside[tuple(v)].ravel() for v in views])

    def diagonal(self):
        return self.data[(len(self.data) - 1) // 2].copy()

    def to_dense(self):
        dense = np.zeros((self.n_rows, self.n_rows))
        k, i = np.nonzero(self._on_grid())
        dense[i, i + self.shifts[k]] = self.data[k, i]
        return dense

    def transpose(self):
        """The reflected stencil K^T[i, o] = K[i + o, -o]."""
        k, i = np.nonzero(self._on_grid())
        t_data = np.zeros_like(self.data)
        t_data[k, i] = self.data[len(self.data) - 1 - k, i + self.shifts[k]]
        return SparseSystem(self.shape, t_data, self.symmetric)

    def validate(self):
        """Check the stencil invariants; raises ConfigError on violation."""
        if self.data.shape != (3 ** len(self.shape), self.n_rows):
            raise ConfigError(f"stencil data shape {self.data.shape} does not "
                              f"fit grid shape {tuple(self.shape)}")
        if np.any(self.data[~self._on_grid()] != 0.0):
            raise ConfigError("nonzero coupling to a node off the grid")
        if not np.all(self.diagonal() > 0.0):
            raise ConfigError("nonpositive diagonal entry")
        return True


def matvec(system, x):
    """y = K x: 3^d shifted multiply-adds over a zero-padded x, in offset order.

    A read that wraps past a grid face meets an exactly-zero stencil entry.
    """
    x = np.asarray(x)
    n = system.n_rows
    if x.shape != (n,):
        raise ConfigError(f"matvec length mismatch: {x.shape} vs {n}")
    pad = int(system.shifts[-1])
    xp = np.zeros(n + 2 * pad)
    xp[pad:pad + n] = x
    y = np.zeros(n)
    for row, s in zip(system.data, system.shifts):
        y += row * xp[pad + s:pad + s + n]
    return y


def _dot(a, b):
    """Inner product in numpy's own fixed-order loop, not threaded BLAS."""
    return float(np.einsum("i,i->", a, b))


def _norm(a):
    return float(np.sqrt(_dot(a, a)))


def _true_residual(system, x, rhs):
    r = rhs - matvec(system, x)
    return r, _norm(r)


def _start(system, rhs, rel_tol, max_iter):
    """Shared solver preamble: (rhs, x = 0, tol_abs, inv_diag, max_iter).

    inv_diag is None when rhs = 0, whose solution is the zero start.
    """
    if not 0.0 < rel_tol < 1.0:
        raise ConfigError("rel_tol must lie in (0, 1)")
    rhs = np.asarray(rhs, dtype=float)
    norm_b = _norm(rhs)
    inv_diag = None if norm_b == 0.0 else 1.0 / system.diagonal()
    return (rhs, np.zeros(system.n_rows), rel_tol * norm_b, inv_diag,
            20 * system.n_rows if max_iter is None else max_iter)


def _not_converged(name, system, x, rhs, rel_tol, max_iter, iterations):
    res = _true_residual(system, x, rhs)[1]
    return ConvergenceError(
        f"{name} did not reach {rel_tol:g} in {max_iter} iterations "
        f"(residual {res:g})", residual=res, iterations=iterations)


def solve_spd(system, rhs, rel_tol=1e-10, max_iter=None):
    """Jacobi-preconditioned conjugate gradients for the symmetric case.

    Returns (u, SolveInfo) with ||K u - rhs||_2 <= rel_tol ||rhs||_2, the
    bound re-checked with one extra matvec before returning.  Raises
    ConvergenceError (carrying the residual) when max_iter is exhausted.
    """
    if not system.symmetric:
        raise ConfigError("solve_spd requires the symmetric flag")
    rhs, x, tol_abs, inv_diag, max_iter = _start(system, rhs, rel_tol, max_iter)
    if inv_diag is None:
        return x, SolveInfo(0, 0.0)
    r = rhs.copy()
    z = inv_diag * r
    p = z.copy()
    rz = _dot(r, z)
    iterations = 0
    while iterations < max_iter:
        iterations += 1
        ap = matvec(system, p)
        alpha = rz / _dot(p, ap)
        x += alpha * p
        r -= alpha * ap
        if _norm(r) <= tol_abs:
            r_true, res = _true_residual(system, x, rhs)
            if res <= tol_abs:
                return x, SolveInfo(iterations, res)
            # recursion residual drifted from the true one: restart
            r = r_true
            z = inv_diag * r
            p = z.copy()
            rz = _dot(r, z)
            continue
        z = inv_diag * r
        rz_new = _dot(r, z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise _not_converged("CG", system, x, rhs, rel_tol, max_iter, iterations)


def solve_general(system, rhs, rel_tol=1e-10, max_iter=None):
    """Jacobi-preconditioned BiCGStab; handles non-symmetric systems.

    Same contract as solve_spd.  On symmetric inputs the result agrees with
    solve_spd to the solver tolerance.
    """
    rhs, x, tol_abs, inv_diag, max_iter = _start(system, rhs, rel_tol, max_iter)
    if inv_diag is None:
        return x, SolveInfo(0, 0.0)
    r = rhs.copy()
    r0 = r.copy()
    rho = alpha = omega = 1.0
    v = np.zeros_like(r)
    p = np.zeros_like(r)
    iterations = 0
    while iterations < max_iter:
        iterations += 1
        rho_new = _dot(r0, r)
        if rho_new == 0.0 or (omega == 0.0 and iterations > 1):
            # breakdown: restart the shadow residual from the current one
            r0 = r.copy()
            rho_new = _dot(r0, r)
            if rho_new == 0.0:
                break
            p = np.zeros_like(r)
            v = np.zeros_like(r)
            rho = alpha = omega = 1.0
        beta = (rho_new / rho) * (alpha / omega)
        rho = rho_new
        p = r + beta * (p - omega * v)
        ph = inv_diag * p
        v = matvec(system, ph)
        alpha = rho / _dot(r0, v)
        s = r - alpha * v
        if _norm(s) <= tol_abs:
            x += alpha * ph
            r_true, res = _true_residual(system, x, rhs)
            if res <= tol_abs:
                return x, SolveInfo(iterations, res)
            r = r_true
            continue
        sh = inv_diag * s
        t = matvec(system, sh)
        tt = _dot(t, t)
        if tt == 0.0:
            raise ConvergenceError("BiCGStab breakdown: t = 0",
                                   residual=_norm(s), iterations=iterations)
        omega = _dot(t, s) / tt
        x += alpha * ph + omega * sh
        r = s - omega * t
        if _norm(r) <= tol_abs:
            r_true, res = _true_residual(system, x, rhs)
            if res <= tol_abs:
                return x, SolveInfo(iterations, res)
            r = r_true
    raise _not_converged("BiCGStab", system, x, rhs, rel_tol, max_iter,
                         iterations)


def solve(system, rhs, rel_tol=1e-10, max_iter=None):
    """Dispatch to CG or BiCGStab according to the symmetry flag."""
    if system.symmetric:
        return solve_spd(system, rhs, rel_tol, max_iter)
    return solve_general(system, rhs, rel_tol, max_iter)


def dense_solve(system, rhs):
    """Direct elimination with partial pivoting; the test oracle.

    Capped at 4096 unknowns.  A numerically singular matrix raises
    numpy.linalg.LinAlgError.
    """
    if system.n_rows > DENSE_CAP:
        raise ConfigError(
            f"dense oracle capped at {DENSE_CAP} unknowns, got {system.n_rows}")
    return np.linalg.solve(system.to_dense(), np.asarray(rhs, dtype=float))
