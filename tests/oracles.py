"""Test oracles: a dense direct solve and the stencil invariant check."""

import math

import numpy as np

from greenbox import ConfigError
from greenbox.sparse import stored_rows

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
