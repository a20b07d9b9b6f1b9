"""Test oracles: a dense direct solve and the stencil invariant check."""

import math

import numpy as np

from greenbox import ConfigError

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
    violation."""
    plane = math.prod(system.shape[1:])
    if (system.data.shape != (3 ** len(system.shape), system.period * plane)
            or not 0 < system.period <= system.shape[0]):
        raise ConfigError(f"stencil data shape {system.data.shape} does not "
                          f"fit grid shape {tuple(system.shape)}")
    if np.any(system.expanded()[~system._on_grid()] != 0.0):
        raise ConfigError("nonzero coupling to a node off the grid")
    if not np.all(system.diagonal() > 0.0):
        raise ConfigError("nonpositive diagonal entry")
    return True
