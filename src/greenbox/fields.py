"""Periodic coefficient fields A(x) and their admissibility checks.

All built-in families are Z^d-periodic trigonometric matrices on the unit
cell [0,1)^d, uniformly coercive and bounded.  A field descriptor only
*declares* its coercivity constant ``alpha`` and entry bound ``bound``;
``verify_coercivity`` and ``verify_periodicity`` cross-check the declaration
by sampling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

FAMILIES = ("identity", "scalar_trig", "diag_aniso", "nonsym_skew")

_TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class PeriodicField:
    """Descriptor of a Z^d-periodic coefficient matrix A(x).

    Parameters
    ----------
    dim : int
        Space dimension, 2 or 3.
    family : str
        One of ``identity``, ``scalar_trig``, ``diag_aniso``, ``nonsym_skew``.
    params : tuple of float
        Family-specific amplitudes/frequencies (see ``make_field``).
    alpha : float
        Declared coercivity constant: xi^T A(x) xi >= alpha |xi|^2.
    bound : float
        Declared sup-norm of the matrix entries.
    """

    dim: int
    family: str
    params: tuple
    alpha: float
    bound: float

    def __post_init__(self):
        if self.dim not in (2, 3):
            raise ConfigError(f"dimension must be 2 or 3, got {self.dim}")
        if self.family not in FAMILIES:
            raise ConfigError(f"unknown field family {self.family!r}")
        params = tuple(float(p) for p in self.params)
        if not np.all(np.isfinite(params + (self.alpha, self.bound))):
            raise ConfigError("field parameters, alpha and bound must be finite")
        if self.alpha <= 0.0 or self.bound <= 0.0:
            raise ConfigError("alpha and bound must be positive")
        object.__setattr__(self, "params", params)


def make_field(family, dim=2, params=None):
    """Build a PeriodicField with validated, family-appropriate defaults.

    Families and their parameters:

    identity
        A = I.  No parameters.
    scalar_trig
        A(x) = (base + amp * prod_i sin(2 pi freq x_i)) I.
        params = (base, amp, freq), default (2, 1, 1); freq must be an
        integer, or A would not be Z^d-periodic.
    diag_aniso
        A(x) diagonal with entries b_i + m_i sin(2 pi x_{i+1 mod d}).
        params = (b_1..b_d, m_1..m_d), default bases (2, 3[, 2.5]) and
        amplitudes 0.25.
    nonsym_skew
        A(x) = I + s(x) J with J the rotation generator in the (x1, x2)
        plane and s(x) = s (1 + sin(2 pi x1) cos(2 pi x2)).  The skew part
        varies, so it does not integrate out of the stiffness matrix.
        params = (s,), default (0.3,).
    """
    if params is not None:
        params = tuple(float(p) for p in params)
    if family == "identity":
        params = params or ()
        if params:
            raise ConfigError("identity family takes no parameters")
        return PeriodicField(dim, family, (), alpha=1.0, bound=1.0)
    if family == "scalar_trig":
        params = params or (2.0, 1.0, 1.0)
        if len(params) != 3:
            raise ConfigError("scalar_trig expects params (base, amp, freq)")
        base, amp, freq = params
        if not freq.is_integer():
            raise ConfigError(f"scalar_trig freq must be an integer, got {freq}")
        alpha = base - abs(amp)
        if alpha <= 0.0:
            raise ConfigError("scalar_trig base must exceed |amp|")
        return PeriodicField(dim, family, params, alpha=alpha, bound=base + abs(amp))
    if family == "diag_aniso":
        if params is None:
            bases = (2.0, 3.0) if dim == 2 else (2.0, 2.5, 3.0)
            params = bases + (0.25,) * dim
        if len(params) != 2 * dim:
            raise ConfigError("diag_aniso expects params (b_1..b_d, m_1..m_d)")
        bases, amps = params[:dim], params[dim:]
        alpha = min(b - abs(m) for b, m in zip(bases, amps))
        if alpha <= 0.0:
            raise ConfigError("diag_aniso bases must exceed amplitudes")
        return PeriodicField(dim, family, params, alpha=alpha,
                             bound=max(b + abs(m) for b, m in zip(bases, amps)))
    if family == "nonsym_skew":
        params = params or (0.3,)
        if len(params) != 1:
            raise ConfigError("nonsym_skew expects params (s,)")
        return PeriodicField(dim, family, params, alpha=1.0,
                             bound=max(1.0, 2.0 * abs(params[0])))
    raise ConfigError(f"unknown field family {family!r}")


def evaluate(field, points):
    """Evaluate A at one point (d,) or a batch (..., d) of points.

    Returns an array of shape points.shape[:-1] + (d, d).  Exactly periodic:
    evaluate(x + k) == evaluate(x) for integer shifts k.
    """
    pts = np.asarray(points, dtype=float)
    if pts.shape[-1] != field.dim:
        raise ConfigError(
            f"points have dimension {pts.shape[-1]}, field has {field.dim}")
    d = field.dim
    lead = pts.shape[:-1]
    eye = np.eye(d)
    if field.family == "identity":
        return np.broadcast_to(eye, lead + (d, d)).copy()
    if field.family == "scalar_trig":
        base, amp, freq = field.params
        a = base + amp * np.prod(np.sin(_TWO_PI * freq * pts), axis=-1)
        return a[..., None, None] * eye
    if field.family == "diag_aniso":
        bases = np.array(field.params[:d])
        amps = np.array(field.params[d:])
        out = np.zeros(lead + (d, d))
        for i in range(d):
            out[..., i, i] = bases[i] + amps[i] * np.sin(_TWO_PI * pts[..., (i + 1) % d])
        return out
    if field.family == "nonsym_skew":
        s = field.params[0] * (1.0 + np.sin(_TWO_PI * pts[..., 0])
                               * np.cos(_TWO_PI * pts[..., 1]))
        out = np.broadcast_to(eye, lead + (d, d)).copy()
        out[..., 0, 1] += s
        out[..., 1, 0] -= s
        return out
    raise ConfigError(f"unknown field family {field.family!r}")


def transpose_field(field):
    """Descriptor of A^T; equals the input for the symmetric families."""
    if field.family == "nonsym_skew":
        return PeriodicField(field.dim, field.family, (-field.params[0],),
                             alpha=field.alpha, bound=field.bound)
    return field


def is_symmetric(field):
    return field.family != "nonsym_skew" or field.params[0] == 0.0


def verify_coercivity(field, samples_per_axis=64, tolerance=None):
    """Empirical coercivity constant from a unit-cell sample lattice.

    Returns alpha_hat, the minimum over the lattice {j/m}^d of the smallest
    eigenvalue of the symmetric part (A + A^T)/2.  Raises ConfigError if
    alpha_hat <= 0 or if it undershoots the declared alpha by more than
    ``tolerance`` (default 5% of alpha).
    """
    if samples_per_axis < 2:
        raise ConfigError("samples_per_axis must be >= 2")
    if tolerance is None:
        tolerance = 0.05 * field.alpha
    d = field.dim
    axis = np.arange(samples_per_axis) / samples_per_axis
    grids = np.meshgrid(*([axis] * d), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=-1)
    mats = evaluate(field, pts)
    sym = 0.5 * (mats + np.swapaxes(mats, -1, -2))
    alpha_hat = float(np.linalg.eigvalsh(sym)[:, 0].min())
    if alpha_hat <= 0.0:
        raise ConfigError(f"field is not coercive: alpha_hat = {alpha_hat}")
    if alpha_hat < field.alpha - tolerance:
        raise ConfigError(
            f"declared alpha {field.alpha} not supported by samples "
            f"(alpha_hat = {alpha_hat})")
    return alpha_hat


def verify_periodicity(field, trials=32, seed=0):
    """Check A(x + k) == A(x) for random points and integer shifts |k|_inf <= 3.

    Returns True when the maximal entrywise deviation stays below
    1e-14 * field.bound.
    """
    if trials < 1:
        raise ConfigError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-2.0, 2.0, size=(trials, field.dim))
    shifts = rng.integers(-3, 4, size=(trials, field.dim))
    base = evaluate(field, pts)
    shifted = evaluate(field, pts + shifts)
    return float(np.abs(shifted - base).max()) <= 1e-14 * field.bound
