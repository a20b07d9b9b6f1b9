"""Dimension lifting: the 3-variable operator -div_x(A grad_x) - d_t^2 on a
slab, its Green function integrated over the extra variable, and the
comparison against the direct 2D computation.

This reproduces the construction behind the 2D gradient bound: integrating
the lifted Green function over t in [-kappa, kappa] yields a function whose
x-gradient is bounded by C pi / |x - y| uniformly in kappa, and which
recovers the 2D Green function up to an additive constant as kappa grows.
It is a verification device, not a production path for 2D columns (direct
2D solves are much cheaper).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import analysis, fields, green, mesh, sparse
from .errors import ConfigError, SourcePlacementError


@dataclass(frozen=True)
class SlabGrid:
    """Tensor grid on [-R, R]^2 x [-kappa_max, kappa_max], Dirichlet faces.

    The t-spacing equals the base spacing, t = 0 is exactly a layer, and
    layers are symmetric about 0.
    """

    base: mesh.BoxGrid
    t_half_width: float

    @property
    def h(self):
        return self.base.h

    @property
    def n_layers(self):
        return mesh.even_steps(self.t_half_width, self.h) + 1

    @cached_property
    def t_axis(self):
        c = (self.n_layers - 1) // 2
        return (np.arange(self.n_layers) - c) * self.h

    @property
    def shape(self):
        return (self.base.n, self.base.n, self.n_layers)

    @cached_property
    def axes(self):
        return [self.base.axis, self.base.axis, self.t_axis]


def build_slab(base, t_half_width):
    if base.dim != 2:
        raise ConfigError("slab lifting starts from a 2D base grid")
    slab = SlabGrid(base=base, t_half_width=float(t_half_width))
    if slab.n_layers < 5:
        raise ConfigError("slab needs at least 5 layers")
    mesh.check_stencil_fits(tuple(s - 2 for s in slab.shape))
    return slab


def _lifted_matrix(field):
    """Coefficient of the lifted operator: diag(A(x1, x2), 1)."""
    def matrix_fn(pts):
        pts = np.asarray(pts)
        a2 = fields.evaluate(field, pts[:, :2])
        out = np.zeros(pts.shape[:-1] + (3, 3))
        out[..., :2, :2] = a2
        out[..., 2, 2] = 1.0
        return out
    return matrix_fn


def assemble_lifted(field, slab):
    """Q1 stiffness of -div_x(A grad_x u) - d_t^2 u over the slab interior.

    With A = identity this coincides bitwise with the 3D assembler on the
    same geometry, since the lifted coefficient is then the 3x3 identity.
    """
    if field.dim != 2:
        raise ConfigError("assemble_lifted expects a 2D field")
    return mesh._assemble_axes(_lifted_matrix(field), slab.axes, slab.h,
                               symmetric=fields.is_symmetric(field))


def lifted_column(field, slab, y, *, system=None, rel_tol=1e-10):
    """Green column of the lifted operator with source at (y, t = 0).

    ``y`` is a full node index of the base grid.  Returns the solution on
    the full slab node array of shape ``slab.shape`` (zeros on all faces)
    and the solver's ``SolveInfo``.
    """
    i1, i2 = np.unravel_index(y, slab.base.shape)
    if not (0 < i1 < slab.base.n - 1 and 0 < i2 < slab.base.n - 1):
        raise SourcePlacementError("base source lies on the boundary")
    if system is None:
        system = assemble_lifted(field, slab)
    ishape = tuple(s - 2 for s in slab.shape)
    center_layer = (slab.n_layers - 1) // 2
    rhs = np.zeros(system.n_rows)
    rhs[np.ravel_multi_index((i1 - 1, i2 - 1, center_layer - 1), ishape)] = 1.0
    u, info = sparse.solve(system, rhs, rel_tol=rel_tol)
    full = np.zeros(slab.shape)
    full[1:-1, 1:-1, 1:-1] = u.reshape(ishape)
    return full, info


def integrate_t(slab, slab_values, kappa):
    """Trapezoid rule over the layers with |t| <= kappa.

    Returns a field over the base-grid nodes.  kappa must be a layer
    multiple (the standard experiments use kappa = t_half_width or half of it).
    """
    if kappa > slab.t_half_width * (1 + 1e-12):
        raise ConfigError("kappa exceeds the slab half-width")
    steps = kappa / slab.h
    if abs(steps - round(steps)) > 1e-9:
        raise ConfigError("kappa must be a multiple of the layer spacing")
    half = int(round(steps))
    if half < 1:
        raise ConfigError("kappa must cover at least one layer")
    center_layer = (slab.n_layers - 1) // 2
    sl = slice(center_layer - half, center_layer + half + 1)
    weights = np.full(2 * half + 1, slab.h)
    weights[0] *= 0.5
    weights[-1] *= 0.5
    return (np.asarray(slab_values).reshape(slab.shape)[:, :, sl]
            @ weights).reshape(-1)


def arctan_kernel(r, kappa):
    """Closed form of int_{-kappa}^{kappa} dt / (r^2 + t^2) = (2/r) atan(kappa/r).

    Tends to pi / r as kappa grows; the kernel behind |grad G_kappa| <= C pi / r.
    """
    return 2.0 * np.arctan(np.asarray(kappa, dtype=float) / r) / r


@dataclass
class LiftReport:
    kappa: float
    rel_discrepancy_l2: float      # gradient mismatch on the window (L2 sense)
    rel_discrepancy_max: float     # worst pointwise mismatch on the window
    decay: analysis.DecayReport | None  # power fit of |grad G_kappa|
    kappa_stability: float         # fitted-constant ratio, kappa vs kappa/2
    monotone_in_kappa: bool
    positive: bool
    slab_iterations: int           # solver stats of the one slab solve
    slab_residual: float           # final true residual ||K u - delta||_2


def compare_lift(field, grid2, slab, y, kappa, *, rel_tol=1e-10):
    """Compare grad G_kappa with the gradient of the direct 2D Green column.

    Gradients are compared over the nodes with |x - y| in [4h, R/4];
    additive constants cancel under differentiation, so no 2D normalization
    is needed.  The decay exponent of |grad G_kappa| is fitted on the same
    grid when the window holds enough shells (it needs 4h < R/4, i.e.
    n > 33 at R = 1); otherwise the fit is done on the comparison ring.
    """
    if kappa < 4.0 * grid2.half_width - 1e-12:
        raise ConfigError("kappa must be at least 4 box half-widths")
    slab_vals, info = lifted_column(field, slab, y, rel_tol=rel_tol)
    gk = integrate_t(slab, slab_vals, kappa)
    gk_half = integrate_t(slab, slab_vals, kappa / 2.0)
    col = green.green_column(field, grid2, y, rel_tol=rel_tol)

    positive = bool(gk.min() >= -1e-12 * gk.max())
    monotone = bool(np.all(gk - gk_half >= -1e-12 * gk.max()))

    grad_k = mesh.gradient_field(gk, grid2)
    grad_2 = mesh.gradient_field(col.values, grid2)
    r = grid2.distances_from(y)
    r_min, r_max = 4.0 * grid2.h, grid2.half_width / 4.0
    window = (r >= r_min * (1 - 1e-12)) & (r <= r_max * (1 + 1e-12))
    if not window.any():
        raise ConfigError("empty comparison window")
    diff = np.linalg.norm(grad_k[window] - grad_2[window], axis=1)
    ref = np.linalg.norm(grad_2[window], axis=1)
    rel_l2 = float(np.linalg.norm(diff) / np.linalg.norm(ref))
    rel_max = float((diff / ref).max())

    gmag = np.linalg.norm(grad_k, axis=1)
    gmag_half = np.linalg.norm(mesh.gradient_field(gk_half, grid2), axis=1)
    try:
        win = analysis.fit_window(grid2, "power")
        spec = analysis.make_annuli(grid2, grid2.coords(y), win)
        stats = analysis.annulus_average(gmag, grid2, spec)
        decay = analysis.fit_power_decay(spec.radii, stats, win, "grad_x")
        c_half = analysis.fit_power_decay(
            spec.radii, analysis.annulus_average(gmag_half, grid2, spec),
            win, "grad_x").fitted_constant
        c_full = decay.fitted_constant
        stability = max(c_full, c_half) / min(c_full, c_half)
    except ConfigError:
        # window too narrow for shells (4h = R/4 at n = 33): comparison-only run
        decay = None
        stability = float("nan")
    return LiftReport(kappa=float(kappa), rel_discrepancy_l2=rel_l2,
                      rel_discrepancy_max=rel_max, decay=decay,
                      kappa_stability=stability, monotone_in_kappa=monotone,
                      positive=positive, slab_iterations=info.iterations,
                      slab_residual=info.residual)
