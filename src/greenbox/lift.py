"""Dimension lifting: the 3-variable operator -div_x(A grad_x) - d_t^2 on a
slab, its Green function integrated over the extra variable, and the
comparison against the direct 2D computation.

This reproduces the construction behind the 2D gradient bound: integrating
the lifted Green function over t in [-kappa, kappa] yields a function whose
x-gradient is bounded by C pi / |x - y| uniformly in kappa, and which
recovers the 2D Green function up to an additive constant as kappa grows.
It is a verification device, not a production path for 2D columns (direct
2D solves are much cheaper).

The slab solve splits into independent 2D problems by sine modes in t (fast
diagonalization, Lynch, Rice & Thomas, Numer. Math. 6, 1964); only the test
oracle ``assemble_lifted`` forms the 3D slab matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import analysis, fields, green, mesh, sparse
from .errors import ConfigError


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

    @property
    def shape(self):
        return (self.base.n, self.base.n, self.n_layers)

    @property
    def axes(self):
        t = (np.arange(self.n_layers) - (self.n_layers - 1) // 2) * self.h
        return [self.base.axis, self.base.axis, t]


def build_slab(base, t_half_width):
    if base.dim != 2:
        raise ConfigError("slab lifting starts from a 2D base grid")
    slab = SlabGrid(base=base, t_half_width=float(t_half_width))
    if slab.n_layers < 5:
        raise ConfigError("slab needs at least 5 layers")
    mesh.check_stencil_fits(3, (slab.n_layers - 1) // 2 * (base.n - 2) ** 2)
    return slab


def assemble_lifted(field, slab):
    """Q1 stiffness of -div_x(A grad_x u) - d_t^2 u over the slab interior:
    the 3D assembler with coefficient diag(A(x1, x2), 1), bitwise equal to it
    at A = identity.  Only tests call it, as the oracle of lifted_column."""
    if field.dim != 2:
        raise ConfigError("assemble_lifted expects a 2D field")

    def matrix_fn(pts):
        out = np.zeros(pts.shape[:-1] + (3, 3))
        out[..., :2, :2] = fields.evaluate(field, pts[..., :2])
        out[..., 2, 2] = 1.0
        return out
    return mesh._assemble_axes(matrix_fn, slab.axes, slab.h,
                               symmetric=fields.is_symmetric(field))


def sine_modes(slab):
    """The odd sine modes phi_k(j) = sqrt(2/(m+1)) sin(pi k j/(m+1)) on the m
    interior layers (even ones vanish at t = 0), and their eigenvalues
    lambda_k of K_t = (1/h)[-1, 2, -1] and mu_k of M_t = h[1/6, 2/3, 1/6]."""
    m = slab.n_layers - 2
    theta = np.pi * np.arange(1, m + 1, 2) / (m + 1)
    phi = np.sqrt(2.0 / (m + 1)) * np.sin(np.outer(theta, np.arange(1, m + 1)))
    return (phi, (2.0 / slab.h) * (1.0 - np.cos(theta)),
            slab.h * (2.0 + np.cos(theta)) / 3.0)


def mass_2d(base):
    """Q1 mass matrix M_1 (x) M_1 over the interior nodes of a 2D grid."""
    m1 = np.repeat(base.h * np.array([[1.0], [4.0], [1.0]]) / 6.0, base.n - 2, 1)
    sparse.zero_faces(m1, (0,))
    return sparse.SparseSystem((base.n - 2,) * 2, np.einsum(
        "ai,bj->abij", m1, m1).reshape(9, -1), True)


def lifted_column(field, slab, y, *, system=None, rel_tol=1e-10):
    """Green column of the lifted operator with source at (y, t = 0).

    ``y`` is a full node index of the base grid and ``system`` the base
    stiffness K_x (assembled when None).  Since K = K_x (x) M_t + M_x (x) K_t,
    the q odd modes solve (mu_k K_x + lambda_k M_x) u_k = phi_k(0) e_y as one
    block system of shape (q, *base interior).  Its mode axis is uncoupled,
    so the solver skips its 18 zero stencil rows and, at even q, caps it at
    120 iterations; its residual is the slab residual (the sine transform is
    orthonormal).  Returns the full slab values (zero faces) and SolveInfo."""
    if system is None:
        system = mesh.assemble(field, slab.base)
    phi, lam, mu = sine_modes(slab)
    q, ishape = len(phi), system.shape
    rhs = np.multiply.outer(phi[:, (slab.n_layers - 3) // 2],
                            mesh.load_delta(slab.base, y))
    data = np.zeros((3, 9, q, system.n_rows))  # t-offset, x-offset, mode, node
    data[1] = (mu[:, None] * system.expanded()[:, None]
               + lam[:, None] * mass_2d(slab.base).data[:, None])
    blocks = sparse.SparseSystem((q,) + ishape, data.reshape(27, -1),
                                 system.symmetric)
    u, info = sparse.solve(blocks, rhs.ravel(), rel_tol=rel_tol)
    full = np.zeros(slab.shape)
    full[1:-1, 1:-1, 1:-1] = np.einsum("kab,kj->abj",
                                       u.reshape((q,) + ishape), phi)
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
    kx = mesh.assemble(field, grid2)
    slab_vals, info = lifted_column(field, slab, y, system=kx, rel_tol=rel_tol)
    gk = integrate_t(slab, slab_vals, kappa)
    gk_half = integrate_t(slab, slab_vals, kappa / 2.0)
    col = green.green_column(field, grid2, y, system=kx, rel_tol=rel_tol)

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
