"""Measurement machinery: annulus statistics, weak-Lorentz norms, the
embedding sandwich, decay and log-growth fits, and the interior ratio.
Beyond the sandwich's round-off inequality tests, every pinned expectation
and every check verdict lives in ``verify``.

The radial fit window is [4h, R/4] by default: inside 4h the discrete delta
pollutes the column, outside R/4 the Dirichlet boundary does.  For the 2D
log-growth fit of a normalized column the outer cut is R/8, which keeps the
window clear of the zero crossing that the zero-mean normalization over
B_1(y) places at |x - y| = exp(-1/2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

DEFAULT_ETA = 0.1
MIN_FIT_RADII = 5
MIN_SHELL_NODES = 8


@dataclass(frozen=True)
class AnnulusSpec:
    """Shells [r(1-eta), r(1+eta)] around a center point."""

    center: tuple
    rel_thickness: float
    radii: tuple

    def __post_init__(self):
        if not 0.0 < self.rel_thickness < 0.5:
            raise ConfigError("relative shell thickness must lie in (0, 0.5)")
        r = np.asarray(self.radii)
        if r.size == 0 or np.any(np.diff(r) <= 0) or r[0] <= 0:
            raise ConfigError("radii must be positive and strictly increasing")


def fit_window(grid, kind="power"):
    """Default radial window [4h, R/4].

    For log-growth fits of a 2D-normalized column the outer cut is also
    capped at 0.5: the zero-mean normalization over B_1(y) puts the sign
    change of the column near |x - y| = exp(-1/2) ~ 0.61 regardless of R,
    and shells beyond it would corrupt the |G| regression.
    """
    outer = grid.half_width / 4.0
    if kind == "log":
        outer = min(outer, 0.5)
    return (4.0 * grid.h, outer)


def make_annuli(grid, center, window, count=9, eta=DEFAULT_ETA):
    """Log-spaced shells inside ``window``, validated to hold enough nodes."""
    r_min, r_max = window
    if not 0 < r_min < r_max:
        raise ConfigError(f"degenerate fit window [{r_min}, {r_max}]")
    center = tuple(float(c) for c in center)
    radii = np.geomspace(r_min, r_max, count)
    spec = AnnulusSpec(center=center, rel_thickness=eta, radii=tuple(radii))
    dist = grid.distances(center)
    for r in radii:
        n_in = int(((dist >= r * (1 - eta)) & (dist <= r * (1 + eta))).sum())
        if n_in < MIN_SHELL_NODES:
            raise ConfigError(f"shell at r = {r:g} holds only {n_in} nodes "
                              f"(< {MIN_SHELL_NODES})")
    return spec


def annulus_average(values, grid, spec):
    """f(r): mean of |values| over the nodes of each shell."""
    values = np.asarray(values)
    dist = grid.distances(spec.center)
    eta = spec.rel_thickness
    out = np.empty(len(spec.radii))
    for k, r in enumerate(spec.radii):
        m = (dist >= r * (1 - eta)) & (dist <= r * (1 + eta))
        if not m.any():
            raise ConfigError(f"empty shell at r = {r:g}")
        out[k] = np.abs(values[m]).mean()
    return out


def weak_lorentz_norm(values, cell_volume, p):
    """||f||_{p,infty} = sup_t t mu(|f| >= t)^{1/p} with counting measure.

    The supremum is attained at the sorted distinct magnitudes, so it equals
    max_k |v|_(k) (k cell_volume)^{1/p} over the descending order statistics.
    """
    if p < 1:
        raise ConfigError("p must be >= 1")
    v = np.sort(np.abs(np.asarray(values, dtype=float).ravel()))[::-1]
    if v.size == 0 or v[0] == 0.0:
        return 0.0
    measures = np.arange(1, v.size + 1) * cell_volume
    return float((v * measures ** (1.0 / p)).max())


def lebesgue_norm(values, cell_volume, q):
    v = np.abs(np.asarray(values, dtype=float).ravel())
    return float((np.sum(v**q) * cell_volume) ** (1.0 / q))


def embedding_constant(p, beta, measure):
    """Sharp layer-cake constant C with C ||f||_{p-beta} <= ||f||_{p,infty}.

    Derived by optimizing the split of the layer-cake integral at the level
    T = N mu(Omega)^{-1/p}:  C = (beta/p)^{1/(p-beta)} mu(Omega)^{-beta/(p(p-beta))}.
    """
    return (beta / p) ** (1.0 / (p - beta)) * measure ** (-beta / (p * (p - beta)))


def embedding_constant_inverted_prefactor(p, beta, measure):
    """The frequently mis-stated variant with (p/beta) in place of (beta/p).

    Already refuted by f = 1 on a unit-measure domain (it asserts 2 <= 1 at
    p = 2, beta = 1); kept only so checks can demonstrate the failure.
    """
    return (p / beta) ** (1.0 / (p - beta)) * measure ** (-beta / (p * (p - beta)))


@dataclass
class SandwichReport:
    weak: float
    lp: float
    lp_minus_beta: float
    c_corrected: float
    c_inverted: float
    lower_ok: bool
    upper_ok: bool
    inverted_lower_ok: bool


def lorentz_sandwich_check(values, cell_volume, p, beta):
    """Evaluate C ||f||_{p-beta} <= ||f||_{p,infty} <= ||f||_{p} discretely.

    The upper inequality uses C = 1 (Chebyshev); the lower uses the corrected
    constant from ``embedding_constant``.  The report also evaluates the
    inverted-prefactor variant, which fails already for constant fields.

    beta = p - 1 (so p - beta = 1) is admitted: the layer-cake derivation of
    the constant only needs p - beta >= 1.
    """
    if not 0.0 < beta <= p - 1.0:
        raise ConfigError("need 0 < beta <= p - 1")
    values = np.asarray(values, dtype=float).ravel()
    measure = values.size * cell_volume
    weak = weak_lorentz_norm(values, cell_volume, p)
    lp = lebesgue_norm(values, cell_volume, p)
    lpb = lebesgue_norm(values, cell_volume, p - beta)
    c_good = embedding_constant(p, beta, measure)
    c_bad = embedding_constant_inverted_prefactor(p, beta, measure)
    tol = 1e-12 * max(weak, lp, 1.0)
    return SandwichReport(
        weak=weak, lp=lp, lp_minus_beta=lpb,
        c_corrected=c_good, c_inverted=c_bad,
        lower_ok=bool(c_good * lpb <= weak + tol),
        upper_ok=bool(weak <= lp + tol),
        inverted_lower_ok=bool(c_bad * lpb <= weak + tol),
    )


@dataclass
class DecayReport:
    """Least-squares power-law fit of annulus statistics."""

    quantity: str
    radii: tuple
    annulus_stats: tuple
    fitted_exponent: float
    fitted_constant: float
    fit_window: tuple
    rms_log_residual: float


def _fit_points(radii, stats, window):
    """Radii inside ``window`` and their statistics, checked positive."""
    radii = np.asarray(radii, dtype=float)
    stats = np.asarray(stats, dtype=float)
    r_min, r_max = window
    keep = (radii >= r_min * (1 - 1e-12)) & (radii <= r_max * (1 + 1e-12))
    if keep.sum() < MIN_FIT_RADII:
        raise ConfigError(
            f"need at least {MIN_FIT_RADII} radii inside the window, "
            f"got {int(keep.sum())}")
    r, f = radii[keep], stats[keep]
    if np.any(f <= 0.0):
        raise ConfigError("nonpositive annulus statistic inside the window")
    return r, f


def fit_power_decay(radii, stats, window, quantity="G"):
    """OLS of log f(r) on log r over the radii inside ``window``.

    fitted_constant = exp(intercept), so stats ~ constant * r^exponent.
    """
    r, f = _fit_points(radii, stats, window)
    x, y = np.log(r), np.log(f)
    slope, intercept = np.polyfit(x, y, 1)
    rms = float(np.sqrt(np.mean((y - (slope * x + intercept)) ** 2)))
    return DecayReport(quantity=quantity, radii=tuple(r), annulus_stats=tuple(f),
                       fitted_exponent=float(slope),
                       fitted_constant=float(np.exp(intercept)),
                       fit_window=tuple(float(w) for w in window),
                       rms_log_residual=rms)


def fit_two_box_decay(radii, stats_R, stats_half, window, quantity="G"):
    """Power-law fit of the box-free d = 3 profile 2 f_R - f_{R/2}.

    On the Dirichlet box [-R, R]^3 a shell mean of the Green column is
    f_R(r) = C r^p - c(R) with the box offset c(R) proportional to 1/R.
    Shell means at the same radii on the nested half box [-R/2, R/2]^3 (same
    spacing, same source) carry the offset 2 c(R), so 2 f_R - f_{R/2} = C r^p
    whatever p is, and its log-log slope is the decay exponent.
    """
    profile = 2.0 * np.asarray(stats_R, dtype=float) - np.asarray(stats_half)
    return fit_power_decay(radii, profile, window, quantity)


@dataclass
class OffsetReport:
    """Shell means fitted as C / r - c with the d = 3 exponent pinned, and
    the power-law fit of the shell means plus c."""

    amplitude: float
    offset: float
    rel_rms: float          # RMS misfit over the mean shell statistic
    corrected: DecayReport


def fit_offset_decay(radii, stats, window):
    """Least squares of C / r - c over all radii, then ``fit_power_decay`` of
    stats + c over ``window``.  On a Dirichlet box the shell mean of a 3D
    Green column is C/r minus a constant: the smooth corrector equals its
    value at the source by the mean value property."""
    radii, stats = np.asarray(radii, float), np.asarray(stats, float)
    design = np.stack([1.0 / radii, -np.ones_like(radii)], axis=1)
    coef, *_ = np.linalg.lstsq(design, stats, rcond=None)
    rms = np.sqrt(np.mean((stats - design @ coef) ** 2))
    return OffsetReport(float(coef[0]), float(coef[1]),
                        float(rms / stats.mean()),
                        fit_power_decay(radii, stats + coef[1], window))


@dataclass
class LogGrowthReport:
    radii: tuple
    annulus_stats: tuple
    slope: float
    intercept: float
    rms_residual: float
    fit_window: tuple


def fit_log_growth(radii, stats, window):
    """OLS of f(r) on 1 + |log r|; a bounded slope certifies the 2D bound."""
    r, f = _fit_points(radii, stats, window)
    x = 1.0 + np.abs(np.log(r))
    slope, intercept = np.polyfit(x, f, 1)
    rms = float(np.sqrt(np.mean((f - (slope * x + intercept)) ** 2)))
    return LogGrowthReport(radii=tuple(r), annulus_stats=tuple(f),
                           slope=float(slope), intercept=float(intercept),
                           rms_residual=rms,
                           fit_window=tuple(float(w) for w in window))


def interior_ratio(col, gmag, x, r):
    """r sup_{B_{r/2}(x)} |grad G| over sup_{B_r(x)} |G| around node ``x``.

    ``gmag`` holds |grad G| at the nodes of ``col``; the ratio is
    scale-invariant in the column.  The ball B_r(x) must have r >= 8h, lie
    inside the box and leave out the source.
    """
    grid = col.grid
    xc = grid.coords(x)
    if r < 8.0 * grid.h * (1 - 1e-12):
        raise ConfigError(f"ball radius {r:g} below 8h")
    if np.any(np.abs(xc) + r > grid.half_width * (1 + 1e-12)):
        raise ConfigError("test ball leaves the domain")
    if r * (1 + 1e-9) >= np.linalg.norm(xc - col.source_coords):
        raise ConfigError("test ball holds the source")
    dist = grid.distances(xc)
    sup_g = float(np.abs(col.values[dist <= r * (1 + 1e-9)]).max())
    sup_dg = float(gmag[dist <= 0.5 * r * (1 + 1e-9)].max())
    return r * sup_dg / sup_g
