"""How fast does G(x, y) fall off in 3D, and what does the box do to it?

We solve -div(A grad G) = delta on [-2, 2]^3 for the identity and the
oscillating scalar coefficient, average |G| over shells around the source,
and fit a power law.  The raw fit comes out steeper than r^{-1}: a Dirichlet
box subtracts a constant c(R) (the harmonic corrector, whose shell average
equals its value at the source).  That constant scales like 1/R, so the same
shells on the nested half box [-1, 1]^3 carry 2 c(R), and 2 f_R - f_{R/2}
is free of it: its log-log slope is the decay exponent.  Fitting C/r - c
with the exponent pinned gives C = 1/(4 pi) for the Laplacian to under a
percent.
"""

import numpy as np

import greenbox as gb
from greenbox import analysis

for family in ("identity", "scalar_trig"):
    field = gb.make_field(family, 3)
    grid = gb.build_grid(3, 2.0, 49)
    half = gb.nested_grid(3, 1.0, grid.h)
    print(f"\n=== {family}: {grid.n_interior} unknowns, h = {grid.h:.4f} ===")
    column = gb.green_column(field, grid, grid.center_index)
    print(f"solved in {column.iterations} iterations to residual "
          f"{column.residual:.1e}; peak value {column.values.max():.4f}")

    window = analysis.fit_window(grid)
    spec = analysis.make_annuli(grid, column.source_coords, window)
    stats = analysis.annulus_average(column.values, grid, spec)
    fit = analysis.fit_power_decay(spec.radii, stats, window)
    print(f"raw log-log fit of shell means: exponent {fit.fitted_exponent:+.3f}")

    half_column = gb.green_column(field, half, half.center_index)
    half_stats = analysis.annulus_average(half_column.values, half, spec)
    two_box = analysis.fit_two_box_decay(spec.radii, stats, half_stats, window)
    print(f"half box ({half.n_interior} unknowns) eliminates the offset "
          f"{np.mean(stats - half_stats):.4f}: exponent "
          f"{two_box.fitted_exponent:+.3f}")

    refit = analysis.fit_offset_decay(spec.radii, stats, window)
    print(f"with the box offset {refit.offset:.4f} restored: exponent "
          f"{refit.corrected.fitted_exponent:+.3f}, amplitude "
          f"{refit.amplitude:.4f}"
          + (f"  (1/4pi = {1 / (4 * np.pi):.4f})" if family == "identity" else ""))

    gmag = np.linalg.norm(gb.gradient_field(column.values, grid), axis=1)
    gstats = analysis.annulus_average(gmag, grid, spec)
    gfit = analysis.fit_power_decay(spec.radii, gstats, window)
    print(f"|grad G| exponent: {gfit.fitted_exponent:+.3f}  (expected -2; "
          "the gradient does not feel the additive corrector)")
