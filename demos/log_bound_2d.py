"""The 2D Green function grows like a logarithm, and boxes only shift it.

The column on a box is fixed up to an additive constant; we pin it by zero
mean over the unit ball around the source, fit |G| against 1 + |log r|, and
read off the slope 1/(2 pi) for the Laplacian.  Growing the box adds
(1/2 pi) log(R'/R) to the column - the maximum principle in action.
"""

import numpy as np

import greenbox as gb
from greenbox import analysis

field = gb.make_field("identity", 2)
grid = gb.build_grid(2, 4.0, 129)
column = gb.normalize_2d(gb.green_column(field, grid, grid.center_index))
print(f"normalization offset over B_1(y): {column.offset:.5f}")

window = analysis.fit_window(grid, "log")
spec = analysis.make_annuli(grid, column.source_coords, window)
stats = analysis.annulus_average(column.values, grid, spec)
fit = analysis.fit_log_growth(spec.radii, stats, window)
print(f"slope of |G| against 1 + |log r|: {fit.slope:.5f}"
      f"   (1/2pi = {1 / (2 * np.pi):.5f})")
print(f"rms residual over mean shell value: "
      f"{fit.rms_residual / np.mean(stats):.3f}")

print("\ngrowing boxes R = 1, 2, 4 at fixed spacing:")
growth = gb.domain_growth(field, (0.0, 0.0), (1.0, 2.0, 4.0), h=1 / 16)
bound = 1e-10 * max(c.values.max() for c in growth.columns)
print(f"worst violation of G_R' >= G_R at shared nodes: "
      f"{growth.worst_violation:.2e}   (bound 1e-10 * max G = {bound:.2e})")
for (r_small, r_big), drift in zip(((1, 2), (2, 4)), growth.drifts):
    print(f"median drift R={r_small} -> {r_big}: {drift:.5f}   "
          f"((1/2pi) log 2 = {np.log(2) / (2 * np.pi):.5f})")
