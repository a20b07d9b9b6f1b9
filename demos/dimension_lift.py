"""Building the 2D Green function out of a 3D one.

Add a dummy variable t and solve -div_x(A grad_x u) - d_t^2 u = delta on a
slab; integrating the solution over t in [-kappa, kappa] produces G_kappa,
whose x-gradient is bounded by C pi/|x - y| uniformly in kappa (the arctan
integral below is where the pi comes from) and which converges to the plain
2D Green function.  Here the two routes agree to a fraction of a percent.
The slab is never assembled: sine modes in t split its solve into
independent 2D problems, solved together as one block system.
"""

import numpy as np

import greenbox as gb
from greenbox import lift

print("kernel identity: int dt/(r^2 + t^2) over [-k, k] = (2/r) atan(k/r)")
for kappa in (1.0, 100.0, 1e13):
    val = lift.arctan_kernel(1.0, kappa)
    print(f"  k = {kappa:>8.0e}: {val:.12f}   (pi = {np.pi:.12f})")

field = gb.make_field("identity", 2)
grid = gb.build_grid(2, 1.0, 33)
slab = lift.build_slab(grid, 4.0)
print(f"\nslab: {slab.shape[0]}x{slab.shape[1]} base nodes x "
      f"{slab.n_layers} layers, solved as {len(lift.sine_modes(slab)[0])} "
      f"independent sine modes in t")
report = lift.compare_lift(field, grid, slab, grid.center_index, kappa=4.0)
print(f"slab solve: {report.slab_iterations} iterations, "
      f"residual {report.slab_residual:.2e}")
print(f"G_kappa positive: {report.positive}, "
      f"monotone in kappa: {report.monotone_in_kappa}")
print(f"gradient mismatch against the direct 2D solve "
      f"(L2 over the window): {report.rel_discrepancy_l2:.2e}")

fine = gb.build_grid(2, 1.0, 65)
fine_slab = lift.build_slab(fine, 4.0)
fine_rep = lift.compare_lift(field, fine, fine_slab, fine.center_index, 4.0)
print(f"\nat n = 65 the window holds enough shells for a decay fit:")
print(f"|grad G_kappa| exponent {fine_rep.decay.fitted_exponent:+.3f} "
      f"(expected -1), constant stable under kappa halving to "
      f"{(fine_rep.kappa_stability - 1) * 100:.2f}%")
