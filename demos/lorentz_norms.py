"""Weak-L^p norms: the sandwich inequality and a constant that bites back.

||f||_{p,inf} = sup_t t mu(|f| >= t)^{1/p} sits between C ||f||_{p-beta} and
||f||_p.  The lower constant is often printed with the prefactor upside
down; f = 1 on a unit-measure domain refutes that version instantly (it
would assert 2 <= 1), while the layer-cake optimum (beta/p)^{1/(p-beta)}
holds.  The function 1/|x| on the unit disk is the canonical borderline
case: it just misses L^2, but its weak-L^2 norm is exactly sqrt(pi).
"""

import numpy as np

import greenbox as gb
from greenbox import analysis

rep = analysis.lorentz_sandwich_check(np.ones(100), 1.0 / 100, p=2.0, beta=1.0)
print("f = 1 on unit measure, p = 2, beta = 1:")
print(f"  ||f||_1 = {rep.lp_minus_beta:.3f}, ||f||_(2,inf) = {rep.weak:.3f}, "
      f"||f||_2 = {rep.lp:.3f}")
print(f"  corrected constant {rep.c_corrected:.3f}: "
      f"{rep.c_corrected:.3f} <= {rep.weak:.3f}  -> {rep.lower_ok}")
print(f"  inverted prefactor {rep.c_inverted:.3f}: "
      f"{rep.c_inverted:.3f} <= {rep.weak:.3f}  -> {rep.inverted_lower_ok}")

rng = np.random.default_rng(0)
bad = 0
for _ in range(200):
    values = rng.lognormal(sigma=2.0, size=50)
    r = analysis.lorentz_sandwich_check(values, 0.02, p=2.5, beta=1.0)
    assert r.lower_ok and r.upper_ok
    bad += not r.inverted_lower_ok
print(f"\n200 random fields: corrected sandwich always holds; "
      f"inverted prefactor fails on {bad} of them")

grid = gb.build_grid(2, 1.0, 257)
radius = grid.distances((0.0, 0.0))
mask = (radius <= 1.0) & (radius >= 4 * grid.h)
norm = analysis.weak_lorentz_norm(1.0 / radius[mask], grid.h**2, p=2.0)
print(f"\n|| |x|^-1 ||_(2,inf) on the unit disk: {norm:.4f}   "
      f"(sqrt(pi) = {np.sqrt(np.pi):.4f})")
