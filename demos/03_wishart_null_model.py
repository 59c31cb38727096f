"""
The Wishart null model for correlation noise
============================================

Correlation matrices of completely independent series still show structure:
their eigenvalues spread over a band described by an explicit analytic
density.  Comparing a market spectrum against this null band is the standard
way to tell signal from noise.  Here we sample the ensemble, check the
agreement, and see where the band sits for different aspect ratios Q = T/N.
"""

import numpy as np

from marketstates import (
    WishartSpec,
    l1_to_analytic,
    mp_density,
    mp_support,
    outside_support_fraction,
    pooled_eigenvalues,
    spectrum_from_eigenvalues,
)

# --- 1. sample an ensemble ---------------------------------------------------
spec = WishartSpec(N=100, T=400, ensemble_size=30, seed=0)
eigenvalues = pooled_eigenvalues(spec)
print(f"N={spec.N}, T={spec.T} -> Q={spec.Q}; pooled {eigenvalues.size} eigenvalues")

# --- 2. compare the histogram to the analytic density ------------------------
density = spectrum_from_eigenvalues(eigenvalues, bins=60)
lo, hi = mp_support(spec.Q)
print(f"analytic support: [{lo}, {hi}]")
print(f"observed range:   [{eigenvalues.min():.4f}, {eigenvalues.max():.4f}]")
print(f"L1 distance between histogram and analytic density: {l1_to_analytic(density, spec.Q):.4f}")
print(f"fraction outside the analytic band: {outside_support_fraction(eigenvalues, spec.Q):.4%}\n")

# --- 3. a rough text plot of the density -------------------------------------
grid = np.linspace(lo, hi, 13)[1:-1]
values = mp_density(grid, spec.Q)
for x, v in zip(grid, values):
    print(f"  lambda={x:5.2f} | {'#' * int(round(25 * v))}")

# --- 4. the band narrows as Q grows ------------------------------------------
print("\nsupport of the null band as observations lengthen:")
for q in (1.0, 2.0, 4.0, 16.0):
    lo, hi = mp_support(q)
    print(f"  Q={q:5.1f}: [{lo:.4f}, {hi:.4f}]")
print("long windows (large Q) leave noise little room; short windows smear it.")
