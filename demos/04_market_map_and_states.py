"""
From correlation epochs to a market map and discrete states
===========================================================

Every epoch gives one correlation matrix; the mean absolute difference
between two epochs' matrices is a distance.  Classical multidimensional
scaling turns that distance table into a low-dimension map, and k-means on
the map yields "market states" — recurring correlation structures, numbered
by ascending mean correlation so the highest state is the most collective.
"""

import numpy as np

from marketstates import (
    EpochSpec,
    ReturnPanel,
    best_kmeans,
    build_state_model,
    classical_mds,
    epoch_correlations,
    similarity_matrix,
    step_fidelity,
)

# --- 1. a market with two regimes --------------------------------------------
# One shared factor whose strength doubles inside a stress period.
rng = np.random.default_rng(3)
n, days = 15, 300
stress = slice(130, 190)
load = np.full(days, 0.3)
load[stress] = 0.8
factor = rng.standard_normal(days)
returns = np.sqrt(load) * factor + np.sqrt(1 - load) * rng.standard_normal((n, days))
panel = ReturnPanel(
    tickers=[f"s{i:02d}" for i in range(n)],
    dates=[f"d{i:03d}" for i in range(days)],
    returns=returns,
)

# --- 2. epochs, distances, map ------------------------------------------------
series = epoch_correlations(panel, EpochSpec(window=20, shift=1))
zeta = similarity_matrix(series)
print(f"{series.n_epochs} epochs -> {zeta.shape[0]}x{zeta.shape[1]} distance table")

embedding = classical_mds(zeta, D=3)
print(f"3-D map spans x: [{embedding.coordinates[:, 0].min():.3f}, "
      f"{embedding.coordinates[:, 0].max():.3f}]")

# how faithful is a D-dimensional map to the measured steps zeta(t, t+1)?
wider = classical_mds(zeta, D=4)
print("step-pattern fidelity by dimension:")
for d, value in step_fidelity(wider.coordinates, np.diagonal(zeta, 1), [1, 2, 3, 4]):
    print(f"  D={d}: {value:.4f}")

# --- 3. cluster the map into states --------------------------------------------
run = best_kmeans(embedding.coordinates, k=2, n_inits=10, seed=0)
model = build_state_model(series, run)
print(f"\nk=2 states, mean correlation per state: "
      f"{[round(v, 3) for v in model.state_mean_corr]}")

occupancy = model.occupancy()
print(f"occupancy: S1={occupancy[0]} epochs, S2={occupancy[1]} epochs")

# The stress period should congregate in the high-correlation state S2:
stressed_epochs = [t for t in range(series.n_epochs) if 130 <= t < 170]
in_s2 = np.mean(model.state_of[stressed_epochs] == 2)
print(f"stress epochs assigned to S2: {in_s2:.0%}")

print("\ntransition counts (rows: from, cols: to):")
print(model.transition_counts)
print("states mostly persist: the diagonal dominates.")
