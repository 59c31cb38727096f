"""
Event windows as trajectories: telling crashes from calm
========================================================

Cut 125 trading days around a date, map the window's correlation epochs into
3-D, and look at the shape of the resulting trajectory.  Around a crash the
market sweeps far along the leading axis (a cigar); in calm times it wanders
isotropically (a blob).  The variance ratio var_y / var_x quantifies this:
below 0.4 reads as CRITICAL, above as NORMAL.
"""

import numpy as np

from marketstates import (
    ReturnPanel,
    analyze_trajectory,
    classify_catalog,
    cut_window,
)

# --- 1. a long market history with one crash ----------------------------------
rng = np.random.default_rng(21)
days = 600
rho = np.full(days, 0.1)
rho[280:320] = 0.9  # forty days of near-lockstep movement
factor = rng.standard_normal(days)
returns = np.sqrt(rho) * factor + np.sqrt(1 - rho) * rng.standard_normal((12, days))
dates = [f"day-{i:04d}" for i in range(days)]  # panels accept any ordered labels
panel = ReturnPanel(tickers=[f"s{i:02d}" for i in range(12)],
                    dates=dates, returns=returns)

# --- 2. a window centred on the crash vs a calm one -----------------------------
crash = cut_window(panel, dates[300], width_days=125, name="crash")
calm = cut_window(panel, dates[480], width_days=125, name="calm")
print(f"each window: {crash.n_epochs} epochs "
      f"({crash.start_date} .. {crash.end_date})\n")

for window in (crash, calm):
    report = analyze_trajectory(window, threshold=0.4)
    print(f"{report.name:>6}: var_x={report.var_x:.4f} var_y={report.var_y:.4f} "
          f"ratio={report.var_ratio:.3f} -> {report.classification}")

# --- 3. the step-length signature ------------------------------------------------
# Crash windows show intermittent large jumps between consecutive epochs:
# the distance on the map from each epoch to the next.
crash_steps, calm_steps = (
    np.linalg.norm(np.diff(analyze_trajectory(window).coordinates, axis=0), axis=1)
    for window in (crash, calm))
print(f"\nlargest step / median step: crash {crash_steps.max() / np.median(crash_steps):.1f}, "
      f"calm {calm_steps.max() / np.median(calm_steps):.1f}")

# --- 4. batch classification from an event catalog -------------------------------
catalog = [("the crash", dates[300]), ("before", dates[150]), ("after", dates[470])]
reports, failures = classify_catalog(panel, catalog, width_days=125)
print("\ncatalog:")
for report in reports:
    print(f"  {report.name:>9}: ratio={report.var_ratio:.3f} {report.classification}")
print(f"failures: {failures or 'none'}")
