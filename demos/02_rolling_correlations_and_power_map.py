"""
Rolling correlation epochs and the power map
============================================

The core object of the library is a sequence of correlation matrices, one
per overlapping "epoch" of trading days.  Short epochs are noisy and — when
the window is shorter than the number of stocks — singular.  The power map
x -> sign(x) |x|^(1+eps) damps small entries and lifts the degenerate zero
eigenvalues without touching the matrix structure much.
"""

import numpy as np

from marketstates import (
    EpochSpec,
    ReturnPanel,
    epoch_correlations,
    epoch_count,
    power_map,
)

# --- 1. a toy return panel --------------------------------------------------
rng = np.random.default_rng(7)
n_stocks, n_days = 6, 60
panel = ReturnPanel(
    tickers=[f"s{i}" for i in range(n_stocks)],
    dates=[f"d{i:03d}" for i in range(n_days)],
    returns=rng.standard_normal((n_stocks, n_days)),
)

# --- 2. overlapping epochs ---------------------------------------------------
spec = EpochSpec(window=20, shift=1)
series = epoch_correlations(panel, spec)
print(f"{n_days} return days, window {spec.window}, shift {spec.shift}"
      f" -> {series.n_epochs} epochs (formula: {epoch_count(n_days, spec)})")
print(f"epoch 1 covers {series.start_dates[0]}..{series.end_dates[0]}")
print(f"epoch 2 starts {series.start_dates[1]} (one day later)\n")

# values_stack makes a dense (epochs, N, N) copy of a range of epochs, by
# default all of them; these 41 small epochs fit in memory at once
stack = series.values_stack()
# consecutive epochs share window-1 days, so they are highly similar:
delta = np.abs(stack[0] - stack[1]).mean()
far = np.abs(stack[0] - stack[-1]).mean()
print(f"mean |delta| to the next epoch:  {delta:.4f}")
print(f"mean |delta| to the last epoch:  {far:.4f}\n")

# --- 3. the power map on a singular correlation matrix ----------------------
# 40 stocks observed over 20 days: rank <= 19, so most eigenvalues are 0.
short = ReturnPanel(
    tickers=[f"w{i}" for i in range(40)],
    dates=[f"d{i:03d}" for i in range(20)],
    returns=rng.standard_normal((40, 20)),
)
(wide,) = epoch_correlations(short, EpochSpec(window=20)).values_stack(0, 1)
before = np.linalg.eigvalsh(wide)
lifted = np.linalg.eigvalsh(power_map(wide, 0.001))
print("eigenvalues within 1e-10 of zero,")
print(f"  before the power map: {np.sum(np.abs(before) < 1e-10)}")
print(f"  after eps = 0.001:    {np.sum(np.abs(lifted) < 1e-10)}")

# eps = 0 is an exact no-op; the map only bends values away from zero:
print(f"eps=0 returns the identical matrix: {np.array_equal(power_map(wide, 0.0), wide)}")
strong, weak = 0.8, 0.05
print(f"a strong entry {strong} maps to {power_map(np.array(strong), 0.5):.4f}; "
      f"a weak entry {weak} maps to {power_map(np.array(weak), 0.5):.4f}")
