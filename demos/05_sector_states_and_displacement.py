"""
Sector-averaged states and the displacement histogram
=====================================================

Averaging a stock correlation matrix inside and across sectors yields a much
smaller matrix per epoch that keeps the collective structure.  States fitted
on those sector matrices can be compared epoch-by-epoch with the stock-level
states; the integer difference ("displacement") is usually 0 or +/-1, which
is what makes the cheap sector view a usable surrogate.
"""

import numpy as np

from marketstates import (
    EpochSpec,
    ReturnPanel,
    displacement,
    epoch_correlations,
    fit_series,
    sector_series,
)

# --- 1. three sectors, one market-wide stress window ---------------------------
rng = np.random.default_rng(9)
sectors = {"banks": 5, "tech": 5, "mining": 5}
tickers, sector_of = [], {}
for name, count in sectors.items():
    for i in range(count):
        ticker = f"{name[:2].upper()}{i}"
        tickers.append(ticker)
        sector_of[ticker] = name

days = 280
market = np.full(days, 0.25)
market[120:180] = 0.75  # stress: everything moves together
factor = rng.standard_normal(days)
rows = []
for ticker in tickers:
    sector_factor = rng.standard_normal(days) * 0.3
    rows.append(np.sqrt(market) * factor + sector_factor
                + np.sqrt(1 - market) * rng.standard_normal(days) * 0.7)
panel = ReturnPanel(tickers=tickers, dates=[f"d{i:03d}" for i in range(days)],
                    returns=np.array(rows))

# --- 2. every epoch, averaged by sector ----------------------------------------
series = epoch_correlations(panel, EpochSpec(window=20, shift=1))
by_sector = sector_series(series, sector_of)  # the same series type, sector labels
# values_stack(e, e + 1) is epoch e as a dense (1, N, N) copy; take the first
(example,) = series.values_stack(0, 1)
(small,) = by_sector.values_stack(0, 1)
print(f"stock matrix {example.shape} -> sector matrix {small.shape}")
print(f"sectors (sorted): {by_sector.labels}")
print("sector matrix for the first epoch:")
print(np.round(small, 3))
print("note the diagonal: intra-sector averages are informative, not 1.\n")

# --- 3. states at both levels, same operating point, one fit path --------------
stock_model, _, _ = fit_series(series, k=2, epsilon=0.5, n_inits=8, seed=0)
sector_model, _, _ = fit_series(by_sector, k=2, epsilon=0.5, n_inits=8, seed=0)
print(f"stock-level occupancy:  {stock_model.occupancy()}")
print(f"sector-level occupancy: {sector_model.occupancy()}")

# --- 4. displacement ------------------------------------------------------------
report = displacement(stock_model.state_of, sector_model.state_of)
print("\ndisplacement histogram (sector state minus stock state):")
for d in sorted(report.histogram):
    print(f"  d={d:+d}: {report.histogram[d]:3d} epochs")
agreement = report.histogram.get(0, 0) / report.n_epochs
print(f"sector and stock states agree on {agreement:.1%} of epochs")
