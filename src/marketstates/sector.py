"""Sector-level market states from block-averaged correlation matrices.

Each stock-level correlation matrix collapses to an N_S x N_S matrix whose
(a, b) entry is the mean correlation between the stocks of sector a and those
of sector b; on the diagonal blocks the self-pairs i == j are excluded by
default, so the diagonal is an intra-sector coupling, not identically 1.
These small matrices go through the same fit function as the stock-level
matrices (``states.fit_series``), and the two state sequences are compared
epoch by epoch as a displacement histogram.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .corrmat import EpochCorrelationSeries
from .errors import DataError

#: Published operating points for the sector-level fit, by market.  The
#: Nikkei 225 has two: the grid optimum and the point preferred for the final
#: classification because of its cleaner transition structure.
SECTOR_PRESETS: dict[str, tuple[int, float]] = {
    "sp500": (5, 0.2),
    "nikkei225-optimum": (5, 0.3),
    "nikkei225-preferred": (8, 0.7),
}


@dataclass
class DisplacementReport:
    """Per-epoch differences between two state sequences.

    ``histogram`` maps each displacement d (sector state minus stock state)
    to an epoch count over the contiguous symmetric range -m..+m, m being the
    largest |d| observed, so zero-count bins inside the range stay visible.
    """

    histogram: dict[int, int]
    max_abs_displacement: int

    @property
    def n_epochs(self) -> int:
        return sum(self.histogram.values())


def _sector_layout(tickers, sector_of) -> tuple[list[str], np.ndarray]:
    """Sorted sector names and each stock's index among them."""
    unmapped = [t for t in tickers if t not in sector_of]
    if unmapped:
        shown = ", ".join(unmapped[:5])
        raise DataError(f"{len(unmapped)} stock(s) with no sector assignment: {shown}")
    sectors = sorted({sector_of[t] for t in tickers})
    column_of = {name: j for j, name in enumerate(sectors)}
    return sectors, np.array([column_of[sector_of[t]] for t in tickers], dtype=np.intp)


def sector_series(series: EpochCorrelationSeries, sector_of,
                  include_self_pairs: bool = False) -> EpochCorrelationSeries:
    """Collapse every epoch's N x N matrix to its N_S x N_S sector means.

    Entry (a, b) is the mean of C_ij over i in sector a and j in sector b; on
    the diagonal a == b the pairs i == j are excluded unless
    ``include_self_pairs`` is set.  A singleton sector leaves its
    intra-sector mean undefined, which falls back to 1.0 with a warning.
    The result is a series like its source: the sorted sector names as
    labels and the source epochs' dates.  The means come from the packed
    rows (``series.block_sums``), with bits that depend on neither the
    chunking nor the BLAS.
    """
    sectors, index = _sector_layout(series.labels, sector_of)
    lone = [sectors[j] for j in np.flatnonzero(np.bincount(index) == 1)]
    if lone and not include_self_pairs:
        warnings.warn(f"singleton sector(s) {', '.join(lone)}: intra-sector mean undefined, "
                      "set to 1.0", RuntimeWarning, stacklevel=2)
    averages, pairs = series.block_sums(index, include_self_pairs)
    averages /= np.where(pairs == 0.0, 1.0, pairs)
    averages[:, pairs == 0.0] = 1.0
    return EpochCorrelationSeries(sectors, averages, series.start_dates, series.end_dates)


def displacement(stock_states, sector_states) -> DisplacementReport:
    """Histogram of per-epoch state differences (sector minus stock).

    Both sequences must use the ascending-mean-correlation numbering so a
    positive displacement means the sector view sits in a higher-correlation
    state than the stock view for that epoch.
    """
    stock = np.asarray(stock_states, dtype=int)
    sector = np.asarray(sector_states, dtype=int)
    if stock.ndim != 1 or sector.ndim != 1:
        raise ValueError("state sequences must be 1-D")
    if stock.shape != sector.shape:
        raise ValueError(
            f"length mismatch: {stock.size} stock states vs {sector.size} sector states"
        )
    if stock.size == 0:
        raise ValueError("empty state sequences")
    deltas = sector - stock
    reach = int(np.abs(deltas).max())
    histogram = {d: int((deltas == d).sum()) for d in range(-reach, reach + 1)}
    return DisplacementReport(histogram=histogram, max_abs_displacement=reach)
