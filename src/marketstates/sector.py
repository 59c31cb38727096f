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

from .corrmat import EpochCorrelationSeries, _epochs_per_chunk
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
    """Sorted sector names and the N x N_S one-hot membership matrix."""
    unmapped = [t for t in tickers if t not in sector_of]
    if unmapped:
        shown = ", ".join(unmapped[:5])
        raise DataError(f"{len(unmapped)} stock(s) with no sector assignment: {shown}")
    sectors = sorted({sector_of[t] for t in tickers})
    column_of = {name: j for j, name in enumerate(sectors)}
    membership = np.zeros((len(tickers), len(sectors)))
    for row, ticker in enumerate(tickers):
        membership[row, column_of[sector_of[ticker]]] = 1.0
    return sectors, membership


def _block_averages(chunk: np.ndarray, membership: np.ndarray,
                    include_self_pairs: bool) -> np.ndarray:
    """Average each epoch of ``chunk`` over sector blocks; a singleton's undefined diagonal is 1.0.

    One batched product serves the chunk, and each epoch gets the bits of the 2-D product.
    """
    sizes = membership.sum(axis=0)
    sums = membership.T @ chunk @ membership
    pairs = np.outer(sizes, sizes)
    if not include_self_pairs:
        at = np.arange(len(sizes))
        sums[:, at, at] -= (membership.T @ chunk.diagonal(axis1=1, axis2=2)[:, :, None])[:, :, 0]
        pairs[at, at] = sizes * (sizes - 1.0)
    averaged = sums / np.where(pairs == 0.0, 1.0, pairs)
    averaged[:, pairs == 0.0] = 1.0
    return (averaged + averaged.transpose(0, 2, 1)) / 2.0


def sector_series(series: EpochCorrelationSeries, sector_of,
                  include_self_pairs: bool = False) -> EpochCorrelationSeries:
    """Collapse every epoch's N x N matrix to its N_S x N_S sector means.

    Entry (a, b) is the mean of C_ij over i in sector a and j in sector b; on
    the diagonal a == b the pairs i == j are excluded unless
    ``include_self_pairs`` is set.  A singleton sector leaves its
    intra-sector mean undefined, which falls back to 1.0 with a warning.
    The result is a series like its source: the sorted sector names as
    labels and the source epochs' dates.
    """
    sectors, membership = _sector_layout(series.labels, sector_of)
    sizes = membership.sum(axis=0)
    if not include_self_pairs and (sizes == 1).any():
        names = ", ".join(sectors[j] for j in np.flatnonzero(sizes == 1))
        warnings.warn(
            f"singleton sector(s) {names}: intra-sector mean undefined, set to 1.0",
            RuntimeWarning,
            stacklevel=2,
        )
    averages = np.empty((series.n_epochs, len(sectors), len(sectors)))
    step = _epochs_per_chunk(series.n_labels ** 2 * 8)  # about 512 KB of unpacked epochs
    for e0, chunk in series.values_chunks(step):
        averages[e0:e0 + len(chunk)] = _block_averages(chunk, membership, include_self_pairs)
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
