"""Event windows as trajectories in correlation-matrix space.

A 125-trading-day window centered on a crash day is turned into epoch
correlation matrices, their pairwise dissimilarities, and a 3-D map whose
per-axis coordinate variances summarize the window's shape: a critical event
drags the market far along one direction and back, so the spread across the
second axis collapses relative to the first.  The variance ratio var_y/var_x
below a threshold (default 0.4) classifies the window as CRITICAL.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corrmat import EpochCorrelationSeries, EpochSpec, _check_epsilon, epoch_correlations
from .errors import DataError
from .geometry import _check_workers, embed_epochs
from .ingest import ReturnPanel, read_csv_pairs
from .serialize import check_csv_names

CRITICAL = "CRITICAL"
NORMAL = "NORMAL"
DEFAULT_WIDTH_DAYS = 125
DEFAULT_THRESHOLD = 0.4


@dataclass
class EventWindow:
    """A symmetric slice of a return panel around one event day.

    ``start_date``/``end_date`` are the first and last return days of the
    slice (a return day is dated at the start of its one-day interval), and
    ``epochs`` holds the raw correlation matrices of every epoch that fits
    in the window — the count is derived from the slice length, never fixed.
    """

    name: str
    start_date: str
    end_date: str
    epochs: EpochCorrelationSeries

    @property
    def n_epochs(self) -> int:
        return self.epochs.n_epochs


@dataclass
class TrajectoryReport:
    """Shape summary of one event window's 3-D trajectory.

    Axes follow the map's eigenvalue order, so var_x is generically the
    largest; ``axis_order_ok`` records whether var_x >= var_y >= var_z
    actually held.  A window whose matrices never change has no trajectory:
    ``zero_variance`` is set, var_ratio is NaN, and the class is NORMAL.
    """

    name: str
    start_date: str
    end_date: str
    coordinates: np.ndarray
    var_x: float
    var_y: float
    var_z: float
    var_ratio: float
    classification: str
    threshold: float = DEFAULT_THRESHOLD
    epsilon: float = 0.0
    zero_variance: bool = False
    axis_order_ok: bool = True

    @property
    def n_epochs(self) -> int:
        return self.coordinates.shape[0]


def _check_width(width_days: int) -> None:
    if width_days < 3 or width_days % 2 == 0:
        raise ValueError(f"width must be an odd number of price days >= 3, got {width_days}")


def _check_threshold(threshold: float) -> None:
    if not math.isfinite(threshold):
        raise ValueError(f"threshold must be finite, got {threshold}")


def _window(panel: ReturnPanel, lo: int, hi: int, name: str, spec: EpochSpec) -> EventWindow:
    """The window of return columns lo..hi-1, dated by the slice's first and last day."""
    piece = ReturnPanel(list(panel.tickers), panel.dates[lo:hi], panel.returns[:, lo:hi])
    return EventWindow(name, piece.dates[0], piece.dates[-1], epoch_correlations(piece, spec))


def cut_window(panel: ReturnPanel, center_date: str,
               width_days: int = DEFAULT_WIDTH_DAYS, name: str = "",
               spec: EpochSpec = EpochSpec()) -> EventWindow:
    """Slice ``width_days`` price days centered on ``center_date``.

    An odd width keeps the event day exactly in the middle: half = (width-1)/2
    price days on each side, which is width-1 return columns.  Raises when the
    center date is absent or either side falls short of the panel.
    """
    _check_width(width_days)
    try:
        center = panel.dates.index(center_date)
    except ValueError:
        raise DataError(f"center date {center_date!r} is not a trading day of the panel") from None
    half = (width_days - 1) // 2
    n = panel.n_returns
    if center - half < 0:
        raise DataError(
            f"window needs {half} price days before {center_date}, only {center} available"
        )
    if center + half > n:
        raise DataError(
            f"window needs {half} price days after {center_date}, only {n - center} available"
        )
    return _window(panel, center - half, center + half, name or center_date, spec)


def window_from_dates(panel: ReturnPanel, start_date: str, end_date: str,
                      name: str = "", spec: EpochSpec = EpochSpec()) -> EventWindow:
    """Slice a window by explicit first/last return day instead of center+width."""
    try:
        lo = panel.dates.index(start_date)
        hi = panel.dates.index(end_date)
    except ValueError as exc:
        raise DataError(f"window boundary is not a trading day of the panel: {exc}") from None
    if hi <= lo:
        raise DataError(f"end date {end_date!r} does not follow start date {start_date!r}")
    return _window(panel, lo, hi + 1, name or f"{start_date}..{end_date}", spec)


def analyze_trajectory(window: EventWindow, threshold: float = DEFAULT_THRESHOLD,
                       epsilon: float = 0.0, dim: int = 3) -> TrajectoryReport:
    """Map a window's epochs to ``dim`` axes and classify by variance ratio.

    var_ratio = var(axis 2) / var(axis 1) over the epoch coordinates
    (population variances); CRITICAL when the ratio is below the threshold.
    ``epsilon`` power-maps the window's raw matrices before the
    dissimilarities are taken (0 analyzes them as they are).  A threshold
    that is not finite raises ValueError before the map is built.
    """
    _check_threshold(threshold)
    if dim < 2:
        raise ValueError(f"need at least 2 axes for a variance ratio, got dim={dim}")
    coords = embed_epochs(window.epochs, epsilon, dim).coordinates
    variances = coords.var(axis=0)
    var_x, var_y = float(variances[0]), float(variances[1])
    var_z = float(variances[2]) if dim >= 3 else 0.0
    zero_variance = var_x == 0.0
    if zero_variance:
        var_ratio = math.nan
        classification = NORMAL
    else:
        var_ratio = var_y / var_x
        classification = CRITICAL if var_ratio < threshold else NORMAL
    return TrajectoryReport(
        name=window.name,
        start_date=window.start_date,
        end_date=window.end_date,
        coordinates=coords,
        var_x=var_x,
        var_y=var_y,
        var_z=var_z,
        var_ratio=var_ratio,
        classification=classification,
        threshold=threshold,
        epsilon=epsilon,
        zero_variance=zero_variance,
        axis_order_ok=bool(var_x >= var_y >= var_z),
    )


def load_event_catalog(path: str | Path) -> list[tuple[str, str]]:
    """Read an event list CSV with header ``name,center_date``, one row per name."""
    catalog = read_csv_pairs(path, "name", "center_date")
    check_csv_names(catalog, "event", path)
    return list(catalog.items())


def classify_catalog(panel: ReturnPanel, catalog, threshold: float = DEFAULT_THRESHOLD,
                     width_days: int = DEFAULT_WIDTH_DAYS, epsilon: float = 0.0,
                     spec: EpochSpec = EpochSpec(), workers: int = 1,
                     ) -> tuple[list[TrajectoryReport], dict[str, str]]:
    """Cut and analyze every cataloged event; failures are collected, not fatal.

    Returns (reports in catalog order, {event name: error message}); a name
    listed twice, a threshold that is not finite, a width no window can
    have, a negative epsilon or ``workers`` below 1 raises ValueError before
    any window runs.  Up to ``workers`` threads share ``panel``, each
    holding one window's epoch stack at a time.
    """
    _check_workers(workers)
    _check_threshold(threshold)
    _check_width(width_days)
    _check_epsilon(epsilon)
    entries = list(catalog)
    seen: set[str] = set()
    for name, _ in entries:
        if name in seen:
            raise ValueError(f"event name {name!r} is listed twice in the catalog")
        seen.add(name)

    def classify(name: str, center: str) -> TrajectoryReport | str:
        try:
            window = cut_window(panel, center, width_days=width_days, name=name, spec=spec)
            return analyze_trajectory(window, threshold=threshold, epsilon=epsilon)
        except Exception as exc:  # noqa: BLE001 - row failures must not kill the batch
            return f"{type(exc).__name__}: {exc}"

    threads = min(workers, len(entries))
    if threads <= 1:
        outcomes = [classify(name, center) for name, center in entries]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            outcomes = list(pool.map(classify, *zip(*entries)))
    reports = [outcome for outcome in outcomes if isinstance(outcome, TrajectoryReport)]
    failures = {name: outcome for (name, _), outcome in zip(entries, outcomes)
                if isinstance(outcome, str)}
    return reports, failures
