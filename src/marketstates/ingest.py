"""Price-panel loading, continuity filtering, forward fill, and log-returns.

Input CSV layout: header ``date,TICKER1,TICKER2,...`` with ISO-8601 dates in
the first column and decimal adjusted closing prices in the rest.  A missing
price is an empty cell or a literal ``NaN`` (any case).  Only rows present in
the file count as trading days; dates are carried as strings and never
resampled.
"""

from __future__ import annotations

import csv
import datetime
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DataError
from .serialize import read_json, write_json

_MISSING = {"", "nan"}


@dataclass(frozen=True)
class ContinuityPolicy:
    """Continuity rule applied to raw (unfilled) price columns."""

    max_consecutive_missing: int = 2


@dataclass
class PricePanel:
    """Gap-free adjusted closing prices for the retained tickers.

    ``prices`` is an N x T_tot float matrix, one row per ticker, one column
    per trading date.  ``dropped`` records the tickers removed by the
    continuity policy together with a human-readable reason.
    """

    tickers: list[str]
    dates: list[str]
    prices: np.ndarray
    sector_of: dict[str, str] | None = None
    dropped: dict[str, str] = field(default_factory=dict)

    @property
    def n_stocks(self) -> int:
        return len(self.tickers)

    @property
    def n_days(self) -> int:
        return len(self.dates)

    def validate(self) -> None:
        if self.prices.shape != (len(self.tickers), len(self.dates)):
            raise DataError(
                f"price matrix shape {self.prices.shape} does not match "
                f"{len(self.tickers)} tickers x {len(self.dates)} dates"
            )
        if self.prices.size and not np.all(self.prices > 0):
            raise DataError("price panel contains non-positive entries")
        if not np.all(np.isfinite(self.prices)):
            raise DataError("price panel contains non-finite entries")


@dataclass
class ReturnPanel:
    """Daily log-returns derived from a PricePanel.

    Column t holds ln(price[t+1]) - ln(price[t]) and is dated at the start of
    the interval, so ``dates`` has one entry fewer than the price panel.
    """

    tickers: list[str]
    dates: list[str]
    returns: np.ndarray
    sector_of: dict[str, str] | None = None

    @property
    def n_stocks(self) -> int:
        return len(self.tickers)

    @property
    def n_returns(self) -> int:
        return len(self.dates)


def _parse_iso_dates(raw: list[str]) -> None:
    prev = None
    for value in raw:
        try:
            current = datetime.date.fromisoformat(value)
        except ValueError as exc:
            raise DataError(f"bad date {value!r}: {exc}") from exc
        if prev is not None and current <= prev:
            raise DataError(f"dates are not strictly increasing at {value!r}")
        prev = current


def _clean_column(raw: tuple[str, ...]) -> np.ndarray | None:
    """The column as floats when every cell is a finite price > 0, else None.

    One ``float`` per cell and no per-cell branching, so a gap-free column
    costs only the conversion.
    """
    try:
        values = np.fromiter(map(float, raw), float, len(raw))
    except ValueError:
        return None
    if np.isfinite(values).all() and (values > 0).all():
        return values
    return None


def _longest_run(flags: np.ndarray) -> int:
    """Length of the longest run of True in a boolean vector."""
    edges = np.diff(flags.astype(np.int8), prepend=0, append=0)
    return int((np.flatnonzero(edges == -1) - np.flatnonzero(edges == 1)).max(initial=0))


def _filter_column(raw: tuple[str, ...], policy: ContinuityPolicy) -> tuple[np.ndarray | None, str]:
    """Apply the continuity rules to one raw ticker column.

    Returns (filled values, "") on success or (None, reason) when the ticker
    must be dropped.  A column with a missing, NaN, infinite, non-positive or
    unparsable cell goes cell by cell: gaps are tested on the raw column
    first, then the survivors are forward-filled.
    """
    clean = _clean_column(raw)
    if clean is not None:
        return clean, ""
    values = np.full(len(raw), np.nan)
    for i, cell in enumerate(raw):
        token = cell.strip()
        if token.lower() in _MISSING:
            continue
        try:
            price = float(token)
        except ValueError:
            return None, f"unparsable price {token!r} on {i + 1}-th row"
        if not math.isfinite(price) or price <= 0:
            return None, f"non-positive price {price} on {i + 1}-th row"
        values[i] = price

    missing = np.isnan(values)
    if missing.all():
        return None, "no prices at all"
    if missing[0]:
        return None, "missing first entry (nothing to forward-fill from)"
    longest = _longest_run(missing)
    if longest > policy.max_consecutive_missing:
        return None, (
            f"{longest} consecutive missing entries exceed the allowed "
            f"{policy.max_consecutive_missing}"
        )
    # forward fill: a missing day takes the last present day's value
    source = np.where(missing, 0, np.arange(len(values)))
    np.maximum.accumulate(source, out=source)
    return values[source], ""


def load_prices(path: str | Path, policy: ContinuityPolicy = ContinuityPolicy()) -> PricePanel:
    """Load a price CSV, drop tickers violating the continuity policy, fill gaps.

    Tickers are dropped (with a reason recorded in ``panel.dropped``) when the
    raw column has a missing first entry, more consecutive missing entries
    than the policy allows, or any non-positive/unparsable price.  Remaining
    gaps are forward-filled with the previous day's value.  A file in which
    no ticker survives raises DataError.
    """
    path = Path(path)
    try:
        with path.open(newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    if not rows or len(rows[0]) < 2:
        raise DataError(f"{path}: expected header 'date,TICKER1,...'")
    header = [h.strip() for h in rows[0]]
    if header[0].lower() != "date":
        raise DataError(f"{path}: first column must be 'date', got {header[0]!r}")
    tickers = header[1:]
    if len(set(tickers)) != len(tickers):
        raise DataError(f"{path}: duplicate ticker columns")

    body = [row for row in rows[1:] if row and any(cell.strip() for cell in row)]
    for row in body:
        if len(row) != len(header):
            raise DataError(f"{path}: row with {len(row)} fields, expected {len(header)}")
    # fresh copies: a date that is still the parsed cell's string would keep the
    # allocator arena it was read into, and every freed cell there, resident
    dates = [row[0].strip().encode().decode() for row in body]
    if not dates:
        raise DataError(f"{path}: no data rows")
    _parse_iso_dates(dates)

    kept_names: list[str] = []
    kept_cols: list[np.ndarray] = []
    dropped: dict[str, str] = {}
    columns = zip(*body)  # lazily, one column at a time
    next(columns)  # the dates
    for name, column in zip(tickers, columns):
        filled, reason = _filter_column(column, policy)
        if filled is None:
            dropped[name] = reason
        else:
            kept_names.append(name)
            kept_cols.append(filled)

    if not kept_names:
        first, reason = next(iter(dropped.items()))
        raise DataError(f"{path}: no ticker survives the continuity policy; all "
                        f"{len(dropped)} dropped, the first ({first}) for: {reason}")
    prices = np.array(kept_cols, dtype=float)
    panel = PricePanel(tickers=kept_names, dates=dates, prices=prices, dropped=dropped)
    panel.validate()
    return panel


def log_returns(panel: PricePanel) -> ReturnPanel:
    """Per-ticker log-returns: ln of tomorrow's price minus ln of today's."""
    panel.validate()
    logp = np.log(panel.prices)
    return ReturnPanel(
        tickers=list(panel.tickers),
        dates=panel.dates[:-1],
        returns=logp[:, 1:] - logp[:, :-1],
        sector_of=panel.sector_of,
    )


def load_sector_map(path: str | Path) -> dict[str, str]:
    """Read a ``ticker,sector`` CSV into a plain dict."""
    path = Path(path)
    try:
        with path.open(newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    if not rows or [h.strip().lower() for h in rows[0][:2]] != ["ticker", "sector"]:
        raise DataError(f"{path}: expected header 'ticker,sector'")
    mapping: dict[str, str] = {}
    for row in rows[1:]:
        if not row or not any(cell.strip() for cell in row):
            continue
        if len(row) < 2:
            raise DataError(f"{path}: row {row!r} lacks a sector")
        mapping[row[0].strip()] = row[1].strip()
    return mapping


def save_panel(panel: PricePanel, path: str | Path) -> None:
    """Write a panel as CSV plus a ``<path>.meta.json`` sidecar.

    Floats are written with repr so the round trip is bit-exact.
    """
    path = Path(path)
    with path.open("w", newline="\n") as fh:
        fh.write(",".join(["date"] + panel.tickers) + "\n")
        for date, row in zip(panel.dates, panel.prices.T.astype(float, copy=False).tolist()):
            fh.write(",".join([date, *map(repr, row)]) + "\n")
    meta = {
        "n_stocks": panel.n_stocks,
        "n_days": panel.n_days,
        "dropped": panel.dropped,
        "sector_of": panel.sector_of,
    }
    write_json(path.with_name(path.name + ".meta.json"), meta)


def load_panel(path: str | Path) -> PricePanel:
    """Read back a panel written by save_panel (sidecar optional)."""
    path = Path(path)
    panel = load_prices(path, ContinuityPolicy(max_consecutive_missing=0))
    sidecar = path.with_name(path.name + ".meta.json")
    if sidecar.exists():
        meta = read_json(sidecar)
        if not isinstance(meta, dict):
            raise DataError(f"{sidecar} does not hold a JSON object")
        panel.sector_of = meta.get("sector_of")
        panel.dropped = meta.get("dropped", {})
    return panel
