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
import itertools
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DataError
from .serialize import check_csv_names, load_arrays, read_json, save_arrays, write_json

_MISSING = {"", "nan"}


@dataclass(frozen=True)
class ContinuityPolicy:
    """Continuity rule applied to raw (unfilled) price columns."""

    max_consecutive_missing: int = 2

    def __post_init__(self) -> None:
        if self.max_consecutive_missing < 0:
            raise ValueError(
                f"the longest allowed gap must be >= 0, got {self.max_consecutive_missing}")


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
        if not np.all(np.isfinite(self.prices)):
            raise DataError("price panel contains non-finite entries")
        if self.prices.size and not np.all(self.prices > 0):
            raise DataError("price panel contains non-positive entries")


@dataclass
class ReturnPanel:
    """Daily log-returns derived from a PricePanel.

    Column t holds ln(price[t+1]) - ln(price[t]) and is dated at the start of
    the interval, so ``dates`` has one entry fewer than the price panel.
    """

    tickers: list[str]
    dates: list[str]
    returns: np.ndarray

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


def _csv_rows(path: str | Path) -> list[list[str]]:
    try:
        with Path(path).open(newline="") as fh:
            return list(csv.reader(fh))
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc


def _numeric_halves(lines, dates: list[str]):
    """Each data row's text after its first comma; its date goes to ``dates``.

    A blank row is skipped, as the csv path skips it.  A quote raises
    ValueError, since quoting is the csv path's to decide, and so does an
    empty cell between two others, so that a file with gaps stops here
    rather than at the end of the parse.
    """
    for line in lines:
        if not line.strip():
            continue
        if '"' in line or ",," in line:
            raise ValueError("a quote or an empty cell")
        date, _, rest = line.partition(",")
        dates.append(date.strip())
        yield rest


def _read_clean(path: str | Path) -> tuple[list[str], list[str], np.ndarray] | None:
    """Header, dates and (tickers x days) prices of a file with no gap or odd cell; else None.

    The rows stream through one ``np.loadtxt`` pass, so every price is parsed
    in C and only the numbers stay.  ``loadtxt`` converts through
    ``PyOS_string_to_double``, as ``float()`` does, and accepts no cell
    ``float()`` rejects.  A quote, a row whose field count is not the
    header's, or a cell that is not a finite price > 0 gives None, and so
    does any file the csv path has to judge.
    """
    dates: list[str] = []
    try:
        with Path(path).open() as fh:
            header = fh.readline().rstrip("\n")
            rows = _numeric_halves(fh, dates)
            first = next(rows, None)  # loadtxt warns on input with no rows
            if '"' in header or first is None:
                return None
            values = np.loadtxt(itertools.chain((first,), rows), delimiter=",",
                                comments=None, dtype=float, ndmin=2)
    except (OSError, ValueError):
        return None
    fields = header.split(",")
    if (values.shape != (len(dates), len(fields) - 1)
            or not (np.isfinite(values).all() and (values > 0).all())):
        return None
    return fields, dates, np.ascontiguousarray(values.T)


def _tickers(header: list[str], path: str | Path) -> list[str]:
    """The ticker names of a header row, checked."""
    if len(header) < 2:
        raise DataError(f"{path}: expected header 'date,TICKER1,...'")
    header = [h.strip() for h in header]
    if header[0].lower() != "date":
        raise DataError(f"{path}: first column must be 'date', got {header[0]!r}")
    tickers = header[1:]
    if len(set(tickers)) != len(tickers):
        raise DataError(f"{path}: duplicate ticker columns")
    check_csv_names(tickers, "ticker", path)
    return tickers


def load_prices(path: str | Path, policy: ContinuityPolicy = ContinuityPolicy()) -> PricePanel:
    """Load a price CSV, drop tickers violating the continuity policy, fill gaps.

    Tickers are dropped (with a reason recorded in ``panel.dropped``) when the
    raw column has a missing first entry, more consecutive missing entries
    than the policy allows, or any non-positive/unparsable price.  Remaining
    gaps are forward-filled with the previous day's value.  A file in which
    no ticker survives raises DataError.

    A file whose every cell is a finite price > 0 is parsed in one C pass;
    any other goes through ``csv.reader`` and the filter column by column.
    """
    clean = _read_clean(path)
    if clean is not None:
        header, dates, prices = clean
        tickers = _tickers(header, path)
        _parse_iso_dates(dates)
        panel = PricePanel(tickers=tickers, dates=dates, prices=prices)
        panel.validate()
        return panel

    rows = _csv_rows(path)
    tickers = _tickers(rows[0] if rows else [], path)
    body = [row for row in rows[1:] if row and any(cell.strip() for cell in row)]
    for row in body:
        if len(row) != len(tickers) + 1:
            raise DataError(f"{path}: row with {len(row)} fields, expected {len(tickers) + 1}")
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
    return ReturnPanel(list(panel.tickers), panel.dates[:-1], logp[:, 1:] - logp[:, :-1])


def read_csv_pairs(path: str | Path, key: str, value: str) -> dict[str, str]:
    """A ``key,value`` CSV as a dict; a row without a value or a repeated key is a DataError."""
    rows = _csv_rows(path)
    if not rows or [h.strip().lower() for h in rows[0][:2]] != [key, value]:
        raise DataError(f"{path}: expected header '{key},{value}'")
    pairs: dict[str, str] = {}
    for row in rows[1:]:
        if not row or not any(cell.strip() for cell in row):
            continue
        if len(row) < 2 or not row[1].strip():
            raise DataError(f"{path}: row {row!r} lacks a {value.replace('_', ' ')}")
        name = row[0].strip()
        if name in pairs:
            raise DataError(f"{path}: {key} {name!r} is listed twice")
        pairs[name] = row[1].strip()
    return pairs


def load_sector_map(path: str | Path) -> dict[str, str]:
    """Read a ``ticker,sector`` CSV into a plain dict, one row per ticker."""
    mapping = read_csv_pairs(path, "ticker", "sector")
    check_csv_names(mapping.values(), "sector", path)
    return mapping


def _sidecar(path: Path) -> Path:
    return path.with_name(path.name + ".meta.json")


def save_panel(panel: PricePanel, path: str | Path) -> None:
    """Write a panel as a stored array archive plus a ``<path>.meta.json`` sidecar.

    The archive holds ``prices`` (float64, stocks x days), ``dates`` and
    ``tickers``; it is byte-stable and reads back bit-exact.  The sidecar
    holds the counts and the dropped tickers.
    """
    path = Path(path)
    save_arrays(path, prices=np.ascontiguousarray(panel.prices, dtype=np.float64),
                dates=np.array(panel.dates, dtype=str),
                tickers=np.array(panel.tickers, dtype=str))
    write_json(_sidecar(path), {"n_stocks": panel.n_stocks, "n_days": panel.n_days,
                                "dropped": panel.dropped})


def load_panel(path: str | Path) -> PricePanel:
    """Read back a panel written by save_panel (sidecar optional).

    The archive gets the checks a parsed price file gets: unique tickers a
    CSV can hold, strictly increasing ISO dates, and finite, positive prices
    of the labels' shape.  A file that is not such an archive, such as a
    price CSV, is a DataError.
    """
    path = Path(path)
    try:
        arrays = load_arrays(path, ["prices", "dates", "tickers"])
    except DataError as exc:
        raise DataError(f"{exc}; `marketstates ingest` writes a panel archive") from None
    prices, dates, tickers = arrays["prices"], arrays["dates"], arrays["tickers"]
    if prices.dtype != np.float64 or prices.ndim != 2:
        raise DataError(f"{path}: prices must be a float64 matrix, got {prices.dtype} "
                        f"of shape {prices.shape}")
    for name, labels in (("dates", dates), ("tickers", tickers)):
        if labels.dtype.kind != "U" or labels.ndim != 1:
            raise DataError(f"{path}: {name} must be a vector of strings, got {labels.dtype} "
                            f"of shape {labels.shape}")
    panel = PricePanel(tickers=tickers.tolist(), dates=dates.tolist(), prices=prices)
    if not panel.tickers or not panel.dates:
        raise DataError(f"{path}: a panel needs at least one ticker and one date")
    if len(set(panel.tickers)) != panel.n_stocks:
        raise DataError(f"{path}: duplicate tickers")
    check_csv_names(panel.tickers, "ticker", path)
    try:
        _parse_iso_dates(panel.dates)
        panel.validate()
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None
    sidecar = _sidecar(path)
    if sidecar.exists():
        meta = read_json(sidecar)
        if not isinstance(meta, dict):
            raise DataError(f"{sidecar} does not hold a JSON object")
        panel.dropped = meta.get("dropped", {})
    return panel
