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


def _longest_run(flags: np.ndarray) -> int:
    """Length of the longest run of True in a boolean vector."""
    edges = np.diff(flags.astype(np.int8), prepend=0, append=0)
    return int((np.flatnonzero(edges == -1) - np.flatnonzero(edges == 1)).max(initial=0))


def _price_row(cells: list[str], index: int, bad: dict[int, str]) -> np.ndarray:
    """One data row's prices, NaN for an empty or ``NaN`` cell.

    A row of finite prices > 0 costs one ``float`` per cell; in any other,
    an unparsable, non-finite or non-positive cell is NaN, and the first
    such cell of each column records its drop reason in ``bad``.  ``index``
    is the row's 0-based position among the data rows.
    """
    try:
        values = np.fromiter(map(float, cells), float, len(cells))
        if np.isfinite(values).all() and (values > 0).all():
            return values
    except ValueError:
        pass
    values = np.full(len(cells), np.nan)
    for j, cell in enumerate(cells):
        token = cell.strip()
        if token.lower() in _MISSING:
            continue
        try:
            price = float(token)
        except ValueError:
            bad.setdefault(j, f"unparsable price {token!r} on {index + 1}-th row")
            continue
        if not math.isfinite(price) or price <= 0:
            bad.setdefault(j, f"non-positive price {price} on {index + 1}-th row")
            continue
        values[j] = price
    return values


def _fill_column(values: np.ndarray, policy: ContinuityPolicy) -> str:
    """Forward-fill a parsed price column in place: a missing day takes the last present day's.

    Returns "" when the column is kept under the continuity rules, else why it is dropped.
    """
    missing = np.isnan(values)
    if missing.all():
        return "no prices at all"
    if missing[0]:
        return "missing first entry (nothing to forward-fill from)"
    longest = _longest_run(missing)
    if longest > policy.max_consecutive_missing:
        return (f"{longest} consecutive missing entries exceed the allowed "
                f"{policy.max_consecutive_missing}")
    source = np.where(missing, 0, np.arange(len(values)))
    np.maximum.accumulate(source, out=source)
    values[:] = values[source]
    return ""


def _csv_rows(path: str | Path):
    """The rows of a CSV file, read one at a time."""
    try:
        with Path(path).open(newline="") as fh:
            yield from csv.reader(fh)
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

    A file whose every cell is a finite price > 0 is parsed in one C pass; any
    other goes through ``csv.reader`` row by row into one (tickers, days)
    float array, NaN where a cell is missing, filled or dropped column-wise.
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
    tickers = _tickers(next(rows, []), path)
    dates: list[str] = []
    parsed: list[np.ndarray] = []
    bad: dict[int, str] = {}  # column -> the drop reason of its first bad cell
    for row in rows:
        if not row or not any(cell.strip() for cell in row):
            continue
        if len(row) != len(tickers) + 1:
            raise DataError(f"{path}: row with {len(row)} fields, expected {len(tickers) + 1}")
        # a fresh copy: a date that is still the parsed cell's string would keep
        # the allocator arena it was read into, and every freed cell there, resident
        dates.append(row[0].strip().encode().decode())
        parsed.append(_price_row(row[1:], len(parsed), bad))
    if not dates:
        raise DataError(f"{path}: no data rows")
    _parse_iso_dates(dates)
    prices = np.stack(parsed, axis=1)  # (tickers, days), NaN where a cell is missing
    del parsed

    kept: list[int] = []
    dropped: dict[str, str] = {}
    for j, name in enumerate(tickers):
        reason = bad.get(j) or _fill_column(prices[j], policy)
        if reason:
            dropped[name] = reason
        else:
            kept.append(j)
    if not kept:
        first, reason = next(iter(dropped.items()))
        raise DataError(f"{path}: no ticker survives the continuity policy; all "
                        f"{len(dropped)} dropped, the first ({first}) for: {reason}")
    panel = PricePanel(tickers=[tickers[j] for j in kept], dates=dates, dropped=dropped,
                       prices=prices[kept] if len(kept) < len(tickers) else prices)
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
    if [h.strip().lower() for h in next(rows, [])[:2]] != [key, value]:
        raise DataError(f"{path}: expected header '{key},{value}'")
    pairs: dict[str, str] = {}
    for row in rows:
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
