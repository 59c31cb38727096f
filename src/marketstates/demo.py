"""Bundled synthetic demo: a small market with one planted crisis.

Twenty kept stocks in four sectors over 320 trading days, generated from a
seeded two-level factor model (market factor + sector factors).  Days 140-179
carry a high-correlation burst, so the demo exercises every stage: state
separation, sector states, a CRITICAL trajectory around the burst and a
NORMAL one away from it, plus a ticker with too long a gap for the continuity
policy and a couple of forward-fillable holes.
"""

from __future__ import annotations

import datetime
from pathlib import Path

import numpy as np

from .geometry import _check_workers
from .pipeline import PipelineConfig, run_pipeline
from .serialize import format_float, write_csv

N_SECTORS = 4
STOCKS_PER_SECTOR = 5
N_DAYS = 320
BURST = (140, 180)  # return-day range with crisis-level correlation
DEMO_SEED = 1789


def _trading_days(n: int, start=datetime.date(2018, 1, 2)) -> list[str]:
    days = []
    day = start
    while len(days) < n:
        if day.weekday() < 5:
            days.append(day.isoformat())
        day += datetime.timedelta(days=1)
    return days


def _returns(rng: np.random.Generator) -> np.ndarray:
    """Two-level factor model with a correlation burst in the middle."""
    n = N_SECTORS * STOCKS_PER_SECTOR
    length = N_DAYS - 1
    market_load = np.full(length, np.sqrt(0.10))
    sector_load = np.full(length, np.sqrt(0.15))
    market_load[BURST[0]:BURST[1]] = np.sqrt(0.72)
    sector_load[BURST[0]:BURST[1]] = np.sqrt(0.10)
    market = rng.standard_normal(length)
    sectors = rng.standard_normal((N_SECTORS, length))
    noise = rng.standard_normal((n, length))
    rows = []
    for i in range(n):
        own = sectors[i // STOCKS_PER_SECTOR]
        residual = np.sqrt(1.0 - market_load**2 - sector_load**2)
        rows.append(market_load * market + sector_load * own + residual * noise[i])
    return 0.012 * np.stack(rows)


def write_demo_data(data_dir: str | Path) -> dict[str, Path]:
    """Write prices.csv, sectors.csv, events.csv; returns their paths."""
    data_dir = Path(data_dir)
    data_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(DEMO_SEED)
    sector_names = ["banks", "energy", "retail", "tech"]
    tickers = [f"{name[:3].upper()}{i}" for name in sector_names
               for i in range(STOCKS_PER_SECTOR)]
    returns = _returns(rng)
    start_prices = rng.uniform(40.0, 160.0, size=len(tickers))
    log_paths = np.cumsum(np.concatenate([np.zeros((len(tickers), 1)), returns], axis=1), axis=1)
    prices = start_prices[:, None] * np.exp(log_paths)
    dates = _trading_days(N_DAYS)

    cells = [[format_float(v) for v in prices[i]] for i in range(len(tickers))]
    # two fillable one-day holes in kept tickers
    cells[3][57] = ""
    cells[11][203] = "NaN"
    # one ticker with a gap the default policy rejects
    gappy = [format_float(v) for v in (prices[0] * 1.01)]
    for day in range(90, 94):
        gappy[day] = ""

    paths = {name: data_dir / f"{name}.csv" for name in ("prices", "sectors", "events")}
    write_csv(paths["prices"], ["date"] + tickers + ["GAPPY"],
              [[date] + [column[t] for column in cells] + [gappy[t]]
               for t, date in enumerate(dates)])
    write_csv(paths["sectors"], ["ticker", "sector"],
              [(ticker, sector_names[i // STOCKS_PER_SECTOR]) for i, ticker in enumerate(tickers)]
              + [("GAPPY", "banks")])
    # return-day dates are price dates[:-1]; both centers leave 62 days around
    write_csv(paths["events"], ["name", "center_date"],
              [("planted crash", dates[160]), ("quiet stretch", dates[250])])
    return paths


def demo_config(out_dir: str | Path) -> PipelineConfig:
    out_dir = Path(out_dir)
    data = write_demo_data(out_dir / "demo_data")
    return PipelineConfig(
        prices=str(data["prices"]),
        sectors=str(data["sectors"]),
        events=str(data["events"]),
        out_dir=str(out_dir),
        epsilon_grid=[0.0, 0.5],
        k_range=[2, 3, 4, 5],
        n_inits=8,
        k_min=2,
        k=2,
        epsilon=0.5,
        sector_k=2,
        sector_epsilon=0.5,
    )


def run_demo(out_dir: str | Path, workers: int = 1, force: bool = False) -> tuple[int, dict]:
    """Generate the demo inputs under ``out_dir`` and run the full pipeline.

    ``workers`` below 1 is a ValueError, raised before any input is written.
    """
    _check_workers(workers)
    return run_pipeline(demo_config(out_dir), force=force, workers=workers)
