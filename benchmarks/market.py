"""Seeded synthetic market with planted correlation regimes and crash bursts.

A generalised two-level factor model: every stock loads on one market factor
and on the factor of its own sector.  The loadings switch between a small
set of regimes along a Markov chain, and optional crash bursts push the
market loading to crisis level for ``BURST_DAYS`` days.  The benchmark keeps
the planted truth (regime per return day, burst windows, event kinds); the
program under test only ever sees the CSV files written by ``write_market``.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass
from pathlib import Path

import numpy as np

#: (market variance share, per-sector variance share) for each regime.  The
#: last entry of a sector tuple repeats for the remaining sectors, so one
#: table serves any sector count.  Regimes differ in mean correlation and in
#: which blocks are coupled, so they are far apart in L1 distance.
REGIMES = (
    (0.02, (0.05,)),                    # calm: weak coupling everywhere
    (0.40, (0.05,)),                    # market-driven
    (0.05, (0.60,)),                    # sector-driven
    (0.20, (0.55, 0.0)),                # rotation: only the first sector coupled
)
CRASH = (0.85, 0.05)
VOLATILITY = 0.012
BURST_DAYS = 40
EVENT_WIDTH = 125  # price days of an event window, as in the paper; bursts sit mid-window


@dataclass(frozen=True)
class MarketSpec:
    n_stocks: int
    n_days: int  # price days; there are n_days - 1 return days
    n_sectors: int
    n_regimes: int  # 1..len(REGIMES); 1 switches nothing
    mean_dwell: int = 90  # mean regime segment length in return days
    n_bursts: int = 0


@dataclass
class Market:
    spec: MarketSpec
    tickers: list[str]
    sector_of: list[str]
    dates: list[str]  # price dates
    prices: np.ndarray  # n_stocks x n_days
    regime: np.ndarray  # planted regime per return day (n_regimes marks a burst)
    bursts: list[tuple[int, int]]  # half-open return-day ranges
    events: list[tuple[str, str, str]]  # (name, center price date, "crash" | "quiet")

    def epoch_truth(self, window: int, shift: int) -> np.ndarray:
        """Planted label of each epoch, or -1 where its days straddle a switch
        (such an epoch has no single planted state)."""
        n_epochs = (len(self.regime) - window) // shift + 1
        truth = np.full(n_epochs, -1)
        for e in range(n_epochs):
            days = self.regime[e * shift:e * shift + window]
            if (days == days[0]).all():
                truth[e] = days[0]
        return truth


def _trading_days(n: int, start=datetime.date(2001, 1, 2)) -> list[str]:
    days, day = [], start
    while len(days) < n:
        if day.weekday() < 5:
            days.append(day.isoformat())
        day += datetime.timedelta(days=1)
    return days


def _regime_path(rng: np.random.Generator, spec: MarketSpec, length: int,
                 fixed: list[tuple[int, int]]) -> np.ndarray:
    """Markov switching on a random cycle: the chain steps from each regime to
    the next one of a seeded random cyclic order, after a dwell drawn uniformly
    from 0.75..1.25 times the mean, so every regime gets a similar share.
    Each ``fixed`` day range is one whole segment, so it holds one regime."""
    segments, day = [], 0
    for lo, hi in fixed + [(length, length)]:
        while day < lo:
            dwell = int(rng.integers(3 * spec.mean_dwell // 4, 5 * spec.mean_dwell // 4 + 1))
            end = day + dwell if lo - day - dwell >= spec.mean_dwell // 2 else lo
            segments.append((day, end))
            day = end
        if hi > lo:
            segments.append((lo, hi))
            day = hi
    cycle = rng.permutation(spec.n_regimes)
    path = np.empty(length, dtype=int)
    for i, (lo, hi) in enumerate(segments):
        path[lo:hi] = cycle[i % spec.n_regimes]
    return path


def _place_bursts(rng: np.random.Generator, spec: MarketSpec, length: int):
    """Burst windows and event centres, spaced so that no event window touches a
    burst other than its own and quiet windows touch none."""
    half = (EVENT_WIDTH - 1) // 2
    slot = 2 * (half + BURST_DAYS // 2) + 2  # one crash window plus one quiet window
    bursts, centers = [], []
    if spec.n_bursts:
        spare = length - 2 * half - spec.n_bursts * slot
        if spare < 0:
            raise ValueError(f"{length} return days cannot hold {spec.n_bursts} bursts")
        jitter = np.sort(rng.integers(0, spare + 1, size=spec.n_bursts))
        for i in range(spec.n_bursts):
            center = half + i * slot + int(jitter[i]) + BURST_DAYS // 2
            bursts.append((center - BURST_DAYS // 2, center + BURST_DAYS // 2))
            centers.append((center, "crash"))
            centers.append((center + slot // 2, "quiet"))
    return bursts, centers


def generate(spec: MarketSpec, seed: int | tuple[int, ...]) -> Market:
    """The market of ``seed``: an int or a tuple of ints, as numpy's ``default_rng`` takes."""
    rng = np.random.default_rng(seed)
    length = spec.n_days - 1
    if not 1 <= spec.n_regimes <= len(REGIMES):
        raise ValueError(f"n_regimes must be in 1..{len(REGIMES)}")
    bursts, centers = _place_bursts(rng, spec, length)
    # a quiet window spans one regime: a regime switch inside it would stretch
    # its trajectory the way a crash does
    half = (EVENT_WIDTH - 1) // 2
    quiet = [(c - half, c + half) for c, kind in centers if kind == "quiet"]
    regime = _regime_path(rng, spec, length, quiet)
    for lo, hi in bursts:
        regime[lo:hi] = spec.n_regimes

    sector = np.arange(spec.n_stocks) % spec.n_sectors
    market_var = np.empty(length)
    sector_var = np.empty((spec.n_sectors, length))
    for r in range(spec.n_regimes):
        m2, shares = REGIMES[r]
        days = regime == r
        market_var[days] = m2
        for s in range(spec.n_sectors):
            sector_var[s, days] = shares[min(s, len(shares) - 1)]
    crash = regime == spec.n_regimes
    market_var[crash] = CRASH[0]
    sector_var[:, crash] = CRASH[1]

    market = rng.standard_normal(length)
    factors = rng.standard_normal((spec.n_sectors, length))
    noise = rng.standard_normal((spec.n_stocks, length))
    own_var = sector_var[sector]
    returns = (np.sqrt(market_var) * market + np.sqrt(own_var) * factors[sector]
               + np.sqrt(1.0 - market_var - own_var) * noise) * VOLATILITY
    log_paths = np.concatenate([np.zeros((spec.n_stocks, 1)), np.cumsum(returns, axis=1)], axis=1)
    prices = rng.uniform(20.0, 200.0, size=(spec.n_stocks, 1)) * np.exp(log_paths)

    dates = _trading_days(spec.n_days)
    width = len(str(spec.n_stocks - 1))
    tickers = [f"S{i:0{width}d}" for i in range(spec.n_stocks)]
    events = [(f"{kind}{i // 2:02d}", dates[center], kind) for i, (center, kind) in enumerate(centers)]
    return Market(spec=spec, tickers=tickers, sector_of=[f"sec{s}" for s in sector],
                  dates=dates, prices=prices, regime=regime, bursts=bursts, events=events)


def write_market(market: Market, data_dir: Path, events: bool) -> dict[str, Path]:
    """Write prices.csv, sectors.csv and (when asked) events.csv."""
    data_dir.mkdir(parents=True, exist_ok=True)
    paths = {"prices": data_dir / "prices.csv", "sectors": data_dir / "sectors.csv"}
    columns = [[repr(float(v)) for v in row] for row in market.prices]
    with paths["prices"].open("w", newline="\n") as fh:
        fh.write(",".join(["date"] + market.tickers) + "\n")
        for t, date in enumerate(market.dates):
            fh.write(",".join([date] + [col[t] for col in columns]) + "\n")
    with paths["sectors"].open("w", newline="\n") as fh:
        fh.write("ticker,sector\n")
        fh.writelines(f"{t},{s}\n" for t, s in zip(market.tickers, market.sector_of))
    if events:
        paths["events"] = data_dir / "events.csv"
        with paths["events"].open("w", newline="\n") as fh:
            fh.write("name,center_date\n")
            fh.writelines(f"{name},{date}\n" for name, date, _ in market.events)
    return paths
