"""The benchmark's workloads: market sizes, pipeline settings, worker counts.

Sizes are set so that one operation takes a few seconds on a 2-core box,
which lets a run of ``--seconds`` hold several operations and report medians.
"""

from __future__ import annotations

from dataclasses import dataclass

from market import MarketSpec


@dataclass(frozen=True)
class Workload:
    market: MarketSpec
    operation: str  # "pipeline" (run_pipeline) or "catalog" (classify_catalog)
    shift: int
    workers: int  # worker processes of the untraced runs; traced runs use 1
    events: bool  # whether an event catalog is written and analysed


# pipeline settings shared by every workload
WINDOW = 20
EPSILON_GRID = [0.0, 0.3, 0.6]
K_RANGE = list(range(2, 9))
N_INITS = 10


WORKLOADS = {
    # Paper-shaped dense epochs (window 20, shift 1): the O(epochs^2 N^2)
    # dissimilarity and the k-means grid dominate; plain single-process run.
    "long": Workload(
        market=MarketSpec(n_stocks=40, n_days=420, n_sectors=8, n_regimes=3,
                          mean_dwell=70, n_bursts=1),
        operation="pipeline", shift=1, workers=1, events=True,
    ),
    # Wide panel, sparse epochs (shift 40): CSV parsing, archive deflate and
    # hashing, the N x N Wishart null and pickling into grid workers dominate.
    # No catalog: a 125-day window at shift 40 holds 3 epochs, too few for a
    # 3-D map (the trajectory stage reuses the pipeline's shift).
    "wide": Workload(
        market=MarketSpec(n_stocks=200, n_days=1300, n_sectors=8, n_regimes=3,
                          mean_dwell=200),
        operation="pipeline", shift=40, workers=2, events=False,
    ),
    # Many small independent problems: each event window recomputes its
    # epochs over overlapping days and builds its own dissimilarity; the
    # windows fan out through a process pool with the panel pickled per task.
    "events": Workload(
        market=MarketSpec(n_stocks=60, n_days=1500, n_sectors=8, n_regimes=1,
                          n_bursts=8),
        operation="catalog", shift=1, workers=2, events=True,
    ),
}
