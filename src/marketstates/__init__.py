"""Market-state detection from rolling correlation matrices of return panels.

The pipeline: price CSV -> filtered gap-free panel -> log-returns -> epoch
correlation matrices -> noise-suppressing power map -> pairwise matrix
dissimilarities -> low-dimensional map -> k-means market states, with sector
aggregation, event-window trajectory classification, and Wishart/analytic
spectral validation alongside.
"""

from .corrmat import (
    CorrelationMatrix,
    EpochCorrelationSeries,
    EpochSpec,
    epoch_correlations,
    epoch_count,
    load_series,
    power_map,
    save_epoch_correlations,
    save_series,
)
from .errors import DataError, NumericError
from .geometry import (
    Embedding,
    classical_mds,
    embed_epochs,
    similarity_matrix,
    step_fidelity,
)
from .ingest import (
    ContinuityPolicy,
    PricePanel,
    ReturnPanel,
    load_panel,
    load_prices,
    load_sector_map,
    log_returns,
    save_panel,
)
from .pipeline import PipelineConfig, run_pipeline
from .rmt import (
    SpectralDensity,
    WishartSpec,
    l1_to_analytic,
    mp_density,
    mp_support,
    outside_support_fraction,
    pooled_eigenvalues,
    spectrum_from_eigenvalues,
)
from .sector import (
    SECTOR_PRESETS,
    DisplacementReport,
    displacement,
    sector_series,
)
from .states import (
    ClusteringRun,
    StateModel,
    best_kmeans,
    build_state_model,
    fit_series,
    optimize_over_grid,
    select_optimum,
)
from .trajectory import (
    CRITICAL,
    NORMAL,
    EventWindow,
    TrajectoryReport,
    analyze_trajectory,
    classify_catalog,
    cut_window,
    load_event_catalog,
    window_from_dates,
)

__version__ = "0.1.0"

__all__ = [
    "CRITICAL",
    "ClusteringRun",
    "ContinuityPolicy",
    "CorrelationMatrix",
    "DataError",
    "DisplacementReport",
    "Embedding",
    "EpochCorrelationSeries",
    "EpochSpec",
    "EventWindow",
    "NORMAL",
    "NumericError",
    "PipelineConfig",
    "PricePanel",
    "ReturnPanel",
    "SECTOR_PRESETS",
    "SpectralDensity",
    "StateModel",
    "TrajectoryReport",
    "WishartSpec",
    "analyze_trajectory",
    "best_kmeans",
    "build_state_model",
    "classical_mds",
    "classify_catalog",
    "cut_window",
    "displacement",
    "embed_epochs",
    "epoch_correlations",
    "epoch_count",
    "fit_series",
    "l1_to_analytic",
    "load_event_catalog",
    "load_panel",
    "load_prices",
    "load_sector_map",
    "load_series",
    "log_returns",
    "mp_density",
    "mp_support",
    "optimize_over_grid",
    "outside_support_fraction",
    "pooled_eigenvalues",
    "power_map",
    "run_pipeline",
    "save_epoch_correlations",
    "save_panel",
    "save_series",
    "sector_series",
    "select_optimum",
    "similarity_matrix",
    "spectrum_from_eigenvalues",
    "step_fidelity",
    "window_from_dates",
]
