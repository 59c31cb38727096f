"""Market states: ensemble k-means on the MDS map and the (k, epsilon) search.

A market state is a cluster of epochs whose correlation matrices look alike.
The operating point (cluster count k, noise suppression epsilon) is chosen
where the intra-cluster radius is most stable across random k-means
initializations, i.e. minimum sigma_d_intra subject to k >= k_min.  States
are renamed S1..Sk by ascending mean correlation so Sk is the crisis state.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .corrmat import EpochCorrelationSeries, EpochSpec, epoch_correlations
from .geometry import embed_epochs
from .ingest import ReturnPanel

MAX_LLOYD_ITERATIONS = 300


@dataclass
class ClusteringRun:
    """One converged k-means run (1-based labels)."""

    k: int
    epsilon: float
    seed: int
    labels: np.ndarray
    centroids: np.ndarray
    d_intra: float
    objective_trace: list[float]
    n_iterations: int
    converged: bool
    n_repairs: int = 0

    @property
    def objective(self) -> float:
        return self.objective_trace[-1]


@dataclass(frozen=True)
class GridPoint:
    k: int
    epsilon: float
    sigma_d_intra: float
    mean_d_intra: float
    n_inits: int


@dataclass
class OptimizationSurface:
    grid: list[GridPoint]

    def entries(self, k_min: int = 0) -> list[GridPoint]:
        return [g for g in self.grid if g.k >= k_min]


@dataclass
class StateModel:
    """States S1..Sk with their average matrices and transition counts.

    ``state_of`` holds per-epoch labels 1..k after renaming by ascending
    mean correlation; ``avg_corr_matrix[s-1]`` is built from the raw
    (epsilon 0) matrices of state s even when clustering used epsilon > 0.
    """

    k: int
    epsilon: float
    state_of: np.ndarray
    state_mean_corr: list[float]
    avg_corr_matrix: list[np.ndarray]
    transition_counts: np.ndarray
    labels: list[str] = field(default_factory=list)
    epoch_dates: list[str] = field(default_factory=list)

    def occupancy(self) -> np.ndarray:
        return np.bincount(self.state_of, minlength=self.k + 1)[1:]


def _assignment_distances(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    diff = points[:, None, :] - centroids[None, :, :]
    return (diff * diff).sum(axis=2)


def kmeans(points: np.ndarray, k: int, seed: int, epsilon: float = 0.0) -> ClusteringRun:
    """Lloyd's algorithm seeded with k distinct data points chosen uniformly.

    Runs to an assignment fixed point or 300 iterations.  An empty cluster is
    repaired by re-seeding its centroid at the point currently farthest from
    its own centroid (among clusters that can spare a point), which keeps the
    objective non-increasing.  The objective (sum of squared point-centroid
    distances) is recorded once per iteration after the centroid update.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2:
        raise ValueError(f"points must be 2-D, got shape {points.shape}")
    n = points.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must be in 1..{n}, got {k}")
    rng = np.random.default_rng(seed)
    centroids = points[rng.choice(n, size=k, replace=False)].copy()
    labels = np.full(n, -1)
    trace: list[float] = []
    converged = False
    iteration = 0
    n_repairs = 0
    for iteration in range(1, MAX_LLOYD_ITERATIONS + 1):
        d2 = _assignment_distances(points, centroids)
        new_labels = d2.argmin(axis=1)
        # repair empty clusters before the update step
        counts = np.bincount(new_labels, minlength=k)
        while (counts == 0).any():
            empty = int(np.flatnonzero(counts == 0)[0])
            own = d2[np.arange(n), new_labels]
            movable = counts[new_labels] > 1
            if not movable.any():
                break
            candidate = int(np.flatnonzero(movable)[own[movable].argmax()])
            counts[new_labels[candidate]] -= 1
            new_labels[candidate] = empty
            counts[empty] += 1
            centroids[empty] = points[candidate]
            d2[:, empty] = ((points - points[candidate]) ** 2).sum(axis=1)
            n_repairs += 1
        if (new_labels == labels).all():
            converged = True
            break
        labels = new_labels
        for c in range(k):
            members = labels == c
            if members.any():
                centroids[c] = points[members].mean(axis=0)
        final_d2 = ((points - centroids[labels]) ** 2).sum(axis=1)
        trace.append(float(final_d2.sum()))
    d_intra = float(np.sqrt(((points - centroids[labels]) ** 2).sum(axis=1)).mean())
    return ClusteringRun(
        k=k,
        epsilon=epsilon,
        seed=seed,
        labels=labels + 1,
        centroids=centroids,
        d_intra=d_intra,
        objective_trace=trace,
        n_iterations=iteration,
        converged=converged,
        n_repairs=n_repairs,
    )


def init_seeds(seed: int, count: int) -> np.ndarray:
    """Deterministic per-init seeds derived from one master seed."""
    return np.random.SeedSequence(seed).generate_state(count, dtype=np.uint64)


def best_kmeans(points: np.ndarray, k: int, n_inits: int, seed: int,
                epsilon: float = 0.0) -> ClusteringRun:
    """Lowest-objective run over an ensemble of seeded initializations."""
    runs = [kmeans(points, k, int(s), epsilon) for s in init_seeds(seed, n_inits)]
    return min(runs, key=lambda r: r.objective)


def _grid_rows(coords: np.ndarray, eps: float, k_list: list[int], seeds) -> list[GridPoint]:
    """The grid points of one epsilon: n_inits k-means radii per k on its map."""
    rows = []
    for ki, k in enumerate(k_list):
        radii = np.array([kmeans(coords, k, int(s), eps).d_intra for s in seeds[ki]])
        rows.append(
            GridPoint(
                k=k,
                epsilon=eps,
                sigma_d_intra=float(radii.std()),
                mean_d_intra=float(radii.mean()),
                n_inits=len(radii),
            )
        )
    return rows


def optimize_over_grid(stack: np.ndarray, k_range, epsilon_grid, n_inits: int,
                       seed: int, dim: int = 3, workers: int = 1) -> OptimizationSurface:
    """sigma_d_intra over a (k, epsilon) grid for a raw matrix stack.

    For each epsilon in turn the whole geometry is rebuilt: power map,
    dissimilarity on ``workers`` threads, MDS; then each k runs n_inits
    independent k-means.  Init seeds come from one SeedSequence spanning the
    flat (epsilon, k, init) grid, so results do not depend on worker count.
    """
    k_list = list(k_range)
    eps_list = list(epsilon_grid)
    if not k_list or not eps_list:
        raise ValueError("k_range and epsilon_grid must be non-empty")
    if n_inits < 2:
        raise ValueError(f"need n_inits >= 2 to measure a spread, got {n_inits}")
    seeds = init_seeds(seed, len(eps_list) * len(k_list) * n_inits)
    seeds = seeds.reshape(len(eps_list), len(k_list), n_inits)
    grid = []
    for ei, eps in enumerate(eps_list):
        # no local name holds one epsilon's map while the next one is embedded
        grid += _grid_rows(embed_epochs(stack, eps, dim, workers).coordinates,
                           eps, k_list, seeds[ei])
    return OptimizationSurface(grid=grid)


def select_optimum(surface: OptimizationSurface, k_min: int = 4) -> tuple[int, float]:
    """Minimum sigma_d_intra among entries with k >= k_min.

    Ties prefer larger k, then smaller epsilon.
    """
    candidates = surface.entries(k_min)
    if not candidates:
        raise ValueError(f"no grid entry has k >= {k_min}")
    best = min(candidates, key=lambda g: (g.sigma_d_intra, -g.k, g.epsilon))
    return best.k, best.epsilon


def build_state_model(series: EpochCorrelationSeries, run: ClusteringRun) -> StateModel:
    """Average matrix per cluster, rename by ascending mean correlation, count transitions."""
    if series.epsilon != 0.0:
        raise ValueError("state averages must come from raw (epsilon 0) matrices")
    matrices = [m.values for m in series.matrices]
    n_epochs = len(matrices)
    if len(run.labels) != n_epochs:
        raise ValueError(f"{len(run.labels)} labels for {n_epochs} epochs")
    k = run.k
    averages = []
    means = np.empty(k)
    for c in range(1, k + 1):
        members = run.labels == c
        if not members.any():
            raise ValueError(f"cluster {c} is empty")
        # one cluster's matrices at a time, not a copy of the whole stack
        avg = np.stack([matrices[i] for i in np.flatnonzero(members)]).mean(axis=0)
        averages.append(avg)
        means[c - 1] = avg.mean()
    order = np.argsort(means, kind="stable")  # old label order by mean corr
    rename = np.empty(k, dtype=int)
    rename[order] = np.arange(1, k + 1)
    state_of = rename[run.labels - 1]
    transition_counts = np.zeros((k, k), dtype=int)
    np.add.at(transition_counts, (state_of[:-1] - 1, state_of[1:] - 1), 1)
    return StateModel(
        k=k,
        epsilon=run.epsilon,
        state_of=state_of,
        state_mean_corr=[float(means[c]) for c in order],
        avg_corr_matrix=[averages[c] for c in order],
        transition_counts=transition_counts,
        labels=list(series.labels),
        epoch_dates=[m.start_date for m in series.matrices],
    )


def fit_series(series: EpochCorrelationSeries, k: int, epsilon: float, n_inits: int,
               seed: int, dim: int = 3, workers: int = 1):
    """Fit market states to a raw (epsilon 0) series at one operating point.

    Returns (model, best run, embedding): clustering happens on the MDS map
    of power-mapped matrices, the model averages the raw ones.  Stock-level
    and sector-level series go through this same path; ``workers`` threads
    run the dissimilarity kernel.
    """
    embedding = embed_epochs(series.values_stack(), epsilon, dim, workers)
    run = best_kmeans(embedding.coordinates, k, n_inits, seed, epsilon)
    return build_state_model(series, run), run, embedding


def fit_states(panel: ReturnPanel, spec: EpochSpec, k: int, epsilon: float,
               n_inits: int, seed: int, dim: int = 3):
    """Full fit at a chosen operating point on a return panel; see fit_series."""
    return fit_series(epoch_correlations(panel, spec), k, epsilon, n_inits, seed, dim)
