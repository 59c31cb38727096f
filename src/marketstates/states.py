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

from .corrmat import EpochCorrelationSeries, _check_epsilon
from .geometry import Embedding, embed_epochs

MAX_LLOYD_ITERATIONS = 300
MAP_DIM = 3  # axes of the map that k-means clusters
K_MIN = 4  # the fewest states the grid optimum may have


@dataclass
class ClusteringRun:
    """One converged k-means run (1-based labels)."""

    k: int
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


def _lloyd(points: np.ndarray, k: int, seeds) -> list[ClusteringRun]:
    """Lloyd's algorithm, one run per seed, all runs stepped together.

    Each run is seeded with k distinct data points chosen uniformly and runs
    to an assignment fixed point or 300 iterations.  An empty cluster is
    repaired by re-seeding its centroid at the point currently farthest from
    its own centroid (among clusters that can spare a point), which keeps the
    objective non-increasing.  The objective (sum of squared point-centroid
    distances) is recorded once per centroid update, read from the next
    assignment's distances at the labels of that update.

    Centroids live in one (runs, k, D) array and squared distances in one
    (runs, k, n) array, accumulated one axis at a time.  That adds the axes
    in order, as numpy's sum over fewer than 8 axes does; from 8 axes on
    numpy sums pairwise, so the two can differ in the last bits.  Cluster
    means come from one bincount per axis over labels offset by run, which
    adds each run's points in the same order as a bincount of its own.  Empty
    clusters are repaired run by run, and a run leaves the batch when its
    assignment stops changing, so every run has the bits it has on its own.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] == 0:
        raise ValueError(f"points must be 2-D with at least one axis, got shape {points.shape}")
    n, dim = points.shape
    if not 1 <= k <= n:
        raise ValueError(f"k must be in 1..{n}, got {k}")
    axes = points.T.copy()  # (D, n): each axis contiguous
    centroids = np.stack([points[np.random.default_rng(s).choice(n, size=k, replace=False)]
                          for s in seeds])
    runs = len(centroids)
    labels = np.full((runs, n), -1)
    active = np.arange(runs)  # active[b]: the run in batch row b, until it converges
    traces: list[list[float]] = [[] for _ in range(runs)]
    final_centroids = np.empty_like(centroids)
    final_labels = np.empty_like(labels)
    n_iterations = np.full(runs, MAX_LLOYD_ITERATIONS)
    converged = np.zeros(runs, dtype=bool)
    n_repairs = np.zeros(runs, dtype=int)
    columns = np.arange(n)
    # every batch row weighs the same points: the first m rows' weights are a prefix
    weights = np.tile(axes, runs)
    for iteration in range(1, MAX_LLOYD_ITERATIONS + 1):
        d2 = np.square(axes[0] - centroids[:, :, 0, None])
        for d in range(1, dim):
            d2 += np.square(axes[d] - centroids[:, :, d, None])
        if iteration > 1:  # the last update's objective, before a repair moves a centroid
            own = d2[np.arange(len(active))[:, None], labels, columns]
            for r, total in zip(active, own.sum(axis=1)):
                traces[r].append(float(total))
        new_labels = d2.argmin(axis=1)
        offsets = k * np.arange(len(active))[:, None]  # batch row b's clusters are bins bk..bk+k-1
        counts = np.bincount((new_labels + offsets).ravel(), minlength=offsets.size * k)
        counts = counts.reshape(-1, k)
        # repair empty clusters before the update step
        for b in np.flatnonzero((counts == 0).any(axis=1)):
            dist, lab, cnt = d2[b], new_labels[b], counts[b]
            while (cnt == 0).any():
                empty = int(np.flatnonzero(cnt == 0)[0])
                own = dist[lab, columns]
                movable = cnt[lab] > 1
                if not movable.any():
                    break
                candidate = int(np.flatnonzero(movable)[own[movable].argmax()])
                cnt[lab[candidate]] -= 1
                lab[candidate] = empty
                cnt[empty] += 1
                centroids[b, empty] = points[candidate]
                dist[empty] = ((points - points[candidate]) ** 2).sum(axis=1)
                n_repairs[active[b]] += 1
        done = (new_labels == labels).all(axis=1)
        if done.any():
            finished = active[done]
            final_centroids[finished] = centroids[done]
            final_labels[finished] = labels[done]
            n_iterations[finished] = iteration
            converged[finished] = True
            keep = ~done
            active, centroids = active[keep], centroids[keep]
            new_labels, counts = new_labels[keep], counts[keep]
        labels = new_labels
        if not len(active):
            break
        # cluster means, one weighted bincount per axis; an empty cluster
        # (no movable point was left to repair it) keeps its centroid
        filled = counts > 0
        sizes = counts[filled]
        flat = (labels + offsets[: len(active)]).ravel()
        for d in range(dim):
            sums = np.bincount(flat, weights=weights[d, : flat.size],
                               minlength=len(active) * k).reshape(-1, k)
            centroids[:, :, d][filled] = sums[filled] / sizes
    final_centroids[active] = centroids
    final_labels[active] = labels
    results = []
    for r, seed in enumerate(seeds):
        own = ((points - final_centroids[r][final_labels[r]]) ** 2).sum(axis=1)
        if not converged[r]:  # the iteration cap: no assignment followed the last update
            traces[r].append(float(own.sum()))
        results.append(ClusteringRun(
            k=k,
            seed=seed,
            labels=final_labels[r] + 1,
            centroids=final_centroids[r],
            d_intra=float(np.sqrt(own).mean()),
            objective_trace=traces[r],
            n_iterations=int(n_iterations[r]),
            converged=bool(converged[r]),
            n_repairs=int(n_repairs[r]),
        ))
    return results


def init_seeds(seed: int, count: int) -> np.ndarray:
    """Deterministic per-init seeds derived from one master seed."""
    return np.random.SeedSequence(seed).generate_state(count, dtype=np.uint64)


def best_kmeans(points: np.ndarray, k: int, n_inits: int, seed: int) -> ClusteringRun:
    """Lowest-objective run over an ensemble of seeded initializations.

    The ensemble runs as one batch, each run with the bits of
    ``_lloyd(points, k, [s])`` for its seed s.
    """
    if n_inits < 1:
        raise ValueError(f"n_inits must be >= 1, got {n_inits}")
    runs = _lloyd(points, k, [int(s) for s in init_seeds(seed, n_inits)])
    return min(runs, key=lambda r: r.objective)


def _grid_rows(coords: np.ndarray, eps: float, k_list: list[int], seeds) -> list[GridPoint]:
    """The grid points of one epsilon: n_inits k-means radii per k on its map.

    When every run finds the same radius, sigma_d_intra is exactly 0: std()
    of equal values can leave rounding noise, which would decide ties that
    select_optimum's tie-break is there to decide.
    """
    rows = []
    for ki, k in enumerate(k_list):
        radii = np.array([run.d_intra for run in _lloyd(coords, k, [int(s) for s in seeds[ki]])])
        sigma = 0.0 if (radii == radii[0]).all() else float(radii.std())
        rows.append(GridPoint(k=k, epsilon=eps, sigma_d_intra=sigma,
                              mean_d_intra=float(radii.mean()), n_inits=len(radii)))
    return rows


def optimize_over_grid(series: EpochCorrelationSeries, k_range, epsilon_grid, n_inits: int,
                       seed: int, dim: int = MAP_DIM, workers: int = 1,
                       maps: dict[float, Embedding] | None = None) -> list[GridPoint]:
    """sigma_d_intra over a (k, epsilon) grid for a raw epoch series, one point per pair.

    For each distinct epsilon the geometry is built once: power map,
    dissimilarity on ``workers`` threads, ``dim``-axis MDS; then each k runs
    n_inits independent k-means.  The arguments, every epsilon of the grid
    included, are checked before the first map is built.  ``maps`` holds
    maps of this series already built, by epsilon: the grid reads an
    epsilon's map from it, and stores each map it builds there.  Init seeds
    come from one SeedSequence spanning the flat (epsilon, k, init) grid, so
    results do not depend on worker count.
    """
    k_list = list(k_range)
    eps_list = list(epsilon_grid)
    if not k_list or not eps_list:
        raise ValueError("k_range and epsilon_grid must be non-empty")
    _check_fit(series.n_epochs, k_list, dim, n_inits, least_inits=2)  # a spread needs 2 runs
    for eps in eps_list:
        _check_epsilon(eps)
    seeds = init_seeds(seed, len(eps_list) * len(k_list) * n_inits)
    seeds = seeds.reshape(len(eps_list), len(k_list), n_inits)
    maps = {} if maps is None else maps
    grid = []
    for ei, eps in enumerate(eps_list):
        if eps not in maps:
            maps[eps] = embed_epochs(series, eps, dim, workers)
        grid += _grid_rows(maps[eps].coordinates, eps, k_list, seeds[ei])
    return grid


def _check_fit(n_epochs: int, k_list, dim: int, n_inits: int = 1, least_inits: int = 1) -> None:
    """Reject, before any kernel call, a k, map dimension or ensemble size a fit cannot take."""
    if n_inits < least_inits:
        raise ValueError(f"n_inits must be >= {least_inits}, got {n_inits}")
    for k in k_list:
        if not 1 <= k <= n_epochs:
            raise ValueError(f"k must be in 1..{n_epochs} for {n_epochs} epochs, got {k}")
    if not 1 <= dim <= n_epochs - 1:
        raise ValueError(f"map dimension D must be in 1..{n_epochs - 1} for {n_epochs} epochs, "
                         f"got {dim}")


def select_optimum(grid: list[GridPoint], k_min: int = K_MIN) -> tuple[int, float]:
    """Minimum sigma_d_intra among grid points with k >= k_min.

    Ties prefer larger k, then smaller epsilon.
    """
    candidates = [g for g in grid if g.k >= k_min]
    if not candidates:
        raise ValueError(f"no grid entry has k >= {k_min}")
    best = min(candidates, key=lambda g: (g.sigma_d_intra, -g.k, g.epsilon))
    return best.k, best.epsilon


def build_state_model(series: EpochCorrelationSeries, run: ClusteringRun,
                      epsilon: float = 0.0) -> StateModel:
    """Average raw matrix per cluster, rename by ascending mean correlation, count transitions.

    ``epsilon`` is the power-map exponent the clustering used, recorded on the model.
    """
    k = run.k
    averages = series.label_means(run.labels, k)
    means = np.array([avg.mean() for avg in averages])
    order = np.argsort(means, kind="stable")  # old label order by mean corr
    rename = np.empty(k, dtype=int)
    rename[order] = np.arange(1, k + 1)
    state_of = rename[run.labels - 1]
    transition_counts = np.zeros((k, k), dtype=int)
    np.add.at(transition_counts, (state_of[:-1] - 1, state_of[1:] - 1), 1)
    return StateModel(
        k=k,
        epsilon=epsilon,
        state_of=state_of,
        state_mean_corr=[float(means[c]) for c in order],
        avg_corr_matrix=[averages[c] for c in order],
        transition_counts=transition_counts,
        labels=list(series.labels),
        epoch_dates=list(series.start_dates),
    )


def fit_series(series: EpochCorrelationSeries, k: int, epsilon: float, n_inits: int,
               seed: int, dim: int = MAP_DIM, workers: int = 1,
               embedding: Embedding | None = None):
    """Fit market states to a raw (epsilon 0) series at one operating point.

    Returns (model, best run, embedding): clustering happens on the MDS map
    of power-mapped matrices, the model averages the raw ones.  Stock-level
    and sector-level series go through this same path; ``workers`` threads
    run the dissimilarity kernel.  An ``embedding`` already built for this
    series at ``epsilon`` on ``dim`` axes is clustered as it is, with no
    kernel call.  ``k``, ``n_inits`` and ``dim`` are checked first.
    """
    _check_fit(series.n_epochs, [k], dim, n_inits)
    if embedding is None:
        embedding = embed_epochs(series, epsilon, dim, workers)
    run = best_kmeans(embedding.coordinates, k, n_inits, seed)
    return build_state_model(series, run, epsilon), run, embedding
