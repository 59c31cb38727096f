import numpy as np
import pytest

from marketstates import geometry
from marketstates.corrmat import EpochCorrelationSeries, EpochSpec, epoch_correlations, power_map
from marketstates.ingest import ReturnPanel
from marketstates.states import (
    ClusteringRun,
    GridPoint,
    _lloyd,
    best_kmeans,
    build_state_model,
    fit_series,
    optimize_over_grid,
    select_optimum,
)

from test_sector import series_of


def planted_blobs(seed, centers, per_blob=30, sigma=1.0):
    rng = np.random.default_rng(seed)
    centers = np.asarray(centers, dtype=float)
    points = np.concatenate(
        [c + sigma * rng.normal(size=(per_blob, centers.shape[1])) for c in centers]
    )
    truth = np.repeat(np.arange(len(centers)), per_blob)
    return points, truth


def single_run(points, k, seed):
    """One seeded k-means run: the batched loop with a batch of one."""
    return _lloyd(points, k, [seed])[0]


def partitions_equal(labels_a, labels_b):
    pairs = {(a, b) for a, b in zip(labels_a, labels_b)}
    return len({a for a, _ in pairs}) == len(pairs) == len({b for _, b in pairs})


def test_kmeans_k1_centroid_is_mean():
    rng = np.random.default_rng(0)
    points = rng.normal(size=(40, 3))
    run = single_run(points, 1, seed=5)
    np.testing.assert_allclose(run.centroids[0], points.mean(axis=0), atol=1e-12)
    expected = np.linalg.norm(points - points.mean(axis=0), axis=1).mean()
    assert run.d_intra == pytest.approx(expected, abs=1e-12)
    assert set(run.labels) == {1}


def test_kmeans_k_equals_n_is_exact_zero():
    rng = np.random.default_rng(1)
    points = rng.normal(size=(25, 3))
    run = single_run(points, 25, seed=9)
    assert run.d_intra == 0.0
    assert sorted(run.labels) == list(range(1, 26))
    assert run.objective == 0.0


def test_kmeans_recovers_planted_blobs():
    centers = [[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]]
    for seed in range(20):
        points, truth = planted_blobs(seed, centers, per_blob=25, sigma=1.0)
        run = best_kmeans(points, 3, n_inits=100, seed=seed)
        assert partitions_equal(run.labels, truth), f"seed {seed}"


def test_kmeans_objective_trace_monotone_fuzz():
    # the oracle's per-update trace never rises, and the run ends at its last entry
    rng = np.random.default_rng(2)
    for _ in range(300):
        n = int(rng.integers(5, 60))
        d = int(rng.integers(1, 5))
        k = int(rng.integers(1, min(9, n) + 1))
        points = rng.normal(size=(n, d))
        seed = int(rng.integers(0, 2**32))
        run, (_, trace) = single_run(points, k, seed), oracle_kmeans(points, k, seed)
        assert np.all(np.diff(trace) <= 0.0)
        if d > 1:
            assert run.objective == trace[-1]
        else:  # 1-D centroids may differ in the last bits (see the 1-D oracle test)
            assert run.objective == pytest.approx(trace[-1], rel=1e-12, abs=0)
        assert run.converged
        assert run.labels.min() >= 1 and run.labels.max() <= k
        assert np.bincount(run.labels - 1, minlength=k).min() >= 1


def test_kmeans_empty_cluster_repair_with_duplicates():
    points = np.array([[0.0], [0.0], [0.0], [0.0], [10.0]])
    repaired_any = False
    for seed in range(20):
        run, (_, trace) = single_run(points, 3, seed=seed), oracle_kmeans(points, 3, seed)
        assert np.bincount(run.labels - 1, minlength=3).min() >= 1
        assert np.all(np.diff(trace) <= 0)
        assert run.objective == trace[-1]
        repaired_any = repaired_any or run.n_repairs > 0
    assert repaired_any


def test_kmeans_validation():
    points = np.zeros((4, 2))
    with pytest.raises(ValueError):
        single_run(points, 5, seed=0)
    with pytest.raises(ValueError):
        single_run(points, 0, seed=0)
    with pytest.raises(ValueError):
        single_run(np.zeros(4), 2, seed=0)
    with pytest.raises(ValueError):
        single_run(np.zeros((4, 0)), 2, seed=0)


def oracle_kmeans(points, k, seed):
    """The Lloyd loop as it was before the whole-array step: a per-cluster
    mean loop and an (n, k, D) difference temporary.

    Returns the run and its objective after each centroid update."""
    from marketstates.states import MAX_LLOYD_ITERATIONS

    points = np.asarray(points, dtype=float)
    n = points.shape[0]
    rng = np.random.default_rng(seed)
    centroids = points[rng.choice(n, size=k, replace=False)].copy()
    labels = np.full(n, -1)
    trace = []
    converged = False
    iteration = 0
    n_repairs = 0
    for iteration in range(1, MAX_LLOYD_ITERATIONS + 1):
        diff = points[:, None, :] - centroids[None, :, :]
        d2 = (diff * diff).sum(axis=2)
        new_labels = d2.argmin(axis=1)
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
    run = ClusteringRun(k=k, seed=seed, labels=labels + 1,
                        centroids=centroids, d_intra=d_intra, objective=trace[-1],
                        n_iterations=iteration, converged=converged, n_repairs=n_repairs)
    return run, trace


def oracle_cases(D):
    """Random clouds, planted blobs and duplicate-heavy sets (which force
    empty-cluster repairs) in D dimensions, each with k = 1..9 capped at n,
    plus k = n on a small set."""
    rng = np.random.default_rng(100 + D)
    cases = []
    for trial in range(12):
        n = int(rng.integers(9, 60))
        if trial % 3 == 0:
            points = rng.normal(size=(n, D))
        elif trial % 3 == 1:
            points, _ = planted_blobs(trial, rng.normal(scale=5.0, size=(3, D)), per_blob=n // 3)
        else:
            # few distinct values: many k-means runs hit empty clusters
            points = rng.integers(0, 3, size=(n, D)).astype(float)
        for k in range(1, min(9, len(points)) + 1):
            cases.append((points, k, int(rng.integers(0, 2**32))))
    duplicates = np.repeat(rng.normal(size=(3, D)), 3, axis=0)
    cases += [(duplicates, len(duplicates), seed) for seed in range(4)]
    return cases


@pytest.mark.parametrize("D", [2, 3, 4])
def test_kmeans_matches_per_cluster_oracle_bit_for_bit(D):
    repairs = 0
    for points, k, seed in oracle_cases(D):
        got, (want, _) = single_run(points, k, seed), oracle_kmeans(points, k, seed)
        assert np.array_equal(got.labels, want.labels)
        assert got.centroids.tobytes() == want.centroids.tobytes()
        assert got.objective == want.objective
        assert got.d_intra == want.d_intra
        assert (got.n_iterations, got.n_repairs, got.converged) == (
            want.n_iterations, want.n_repairs, want.converged)
        repairs += want.n_repairs
    assert repairs > 0  # the repair path ran


def test_kmeans_at_the_iteration_cap_matches_the_oracle(monkeypatch):
    # a capped run ends at its last update, with no assignment after it
    from marketstates import states

    monkeypatch.setattr(states, "MAX_LLOYD_ITERATIONS", 2)
    capped = 0
    for points, k, seed in oracle_cases(3):
        got, (want, trace) = single_run(points, k, seed), oracle_kmeans(points, k, seed)
        assert got.objective == want.objective
        assert got.d_intra == want.d_intra
        assert (got.n_iterations, got.converged) == (want.n_iterations, want.converged)
        assert len(trace) == got.n_iterations - got.converged
        capped += not got.converged
    assert capped > 0


@pytest.mark.parametrize("D", [8, 9])
def test_kmeans_matches_per_cluster_oracle_from_eight_axes(D):
    # the assignment adds axes in order, numpy's sum over 8 or more pairwise;
    # the objective is taken with numpy's sum, as the oracle takes it
    for points, k, seed in oracle_cases(D):
        got, (want, _) = single_run(points, k, seed), oracle_kmeans(points, k, seed)
        assert np.array_equal(got.labels, want.labels)
        assert got.centroids.tobytes() == want.centroids.tobytes()
        assert got.objective == want.objective
        assert got.d_intra == want.d_intra
        assert (got.n_iterations, got.n_repairs, got.converged) == (
            want.n_iterations, want.n_repairs, want.converged)


def test_kmeans_matches_per_cluster_oracle_in_one_dimension():
    # a (m, 1) member slice is summed pairwise by mean(), a weighted bincount
    # sums in order, so centroids may differ in the last bits
    repairs = 0
    for points, k, seed in oracle_cases(1):
        got, (want, _) = single_run(points, k, seed), oracle_kmeans(points, k, seed)
        assert np.array_equal(got.labels, want.labels)
        np.testing.assert_allclose(got.centroids, want.centroids, rtol=1e-12, atol=0)
        assert got.objective == pytest.approx(want.objective, rel=1e-12, abs=0)
        assert got.d_intra == pytest.approx(want.d_intra, rel=1e-12, abs=0)
        assert (got.n_iterations, got.n_repairs, got.converged) == (
            want.n_iterations, want.n_repairs, want.converged)
        repairs += want.n_repairs
    assert repairs > 0


def assert_same_run(got, want):
    assert (got.k, got.seed) == (want.k, want.seed)
    assert got.labels.tobytes() == want.labels.tobytes()
    assert got.centroids.tobytes() == want.centroids.tobytes()
    assert got.objective == want.objective
    assert got.d_intra == want.d_intra
    assert (got.n_iterations, got.n_repairs, got.converged) == (
        want.n_iterations, want.n_repairs, want.converged)


def batches_against_single_runs(D, seeds_per_batch=5):
    """Each oracle case's k run for several seeds in one batch and one at a time.

    Returns (repairs, batches whose runs stopped at different iterations or
    for different reasons, runs that hit the iteration cap)."""
    repairs = mixed = capped = 0
    for points, k, seed in oracle_cases(D):
        seeds = [seed + i for i in range(seeds_per_batch)]
        batch = _lloyd(points, k, seeds)
        assert len(batch) == len(seeds)
        for got, s in zip(batch, seeds):
            assert_same_run(got, single_run(points, k, s))
            repairs += got.n_repairs
            capped += not got.converged
        mixed += len({(run.n_iterations, run.converged) for run in batch}) > 1
    return repairs, mixed, capped


@pytest.mark.parametrize("D", [1, 2, 3, 4, 8, 9])
def test_batched_lloyd_matches_one_run_per_seed(D):
    repairs, mixed, _ = batches_against_single_runs(D)
    assert repairs > 0  # the repair path ran inside batches
    assert mixed > 0  # runs left a batch while others kept iterating


def test_batched_lloyd_at_the_iteration_cap_matches_one_run_per_seed(monkeypatch):
    from marketstates import states

    monkeypatch.setattr(states, "MAX_LLOYD_ITERATIONS", 2)
    _, mixed, capped = batches_against_single_runs(3)
    assert capped > 0 and mixed > 0  # batches mixing converged and capped runs


def test_best_kmeans_is_the_best_of_single_runs():
    from marketstates.states import init_seeds

    points, _ = planted_blobs(8, np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 4.0]]))
    runs = [single_run(points, 4, int(s)) for s in init_seeds(21, 12)]
    assert_same_run(best_kmeans(points, 4, 12, seed=21), min(runs, key=lambda r: r.objective))


@pytest.mark.parametrize("seed", [0, 3, 11, 12])
def test_grid_spread_of_identical_radii_is_exactly_zero(seed):
    # two tight blobs: every init finds the same split with the same radius,
    # whose mean over 10 copies is not exactly the radius, so std() > 0
    from marketstates.states import _grid_rows, init_seeds

    rng = np.random.default_rng(seed)
    points = np.concatenate([rng.normal(size=(10, 2)) * 0.1,
                             rng.normal(size=(10, 2)) * 0.1 + [5.0, 0.0]])
    seeds = init_seeds(seed, 10)
    radii = np.array([single_run(points, 2, int(s)).d_intra for s in seeds])
    assert (radii == radii[0]).all() and radii.std() > 0.0
    (row,) = _grid_rows(points, 0.3, [2], seeds[None])
    assert row.sigma_d_intra == 0.0
    assert row.mean_d_intra == radii.mean()


def test_kmeans_deterministic_given_seed():
    rng = np.random.default_rng(3)
    points = rng.normal(size=(50, 3))
    a = single_run(points, 4, seed=77)
    b = single_run(points, 4, seed=77)
    assert np.array_equal(a.labels, b.labels)
    assert a.centroids.tobytes() == b.centroids.tobytes()
    assert a.objective == b.objective


def test_best_of_inits_radius_never_grows_with_k():
    rng = np.random.default_rng(4)
    points = rng.normal(size=(60, 3))
    radii = []
    for k in range(1, 8):
        runs = [single_run(points, k, seed=s) for s in range(50)]
        radii.append(min(r.d_intra for r in runs))
    assert all(radii[i + 1] <= radii[i] + 1e-9 for i in range(len(radii) - 1))


def regime_stack(noise=0.01, per_regime=12, n=8, levels=(0.1, 0.35, 0.6, 0.85), seed=0):
    """Synthetic correlation-matrix stack with 4 planted regimes."""
    rng = np.random.default_rng(seed)
    mats = []
    for level in levels:
        for _ in range(per_regime):
            jitter = rng.normal(scale=noise, size=(n, n))
            m = np.full((n, n), level) + (jitter + jitter.T) / 2
            np.fill_diagonal(m, 1.0)
            mats.append(m)
    return np.stack(mats)


def test_optimize_over_grid_surface_is_well_formed():
    grid = optimize_over_grid(
        regime_series(), k_range=range(2, 7), epsilon_grid=[0.0, 0.5], n_inits=20, seed=11
    )
    assert len(grid) == 5 * 2
    assert all(g.n_inits == 20 for g in grid)
    assert all(g.sigma_d_intra >= 0 and g.mean_d_intra > 0 for g in grid)
    # epsilon-major, k-minor ordering
    assert [(g.k, g.epsilon) for g in grid[:5]] == [(k, 0.0) for k in range(2, 7)]


def test_planted_regime_count_shows_up_as_radius_elbow():
    # four planted correlation regimes: the best-of-inits cluster radius
    # collapses at k=4 and the best k=4 run recovers the planted partition,
    # under both raw and power-mapped geometry
    from marketstates.geometry import embed_epochs

    series = regime_series()
    truth = np.repeat(np.arange(4), 12)
    for eps in (0.0, 0.5):
        coords = embed_epochs(series, eps, 3).coordinates
        best = {k: best_kmeans(coords, k, 40, seed=11) for k in range(2, 7)}
        drop34 = best[3].d_intra - best[4].d_intra
        drop45 = best[4].d_intra - best[5].d_intra
        assert drop34 > 20 * max(drop45, 1e-12), f"eps={eps}"
        assert partitions_equal(best[4].labels, truth), f"eps={eps}"


def test_optimize_over_grid_worker_invariance():
    series = regime_series(per_regime=6)
    a = optimize_over_grid(series, range(2, 5), [0.0, 0.3], n_inits=8, seed=3, workers=1)
    b = optimize_over_grid(series, range(2, 5), [0.0, 0.3], n_inits=8, seed=3, workers=3)
    assert a == b


def test_optimize_over_grid_rejects_bad_parameters():
    series = regime_series(per_regime=3)
    with pytest.raises(ValueError, match="n_inits"):
        optimize_over_grid(series, [2], [0.0], n_inits=1, seed=1)
    # a negative epsilon is refused, not scored
    with pytest.raises(ValueError, match="epsilon"):
        optimize_over_grid(series, [2, 3], [-0.5, 0.0], n_inits=4, seed=1)


def test_best_kmeans_names_an_empty_ensemble():
    points = np.zeros((4, 2))
    with pytest.raises(ValueError, match="n_inits must be >= 1, got 0"):
        best_kmeans(points, 2, 0, seed=0)


def regime_series(**kwargs):
    """The planted epochs of ``regime_stack(**kwargs)`` as a series."""
    return series_of(regime_stack(**kwargs))


@pytest.mark.parametrize("call, message", [
    (lambda s: fit_series(s, 0, 0.0, 4, 0), "k must be in 1..12 for 12 epochs, got 0"),
    (lambda s: fit_series(s, 13, 0.0, 4, 0), "k must be in 1..12 for 12 epochs, got 13"),
    (lambda s: fit_series(s, 2, 0.0, 0, 0), "n_inits must be >= 1, got 0"),
    (lambda s: fit_series(s, 2, 0.0, 4, 0, dim=0), "D must be in 1..11 for 12 epochs, got 0"),
    (lambda s: fit_series(s, 2, 0.0, 4, 0, dim=12), "D must be in 1..11 for 12 epochs, got 12"),
    (lambda s: optimize_over_grid(s, [2, 13], [0.0], 4, 0),
     "k must be in 1..12 for 12 epochs, got 13"),
    (lambda s: optimize_over_grid(s, [2], [0.0], 4, 0, dim=12),
     "D must be in 1..11 for 12 epochs, got 12"),
    (lambda s: optimize_over_grid(s, [2, 3], [0.0, 0.3, -0.5], 3, 0),
     "epsilon must be >= 0, got -0.5"),
    (lambda s: optimize_over_grid(s, [2, 3], [0.0, 0.3, float("nan")], 3, 0),
     "epsilon must be finite, got nan"),
    (lambda s: fit_series(s, 2, 0.0, 4, -1), "seed must be >= 0, got -1"),
    (lambda s: optimize_over_grid(s, [2, 3], [0.0], 3, -1), "seed must be >= 0, got -1"),
    (lambda s: optimize_over_grid(s, [2, 3, 2], [0.0], 3, 0), "k_range lists 2 more than once"),
    (lambda s: optimize_over_grid(s, [2, 3], [0.0, 0.3, 0.0], 3, 0),
     "epsilon_grid lists 0.0 more than once"),
], ids=["fit_k0", "fit_k_above_epochs", "fit_n_inits0", "fit_dim0", "fit_dim_epochs",
        "grid_k_above_epochs", "grid_dim_epochs", "grid_last_epsilon_negative",
        "grid_last_epsilon_nan", "fit_negative_seed", "grid_negative_seed", "grid_repeated_k",
        "grid_repeated_epsilon"])
def test_bad_fit_arguments_fail_before_the_kernel(monkeypatch, call, message):
    calls = []
    real = geometry.similarity_matrix
    monkeypatch.setattr(geometry, "similarity_matrix",
                        lambda *args, **kwargs: calls.append(1) or real(*args, **kwargs))
    with pytest.raises(ValueError, match=message):
        call(regime_series(per_regime=3))  # 12 epochs
    assert calls == []


def test_select_optimum_rules():
    grid = [
        GridPoint(4, 0.5, 0.02, 0.5, 10),
        GridPoint(5, 0.9, 0.01, 0.5, 10),
        GridPoint(2, 0.0, 0.001, 0.5, 10),  # below k_min, must be ignored
    ]
    assert select_optimum(grid, k_min=4) == (5, 0.9)

    tied = [
        GridPoint(5, 0.3, 0.01, 0.5, 10),
        GridPoint(6, 0.8, 0.01, 0.5, 10),
        GridPoint(6, 0.4, 0.01, 0.5, 10),
    ]
    # ties: larger k first, then smaller epsilon
    assert select_optimum(tied, k_min=4) == (6, 0.4)

    with pytest.raises(ValueError):
        select_optimum(grid, k_min=7)


def fake_series(stack):
    dates = [f"d{i}" for i in range(len(stack))]
    return EpochCorrelationSeries(["a", "b"], stack, dates, [""] * len(stack))


def fake_run(labels, k):
    labels = np.asarray(labels)
    return ClusteringRun(
        k=k, seed=0, labels=labels,
        centroids=np.zeros((k, 3)), d_intra=0.0, objective=0.0,
        n_iterations=1, converged=True,
    )


def low_high_stack(labels, low=0.1, high=0.8):
    mats = []
    for lab in labels:
        c = low if lab == 1 else high
        m = np.full((2, 2), c)
        np.fill_diagonal(m, 1.0)
        mats.append(m)
    return np.stack(mats)


def test_state_model_constant_labels():
    stack = low_high_stack([1, 1, 1, 1, 1])
    model = build_state_model(fake_series(stack), fake_run([1, 1, 1, 1, 1], k=1))
    assert model.transition_counts.tolist() == [[4]]
    assert model.k == 1
    assert model.occupancy().tolist() == [5]


def test_state_model_hand_counted_transitions():
    labels = [1, 1, 2, 1]
    stack = low_high_stack(labels)
    model = build_state_model(fake_series(stack), fake_run(labels, k=2))
    # cluster 1 has the lower mean correlation, so S1 = cluster 1
    T = model.transition_counts
    assert T[0, 0] == 1 and T[0, 1] == 1 and T[1, 0] == 1 and T[1, 1] == 0
    assert T.sum() == len(labels) - 1


def test_state_model_renames_by_mean_correlation():
    # raw cluster 1 is the HIGH-correlation one; renaming must swap S-numbers
    labels = [1, 2, 2, 1]
    stack = low_high_stack(labels, low=0.7, high=0.05)  # label 1 -> 0.7
    model = build_state_model(fake_series(stack), fake_run(labels, k=2))
    assert model.state_mean_corr[0] < model.state_mean_corr[1]
    np.testing.assert_array_equal(model.state_of, [2, 1, 1, 2])
    assert partitions_equal(model.state_of, labels)
    # average matrices follow the S-order
    assert model.avg_corr_matrix[0][0, 1] == pytest.approx(0.05)
    assert model.avg_corr_matrix[1][0, 1] == pytest.approx(0.7)


def test_state_model_transition_identities_fuzz():
    rng = np.random.default_rng(6)
    for _ in range(200):
        k = int(rng.integers(1, 6))
        length = int(rng.integers(k + 1, 40))
        # guarantee every label occurs
        labels = np.concatenate([np.arange(1, k + 1), rng.integers(1, k + 1, length - k)])
        rng.shuffle(labels)
        stack = np.stack([np.full((2, 2), 0.1 * lab) for lab in labels])
        model = build_state_model(fake_series(stack), fake_run(labels, k=k))
        T = model.transition_counts
        assert T.sum() == length - 1
        occupancy = model.occupancy()
        for s in range(1, k + 1):
            expected = occupancy[s - 1] - (1 if model.state_of[-1] == s else 0)
            assert T[s - 1].sum() == expected


def test_state_model_rejects_mapped_series_and_bad_labels():
    # no series holds mapped matrices, since power_map takes arrays only; the
    # model averages the raw matrices and records the clustering's epsilon
    stack = low_high_stack([1, 2])
    with pytest.raises(TypeError):
        power_map(fake_series(stack), 0.6)
    model = build_state_model(fake_series(stack), fake_run([1, 2], k=2), epsilon=0.6)
    assert model.epsilon == 0.6
    assert build_state_model(fake_series(stack), fake_run([1, 2], k=2)).epsilon == 0.0
    assert np.stack(model.avg_corr_matrix).tobytes() == stack.tobytes()
    with pytest.raises(ValueError):
        build_state_model(fake_series(stack), fake_run([1], k=1))


@pytest.mark.parametrize("shape", [(400, 4, 4), (37, 20, 20), (1000, 2, 2), (3, 35, 35)])
def test_state_averages_match_the_mean_of_member_copies(shape):
    rng = np.random.default_rng(shape[0])
    stack = rng.standard_normal(shape)
    stack = (stack + stack.transpose(0, 2, 1)) / 2
    labels = rng.integers(1, 4, shape[0])
    labels[:3] = [1, 2, 3]
    series = EpochCorrelationSeries([f"l{i}" for i in range(shape[1])], stack,
                                    [f"d{i}" for i in range(shape[0])], [""] * shape[0])
    model = build_state_model(series, fake_run(labels, k=3))
    # oracle: the average over a copy of each cluster's matrices
    want = {c: stack[labels == c].mean(axis=0).tobytes() for c in (1, 2, 3)}
    assert sorted(avg.tobytes() for avg in model.avg_corr_matrix) == sorted(want.values())


def test_state_averages_copy_no_cluster(peak_bytes):
    # one cluster holds 90% of the epochs: a copy of its members is 0.9 stack
    n_epochs, n = 400, 30
    stack = np.broadcast_to(np.eye(n), (n_epochs, n, n)).copy()
    series = EpochCorrelationSeries([f"l{i}" for i in range(n)], stack,
                                    [f"d{i}" for i in range(n_epochs)], [""] * n_epochs)
    labels = np.where(np.arange(n_epochs) % 10 == 0, 2, 1)
    run = fake_run(labels, k=2)
    assert peak_bytes(lambda: build_state_model(series, run)) < 0.1 * stack.nbytes


def test_fit_series_end_to_end_on_regime_panel():
    # two regimes in the underlying returns: calm then strongly coupled
    rng = np.random.default_rng(7)
    n, L = 10, 120
    common = rng.normal(size=L)
    noise = rng.normal(size=(n, L))
    returns = 0.2 * common + noise
    returns[:, 60:] = 0.9 * common[60:] + 0.25 * noise[:, 60:]
    panel = ReturnPanel(
        tickers=[f"S{i}" for i in range(n)],
        dates=[f"d{t}" for t in range(L)],
        returns=returns,
    )
    series = epoch_correlations(panel, EpochSpec(window=20, shift=5))
    model, run, embedding = fit_series(series, k=2, epsilon=0.0, n_inits=30, seed=2)
    assert model.k == 2
    assert embedding.coordinates.shape == (21, 3)
    assert model.state_mean_corr[0] < model.state_mean_corr[1]
    assert len(model.epoch_dates) == 21
    # high-correlation epochs live in the later half
    late = model.state_of[-6:]
    assert np.all(late == 2)
