import sys

import numpy as np
import pytest

from marketstates.corrmat import EpochSpec, epoch_correlations, power_map
from marketstates.errors import NumericError
from marketstates.geometry import (
    Embedding,
    classical_mds,
    dimension_fidelity,
    embed_epochs,
    similarity_matrix,
    step_lengths,
)
from marketstates.ingest import ReturnPanel
from marketstates.sector import sector_series


def euclidean_matrix(points):
    return np.linalg.norm(points[:, None, :] - points[None, :, :], axis=2)


def random_corr_series(seed, n_stocks=6, n_returns=60):
    rng = np.random.default_rng(seed)
    panel = ReturnPanel(
        tickers=[f"S{i}" for i in range(n_stocks)],
        dates=[f"d{t}" for t in range(n_returns)],
        returns=rng.normal(size=(n_stocks, n_returns)),
    )
    return epoch_correlations(panel, EpochSpec(window=20, shift=5))


def test_similarity_identical_matrices_is_zero():
    block = np.random.default_rng(0).normal(size=(4, 4))
    block = (block + block.T) / 2
    sim = similarity_matrix(np.stack([block, block, block]))
    np.testing.assert_array_equal(sim, np.zeros((3, 3)))


def test_similarity_all_ones_vs_identity():
    sim = similarity_matrix(np.stack([np.ones((2, 2)), np.eye(2)]))
    assert sim[0, 1] == 0.5  # (0 + 1 + 1 + 0) / 4
    assert sim[1, 0] == 0.5
    assert sim[0, 0] == 0.0


def test_similarity_matches_triple_loop_oracle():
    series = random_corr_series(1, n_stocks=5, n_returns=45)
    sim = similarity_matrix(series.values_stack())
    mats = [m.values for m in series.matrices]
    n = len(mats)
    N = mats[0].shape[0]
    for a in range(n):
        for b in range(n):
            total = 0.0
            for i in range(N):
                for j in range(N):
                    total += abs(mats[a][i, j] - mats[b][i, j])
            assert abs(sim[a, b] - total / N**2) < 1e-14


def row_by_row_similarity(stack):
    """The dissimilarity kernel before upper-triangle packing: full N^2 rows."""
    X = np.stack([m.ravel() for m in stack])
    n, width = X.shape
    out = np.zeros((n, n))
    block = max(1, (1 << 25) // max(width, 1))
    for i in range(n):
        for j0 in range(i + 1, n, block):
            j1 = min(j0 + block, n)
            out[i, j0:j1] = np.abs(X[j0:j1] - X[i]).mean(axis=1)
    return out + out.T


def symmetric_stack(seed, n, N):
    a = np.random.default_rng(seed).normal(size=(n, N, N))
    return (a + a.transpose(0, 2, 1)) / 2


def _oracle_cases():
    series = random_corr_series(10, n_stocks=9, n_returns=120)
    sector_of = {f"S{i}": f"x{i % 3}" for i in range(9)}
    return {
        "raw": series.values_stack(),
        "power_mapped": power_map(series.values_stack(), 0.6),
        "sectors": sector_series(series, sector_of).values_stack(),
        "sectors_self_pairs": sector_series(
            series, sector_of, include_self_pairs=True
        ).values_stack(),
        "one_stock": symmetric_stack(11, 7, 1),
        "two_epochs": symmetric_stack(12, 2, 30),
        # width 7 260: a row of 19 pairs spans three 9-row buffer blocks
        "multi_block": symmetric_stack(13, 20, 120),
    }


# 2 and 3 threads; "two_epochs" has fewer rows than threads
@pytest.mark.parametrize("case, workers", [
    pytest.param(case, workers, id=case if workers == 1 else f"{case}-{workers}threads")
    for case in sorted(_oracle_cases()) for workers in (1, 2, 3)
])
def test_packed_kernel_matches_row_by_row_oracle(case, workers):
    stack = _oracle_cases()[case]
    got = similarity_matrix(stack, workers)
    want = row_by_row_similarity(stack)
    np.testing.assert_array_equal(got, got.T)
    assert np.all(np.diag(got) == 0.0)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    assert got.tobytes() == similarity_matrix(stack).tobytes()


def test_kernel_threads_under_fast_switching_match_one_thread():
    # more threads than cores, switching as often as the interpreter allows:
    # a row written twice or never would change the bytes
    stack = symmetric_stack(16, 40, 12)
    serial = similarity_matrix(stack)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = similarity_matrix(stack, workers=8)
    finally:
        sys.setswitchinterval(interval)
    assert threaded.tobytes() == serial.tobytes()


def test_failure_in_a_kernel_thread_raises_from_similarity_matrix(monkeypatch):
    from marketstates import geometry

    real_rows = geometry._l1_rows

    def failing_rows(X, out, first, step, block):
        if first == 1:
            raise RuntimeError("injected kernel failure")
        real_rows(X, out, first, step, block)

    monkeypatch.setattr(geometry, "_l1_rows", failing_rows)
    with pytest.raises(RuntimeError, match="injected kernel failure"):
        similarity_matrix(symmetric_stack(15, 6, 5), workers=2)


def test_similarity_working_set_is_below_the_input_stack(peak_bytes):
    stack = symmetric_stack(14, 30, 300)
    assert peak_bytes(lambda: similarity_matrix(stack)) < 0.75 * stack.nbytes


def signed_stack(seed):
    """A symmetric stack with negatives, zeros, -0.0 and +-1 on and off the diagonal."""
    stack = np.tanh(symmetric_stack(seed, 9, 7))
    stack[0, :2, :2] = 0.0
    stack[1, :2, :2] = -0.0
    stack[2, 0, 1] = stack[2, 1, 0] = -1.0
    stack[3, 2, 2] = 1.0
    return stack


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("eps", [0.1, 0.3, 0.7, 0.9])
def test_kernel_power_map_equals_mapping_the_stack_first(eps, workers):
    for stack in (signed_stack(3), random_corr_series(4).values_stack()):
        got = similarity_matrix(stack, workers, epsilon=eps)
        assert got.tobytes() == similarity_matrix(power_map(stack, eps), workers).tobytes()
    assert similarity_matrix(stack, epsilon=0.0).tobytes() == similarity_matrix(stack).tobytes()


def test_embedding_at_positive_epsilon_holds_no_mapped_stack(peak_bytes):
    # the kernel maps each epoch as it packs it: only the half-size packed copy
    stack = symmetric_stack(15, 30, 150)
    assert peak_bytes(lambda: embed_epochs(stack, 0.3, 3)) < 0.75 * stack.nbytes


def test_double_centering_works_in_one_square_array(peak_bytes):
    from marketstates.geometry import _double_center

    rng = np.random.default_rng(4)
    Z = np.abs(rng.normal(size=(600, 600)))
    Z += Z.T
    squared = Z * Z
    want = -0.5 * (squared - squared.mean(axis=1, keepdims=True)
                   - squared.mean(axis=0, keepdims=True) + squared.mean())
    assert _double_center(Z).tobytes() == want.tobytes()
    assert peak_bytes(lambda: _double_center(Z)) <= 1.05 * Z.nbytes


def test_leading_axes_equal_a_map_at_that_dimension():
    sim = similarity_matrix(power_map(random_corr_series(6).values_stack(), 0.4))
    full = classical_mds(sim, D=len(sim) - 1, warn=False)
    for D in (1, 2, 3, 5):
        got, want = full.leading(D), classical_mds(sim, D=D, warn=False)
        assert got.coordinates.tobytes() == want.coordinates.tobytes()
        assert got.eigenvalues.tobytes() == want.eigenvalues.tobytes()
        assert got.full_eigenvalues.tobytes() == want.full_eigenvalues.tobytes()
        assert (got.D, got.n_clipped, got.clipped_mass) == (D, want.n_clipped,
                                                            want.clipped_mass)
    with pytest.raises(ValueError, match="D must be in"):
        full.leading(len(sim))


def test_similarity_metric_properties():
    Z = similarity_matrix(random_corr_series(2).values_stack())
    np.testing.assert_array_equal(Z, Z.T)
    assert np.all(np.diag(Z) == 0.0)
    assert np.all(Z >= 0.0)
    a, b, c = np.random.default_rng(3).integers(0, Z.shape[0], size=(3, 1000))
    assert (Z[a, c] - Z[a, b] - Z[b, c]).max() <= 1e-12  # triangle inequality


def test_similarity_input_validation():
    with pytest.raises(NumericError):
        similarity_matrix(np.eye(3)[None])
    with pytest.raises(ValueError, match="epsilon must be >= 0"):
        similarity_matrix(np.stack([np.eye(3)] * 2), epsilon=-0.1)
    with pytest.raises(NumericError, match="3-D"):
        similarity_matrix(np.eye(3))
    with pytest.raises(TypeError, match="ndarray"):
        similarity_matrix(random_corr_series(0))
    for shape in ((3, 2, 3), (3, 0, 0)):
        with pytest.raises(NumericError, match="non-empty square"):
            similarity_matrix(np.zeros(shape))
    nonfinite = np.stack([np.eye(3)] * 4)
    nonfinite[2, 1, 1] = np.nan
    with pytest.raises(NumericError, match="epoch 2 has a non-finite"):
        similarity_matrix(nonfinite)
    nonfinite[2, 1, 1] = np.inf
    with pytest.raises(NumericError, match="epoch 2 has a non-finite"):
        similarity_matrix(nonfinite)
    # packing would silently read only the upper triangle of this stack
    asymmetric = np.stack([np.eye(3)] * 3)
    asymmetric[0, 0, 1] = 0.5
    with pytest.raises(NumericError, match="epoch 0 is not exactly symmetric"):
        similarity_matrix(asymmetric)


def per_epoch_packing(stack, epsilon):
    """The packing loop before chunking: one epoch's triangle and diagonal at a time."""
    n, N, _ = stack.shape
    iu = np.triu_indices(N, 1)
    k = iu[0].size
    X = np.empty((n, k + N))
    for e, m in enumerate(stack):
        upper, diagonal = m[iu], np.diagonal(m)
        if epsilon:
            upper, diagonal = power_map(upper, epsilon), power_map(diagonal, epsilon)
        X[e, :k] = 2.0 * upper
        X[e, k:] = diagonal
    return X


@pytest.mark.parametrize("eps", [0.0, 0.3])
def test_chunked_packing_matches_the_per_epoch_loop(eps):
    from marketstates.geometry import _packed_epochs

    # 100 stocks: 6 epochs per 512 KB chunk, so 20 epochs end in a partial chunk
    for stack in (np.tanh(symmetric_stack(17, 20, 100)), signed_stack(5)):
        assert _packed_epochs(stack, eps).tobytes() == per_epoch_packing(stack, eps).tobytes()


def test_packing_names_the_lowest_bad_epoch_across_chunks():
    stack = np.tanh(symmetric_stack(18, 20, 100))  # chunks of epochs 0-5, 6-11, 12-17, 18-19
    stack[19, 3, 3] = np.nan
    stack[14, 0, 1] += 0.5
    with pytest.raises(NumericError, match="epoch 14 is not exactly symmetric"):
        similarity_matrix(stack, epsilon=0.3)
    stack[15, 2, 2] = np.inf  # later in the same chunk: the earlier epoch still wins
    with pytest.raises(NumericError, match="epoch 14 is not exactly symmetric"):
        similarity_matrix(stack)
    stack[13, 4, 1] = np.nan  # only below the diagonal: packing would miss it
    with pytest.raises(NumericError, match="epoch 13 is not exactly symmetric"):
        similarity_matrix(stack)
    stack[12, 7, 9] = stack[12, 9, 7] = -np.inf
    with pytest.raises(NumericError, match="epoch 12 has a non-finite entry"):
        similarity_matrix(stack, epsilon=0.3)
    stack[7, 0, 0] = np.nan
    stack[7, 0, 1] += 0.5  # both faults in one epoch: non-finite is named
    with pytest.raises(NumericError, match="epoch 7 has a non-finite entry"):
        similarity_matrix(stack)


def test_mds_unit_square():
    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    emb = classical_mds(euclidean_matrix(square), D=2)
    recovered = euclidean_matrix(emb.coordinates)
    np.testing.assert_allclose(recovered, euclidean_matrix(square), atol=1e-9)


def test_mds_zero_dissimilarity_gives_origin():
    emb = classical_mds(np.zeros((5, 5)), D=2)
    np.testing.assert_array_equal(emb.coordinates, np.zeros((5, 2)))


def test_mds_recovers_random_3d_configuration():
    rng = np.random.default_rng(4)
    points = rng.normal(size=(50, 3))
    emb = classical_mds(euclidean_matrix(points), D=3)
    err = np.abs(euclidean_matrix(emb.coordinates) - euclidean_matrix(points)).max()
    assert err < 1e-8
    # eigenvalue bookkeeping
    assert emb.eigenvalues.shape == (3,)
    assert np.all(np.diff(emb.eigenvalues) <= 0)
    assert np.all(emb.eigenvalues >= 0)
    assert emb.full_eigenvalues.shape == (50,)


def test_mds_centering_and_sign_convention():
    rng = np.random.default_rng(5)
    points = rng.normal(size=(20, 4))
    emb = classical_mds(euclidean_matrix(points), D=4)
    assert np.abs(emb.coordinates.mean(axis=0)).max() < 1e-9
    for m in range(4):
        column = emb.coordinates[:, m]
        assert column[np.argmax(np.abs(column))] >= 0


def test_mds_permutation_equivariance():
    rng = np.random.default_rng(6)
    points = rng.normal(size=(15, 3))
    Z = euclidean_matrix(points)
    perm = rng.permutation(15)
    base = classical_mds(Z, D=3).coordinates
    shuffled = classical_mds(Z[np.ix_(perm, perm)], D=3).coordinates
    np.testing.assert_allclose(shuffled, base[perm], atol=1e-9)


def test_mds_is_deterministic():
    sim = similarity_matrix(random_corr_series(7).values_stack())
    a = classical_mds(sim, D=3).coordinates
    b = classical_mds(sim, D=3).coordinates
    assert a.tobytes() == b.tobytes()


def test_mds_clips_negative_eigenvalues_and_pads():
    # points on a circle with arc-length distances: classic non-Euclidean input
    n = 8
    ang = 2 * np.pi * np.arange(n) / n
    gap = np.abs(ang[:, None] - ang[None, :])
    geo = np.minimum(gap, 2 * np.pi - gap)
    with pytest.warns(RuntimeWarning, match="zero-padded"):
        emb = classical_mds(geo, D=7)
    assert emb.n_clipped >= 3
    assert emb.clipped_mass > 0.1
    assert np.all(emb.coordinates[:, -1] == 0.0)
    assert emb.eigenvalues[-1] == 0.0


def test_mds_dimension_validation():
    sim = np.zeros((4, 4))
    for bad in (0, 4, -1):
        with pytest.raises(ValueError):
            classical_mds(sim, D=bad)
    # an epoch stack is not a dissimilarity matrix
    with pytest.raises(ValueError, match="square"):
        classical_mds(np.zeros((4, 3, 3)), D=2)


def test_step_lengths():
    coords = np.array([[0.0, 0.0], [3.0, 4.0], [3.0, 4.0]])
    np.testing.assert_allclose(step_lengths(coords), [5.0, 0.0])


def test_dimension_fidelity_reference_dimension_is_exact():
    sim = similarity_matrix(random_corr_series(8).values_stack())
    d_max = len(sim) - 1  # an ndarray's size is the square
    results = dict(dimension_fidelity(sim, [1, d_max]))
    assert results[d_max] == 1.0
    assert -1.0 <= results[1] <= 1.0


def test_dimension_fidelity_monotone_on_anisotropic_cloud():
    rng = np.random.default_rng(3)
    scales = np.array([5.0, 2.5, 1.2, 0.6, 0.3, 0.15])
    points = rng.normal(size=(40, 6)) * scales
    sim = euclidean_matrix(points)
    values = [r for _, r in dimension_fidelity(sim, [1, 2, 3, 4])]
    assert all(values[i] <= values[i + 1] + 1e-12 for i in range(3))
    assert values[3] > 0.9


def test_dimension_fidelity_validation_and_degenerate_input():
    sim = np.zeros((2, 2))
    with pytest.raises(NumericError):
        dimension_fidelity(sim, [1])
    with pytest.raises(ValueError, match="square"):
        dimension_fidelity(np.zeros((4, 5)), [1])
    line = np.arange(5.0)[:, None]
    sim_line = euclidean_matrix(line)
    with pytest.raises(ValueError):
        dimension_fidelity(sim_line, [])
    with pytest.raises(ValueError):
        dimension_fidelity(sim_line, [5])
    # equally spaced collinear points: every step sequence is constant
    with pytest.raises(NumericError, match="constant"):
        dimension_fidelity(sim_line, [1])
