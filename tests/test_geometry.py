import sys
from types import SimpleNamespace

import numpy as np
import pytest

from marketstates.corrmat import (
    QMAX_FLOOR,
    EpochCorrelationSeries,
    EpochSpec,
    _kernel_copy,
    epoch_correlations,
    power_map,
)
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
from test_sector import series_of


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


def kernel_rows(series, epsilon=0.0):
    """The kernel's int16 rows of ``series`` at ``epsilon``, and their scale."""
    rows = np.empty(series.packed.shape, dtype=np.int16)
    return rows, _kernel_copy(series, rows, epsilon)


def kernel_bound(series, epsilon=0.0):
    """The fixed-point kernel's bound on |D - D_float64|: width / (scale N^2).

    Rounding moves each of a pair's 2 x width int16 entries by at most half
    a unit, and a distance is its integer sum divided by scale N^2.
    """
    N = series.n_labels
    return series.packed.shape[1] / (kernel_rows(series, epsilon)[1] * N * N)


def test_similarity_identical_matrices_is_zero():
    block = np.random.default_rng(0).normal(size=(4, 4))
    block = (block + block.T) / 2
    sim = similarity_matrix(series_of([block, block, block]))
    np.testing.assert_array_equal(sim, np.zeros((3, 3)))


def test_similarity_all_ones_vs_identity():
    sim = similarity_matrix(series_of([np.ones((2, 2)), np.eye(2)]))
    assert sim[0, 1] == 0.5  # (0 + 1 + 1 + 0) / 4
    assert sim[1, 0] == 0.5
    assert sim[0, 0] == 0.0


def test_similarity_matches_triple_loop_oracle():
    series = random_corr_series(1, n_stocks=5, n_returns=45)
    sim = similarity_matrix(series)
    bound = kernel_bound(series)
    mats = [m.values for m in series.matrices]
    n = len(mats)
    N = mats[0].shape[0]
    for a in range(n):
        for b in range(n):
            total = 0.0
            for i in range(N):
                for j in range(N):
                    total += abs(mats[a][i, j] - mats[b][i, j])
            assert abs(sim[a, b] - total / N**2) <= bound


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
        # width 7 260: chunks of 36 rows, so the 39 rows make a full and a partial chunk
        "multi_block": symmetric_stack(13, 40, 120),
    }


# 2 and 3 threads; "two_epochs" has fewer rows than threads
@pytest.mark.parametrize("case, workers", [
    pytest.param(case, workers, id=case if workers == 1 else f"{case}-{workers}threads")
    for case in sorted(_oracle_cases()) for workers in (1, 2, 3)
])
def test_packed_kernel_matches_row_by_row_oracle(case, workers):
    stack = _oracle_cases()[case]
    got = similarity_matrix(series_of(stack), workers)
    want = row_by_row_similarity(stack)
    np.testing.assert_array_equal(got, got.T)
    assert np.all(np.diag(got) == 0.0)
    assert np.abs(got - want).max() <= kernel_bound(series_of(stack))
    assert got.tobytes() == similarity_matrix(series_of(stack)).tobytes()


def subtract_abs_similarity(stack, epsilon):
    """The kernel before the maximum-sum identity: sum |X[j] - X[i]| over packed rows."""
    X = per_epoch_packing(stack, epsilon)
    n = len(X)
    out = np.zeros((n, n))
    for i in range(n - 1):
        out[i, i + 1:] = np.abs(X[i + 1:] - X[i]).sum(axis=1)
    out /= stack.shape[1] ** 2
    return out + out.T


def shift_one_stack(seed, n_stocks=64, n_epochs=50):
    """Window-20, shift-1 epochs of a one-factor panel, with repeated epochs appended."""
    rng = np.random.default_rng(seed)
    n_returns = n_epochs + 19
    returns = 0.6 * rng.normal(size=n_returns) + rng.normal(size=(n_stocks, n_returns))
    panel = ReturnPanel(tickers=[f"S{i}" for i in range(n_stocks)],
                        dates=[f"d{t}" for t in range(n_returns)], returns=returns)
    stack = epoch_correlations(panel, EpochSpec(window=20, shift=1)).values_stack()
    return np.concatenate([stack, stack[[0, 7, 7]]])


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("eps", [0.0, 0.6])
def test_max_sum_kernel_matches_subtract_abs_oracle(eps, workers):
    stack = shift_one_stack(19)
    n = len(stack) - 3
    got = similarity_matrix(series_of(stack), workers, epsilon=eps)
    want = subtract_abs_similarity(stack, eps)
    bound = kernel_bound(series_of(stack), eps)
    # the appended copies of epochs 0 and 7 (rows n, n+1, n+2) are exact zeros
    for a, b in ((0, n), (7, n + 1), (7, n + 2), (n + 1, n + 2)):
        assert got[a, b] == 0.0 and got[b, a] == 0.0
    assert np.all(got >= 0.0)
    positive = want > 0.0
    # two distinct epochs could round to one int16 row and read 0; here the
    # nearest (neighbouring shift-1 epochs, which share 19 of 20 days) are
    # farther apart than the bound, so every positive distance stays positive
    assert want[positive].min() > bound
    assert np.array_equal(positive, got > 0.0)
    assert np.abs(got - want).max() <= bound
    assert got.tobytes() == similarity_matrix(series_of(stack), epsilon=eps).tobytes()


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("eps", [0.0, 0.6])
def test_kernel_distances_are_exact_integer_sums_of_its_int16_rows(eps, workers):
    # 200 stocks: chunks of 13 rows, so 3 threads share the 42 rows' 4 chunks
    series = series_of(shift_one_stack(29, n_stocks=200, n_epochs=40))
    N = series.n_labels
    rows, scale = kernel_rows(series, eps)
    rows = rows.astype(np.int64)
    direct = np.stack([np.abs(rows - row).sum(axis=1) for row in rows])
    got = similarity_matrix(series, workers, eps)
    assert got.tobytes() == (direct / (scale * N * N)).tobytes()


def test_kernel_threads_under_fast_switching_match_one_thread():
    # more threads than cores, switching as often as the interpreter allows:
    # a row written twice or never would change the bytes
    stack = series_of(symmetric_stack(16, 40, 12))
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

    def failing_rows(X, sums, out, first, *args):
        if first == 1:
            raise RuntimeError("injected kernel failure")
        real_rows(X, sums, out, first, *args)

    monkeypatch.setattr(geometry, "_l1_rows", failing_rows)
    # 120 stocks: chunks of 36 rows, so 40 epochs make 2 chunks and thread 1 owns one
    with pytest.raises(RuntimeError, match="injected kernel failure"):
        similarity_matrix(series_of(symmetric_stack(15, 40, 120)), workers=2)


def row_order_l1_rows(X, sums, out, first, step, buf):
    """The kernel's loop before chunks of rows: row i against blocks of the rows after it."""
    n, block = len(X), len(buf)
    for i in range(first, n - 1, step):
        for j0 in range(i + 1, n, block):
            j1 = min(j0 + block, n)
            b = buf[: j1 - j0]
            np.maximum(X[j0:j1], X[i], out=b)
            b.sum(axis=1, dtype=np.int64, out=out[i, j0:j1])
        row = out[i, i + 1:]
        row *= 2.0
        row -= sums[i]
        row -= sums[i + 1:]


def _chunk_cases():
    series = random_corr_series(21, n_stocks=12, n_returns=140)
    return {
        # 40 stocks: chunks of 319 rows, so 203 epochs make 1 chunk
        "shift1_40": lambda: series_of(shift_one_stack(22, n_stocks=40, n_epochs=200)),
        # 60 stocks: chunks of 143 rows, so 103 epochs make 1 chunk
        "shift1_60": lambda: series_of(shift_one_stack(23, n_stocks=60, n_epochs=100)),
        # 200 stocks: chunks of 13 rows, so 62 epochs make 4 full and a partial chunk
        "shift1_200": lambda: series_of(shift_one_stack(30, n_stocks=200, n_epochs=59)),
        "one_chunk": lambda: series_of(shift_one_stack(24, n_stocks=40, n_epochs=40)),
        "two_epochs": lambda: series_of(symmetric_stack(25, 2, 30)),
        "one_stock": lambda: series_of(symmetric_stack(26, 30, 1)),
        "sectors": lambda: sector_series(series, {f"S{i}": f"x{i % 4}" for i in range(12)}),
        "dense": lambda: series_of(symmetric_stack(27, 50, 70)),
    }


@pytest.mark.parametrize("eps", [0.0, 0.6])
@pytest.mark.parametrize("case", sorted(_chunk_cases()))
def test_chunked_diagonal_kernel_has_the_row_order_bits(monkeypatch, case, eps):
    from marketstates import geometry

    epochs = _chunk_cases()[case]()
    got = [similarity_matrix(epochs, workers, eps).tobytes() for workers in (1, 2, 3, 8)]
    monkeypatch.setattr(geometry, "_l1_rows", row_order_l1_rows)
    want = similarity_matrix(epochs, 1, eps).tobytes()
    assert got == [want] * 4


@pytest.mark.parametrize("n, N, workers", [(203, 40, 2), (203, 40, 3), (104, 60, 3),
                                           (40, 60, 2), (80, 40, 8), (2, 30, 8), (9, 1, 3),
                                           (62, 200, 1), (62, 200, 2), (62, 200, 3)])
def test_every_kernel_thread_owns_a_chunk(monkeypatch, n, N, workers):
    from marketstates import geometry

    calls = []
    real_rows = geometry._l1_rows

    def recording_rows(X, sums, out, first, step, buf):
        calls.append((first, step, len(buf)))
        real_rows(X, sums, out, first, step, buf)

    monkeypatch.setattr(geometry, "_l1_rows", recording_rows)
    similarity_matrix(series_of(symmetric_stack(28, n, N)), workers)
    R = calls[0][2]
    chunks = -(-(n - 1) // R)
    assert len(calls) == min(workers, chunks)
    owned = sorted(c for first, step, _ in calls for c in range(first, chunks, step))
    assert owned == list(range(chunks))  # every chunk once, and no thread without one
    assert all(first < chunks and step == len(calls) for first, step, _ in calls)


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
        got = similarity_matrix(series_of(stack), workers, epsilon=eps)
        mapped = similarity_matrix(series_of(power_map(stack, eps)), workers)
        assert got.tobytes() == mapped.tobytes()
    series = series_of(stack)
    assert similarity_matrix(series, epsilon=0.0).tobytes() == similarity_matrix(series).tobytes()


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("eps", [0.0, 0.4])
# the last shape has more epochs (600) than packed entries (15): the result dominates
@pytest.mark.parametrize("n_stocks, n_returns", [(60, 259), (30, 1019), (5, 3015)])
def test_similarity_of_a_series_holds_one_packed_copy(peak_bytes, n_stocks, n_returns, eps,
                                                      workers):
    series = random_corr_series(20, n_stocks, n_returns)
    n = series.n_epochs
    # the kernel's int16 copy, a quarter of the float64 rows, the result and,
    # per thread, the 512 KB maximum buffer plus numpy's 64 KB reduction
    # buffer; one float64 chunk of at most 512 KB of the rows that the copy is
    # rounded from, and at epsilon > 0 also that chunk's power-map temporary;
    # no second copy of either
    chunk = min(series.packed.nbytes, 512 << 10)
    bound = (series.packed.nbytes // 4 + n * n * 8 + workers * (640 << 10) + chunk
             + (eps > 0) * chunk)
    assert peak_bytes(lambda: similarity_matrix(series, workers, eps)) <= bound


def test_embedding_at_positive_epsilon_holds_no_mapped_stack(peak_bytes):
    # the kernel maps each epoch as it copies it: its one packed copy, no second
    series = series_of(symmetric_stack(15, 30, 150))
    assert peak_bytes(lambda: embed_epochs(series, 0.3, 3)) < 1.5 * series.packed.nbytes


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
    sim = similarity_matrix(random_corr_series(6), epsilon=0.4)
    full = classical_mds(sim, D=len(sim) - 1)
    for D in (1, 2, 3, 5):
        got, want = full.leading(D), classical_mds(sim, D=D)
        assert got.coordinates.tobytes() == want.coordinates.tobytes()
        assert got.eigenvalues.tobytes() == want.eigenvalues.tobytes()
        assert got.full_eigenvalues.tobytes() == want.full_eigenvalues.tobytes()
        assert (got.D, got.n_clipped, got.clipped_mass) == (D, want.n_clipped,
                                                            want.clipped_mass)
    with pytest.raises(ValueError, match="D must be in"):
        full.leading(len(sim))


def test_similarity_metric_properties():
    Z = similarity_matrix(random_corr_series(2))
    np.testing.assert_array_equal(Z, Z.T)
    assert np.all(np.diag(Z) == 0.0)
    assert np.all(Z >= 0.0)
    a, b, c = np.random.default_rng(3).integers(0, Z.shape[0], size=(3, 1000))
    assert (Z[a, c] - Z[a, b] - Z[b, c]).max() <= 1e-12  # triangle inequality


def test_similarity_input_validation():
    # the kernel takes a series only: a dense stack enters through the constructor
    for dense in (np.stack([np.eye(3)] * 2), [np.eye(3)] * 2):
        with pytest.raises(TypeError, match=f"EpochCorrelationSeries, got {type(dense).__name__}"):
            similarity_matrix(dense)
        with pytest.raises(TypeError, match="EpochCorrelationSeries"):
            embed_epochs(dense, 0.0, 1)
    with pytest.raises(ValueError, match="epsilon must be >= 0"):
        similarity_matrix(series_of([np.eye(3)] * 2), epsilon=-0.1)
    for workers in (0, -3):  # before any work: one epoch would raise a NumericError
        with pytest.raises(ValueError, match=f"workers must be >= 1, got {workers}"):
            similarity_matrix(series_of([np.eye(2)]), workers)
    with pytest.raises(NumericError, match="at least 2 epochs"):
        similarity_matrix(random_corr_series(0, n_returns=20))
    nonfinite = np.stack([np.eye(3)] * 4)
    nonfinite[2, 1, 1] = np.nan
    with pytest.raises(NumericError, match="epoch 2 has a non-finite"):
        series_of(nonfinite)
    nonfinite[2, 1, 1] = np.inf
    with pytest.raises(NumericError, match="epoch 2 has a non-finite"):
        series_of(nonfinite)
    # packing would silently read only the upper triangle of this stack
    asymmetric = np.stack([np.eye(3)] * 3)
    asymmetric[0, 0, 1] = 0.5
    with pytest.raises(NumericError, match="epoch 0 is not exactly symmetric"):
        series_of(asymmetric)


def test_kernel_names_the_first_epoch_the_power_map_makes_non_finite():
    stack = np.stack([np.eye(3)] * 4)
    stack[2, 1, 1] = 1e300  # finite, so the series holds it; 1e300 ** 1.5 is not
    series = series_of(stack)
    assert similarity_matrix(series).max() > 0.0
    with pytest.warns(RuntimeWarning, match="overflow"):
        with pytest.raises(NumericError, match="epoch 2 has a non-finite entry"):
            similarity_matrix(series, epsilon=0.5)


@pytest.mark.filterwarnings("error")  # no cast of NaN to int16 warns on the way
@pytest.mark.parametrize("epsilon", [0.0, 0.6])
def test_kernel_names_the_first_non_finite_packed_epoch(epsilon):
    # packed rows enter a series as they are, so only the kernel can refuse them
    series = series_of([np.eye(3)] * 4)
    for value in (np.nan, np.inf, -np.inf):
        packed = series.packed.copy()
        packed[2, 1] = value
        packed[3, 4] = np.nan  # a later epoch too: the first is named
        bad = EpochCorrelationSeries(series.labels, packed, ["d"] * 4, ["d"] * 4)
        with pytest.raises(NumericError, match="epoch 2 has a non-finite entry"):
            similarity_matrix(bad, epsilon=epsilon)


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


def quantized(X):
    """The kernel's quantizer on weighted, mapped packed rows X: int16 rows and their scale.

    Each column is centred on its midrange over the epochs, and one scale
    takes the widest column onto -qmax .. qmax.
    """
    qmax = min(32767, (2**31 - 1) // X.shape[1])
    lo, hi = X.min(axis=0), X.max(axis=0)
    centre, half = lo / 2 + hi / 2, hi / 2 - lo / 2
    scale = qmax / half.max()
    return np.clip(np.rint((X - centre) * scale), -qmax, qmax).astype(np.int16), scale


@pytest.mark.parametrize("eps", [0.0, 0.3])
def test_chunked_packing_matches_the_per_epoch_loop(eps):
    # 100 stocks: 12 packed epochs per 512 KB chunk, so 20 epochs end in a partial chunk
    for stack in (np.tanh(symmetric_stack(17, 20, 100)), signed_stack(5)):
        n, N = stack.shape[:2]
        series = EpochCorrelationSeries(range(N), stack, [""] * n, [""] * n)
        got, scale = kernel_rows(series, eps)
        want, want_scale = quantized(per_epoch_packing(stack, eps))
        assert got.tobytes() == want.tobytes()
        assert scale == want_scale


def pm_one_stack(N):
    """3 epochs of +-1 entries whose every packed column takes both signs."""
    rng = np.random.default_rng(31)
    stack = np.ones((3, N, N))
    flips = np.triu(rng.random((N, N)) < 0.01)
    stack[1][flips | flips.T] = -1.0
    stack[2] = -1.0
    return stack


def test_widest_rows_keep_exact_int32_sums():
    # width 180 300 takes qmax = (2^31 - 1) // width = 11 910, and epochs 0
    # and 1 agree on 99 % of their entries: their maxima sum to nearly 2^31
    N = 600
    series = series_of(pm_one_stack(N))
    rows, scale = kernel_rows(series)
    assert np.abs(rows).max() == (2**31 - 1) // series.packed.shape[1]
    rows = rows.astype(np.int64)
    assert np.maximum(rows[0], rows[1]).sum() > 0.98 * 2**31
    direct = np.stack([np.abs(rows - row).sum(axis=1) for row in rows])
    for workers in (1, 2):
        got = similarity_matrix(series, workers)
        assert got.tobytes() == (direct / (scale * N * N)).tobytes()


@pytest.mark.parametrize("N, qmax", [(4104, 254), (65536, 0)])
def test_kernel_refuses_widths_that_leave_too_few_steps(N, qmax):
    # qmax = (2^31 - 1) // width falls below QMAX_FLOOR = 255 past N = 4 103;
    # a broadcast series of 2 epochs holds no memory for its packed rows
    assert (2**31 - 1) // (4103 * 4104 // 2) == QMAX_FLOOR
    epochs = SimpleNamespace(packed=np.broadcast_to(0.0, (2, N * (N + 1) // 2)), n_labels=N)
    with pytest.raises(NumericError, match=f"{N} labels leave the int16 kernel {qmax} steps"):
        _kernel_copy(epochs, None, 0.0)


@pytest.mark.parametrize("factor", [1e6, 1e-6])
def test_kernel_takes_entries_far_from_the_unit_range(factor):
    # a series holds any finite symmetric stack: the scale follows the widest column
    stack = factor * signed_stack(6)
    series = series_of(stack)
    rows, _ = kernel_rows(series)
    assert np.abs(rows.astype(np.int64)).max() == 32767  # no int16 wrap
    got = similarity_matrix(series)
    want = row_by_row_similarity(stack)
    assert np.abs(got - want).max() <= kernel_bound(series)
    assert np.array_equal(got > 0.0, want > 0.0)


@pytest.mark.parametrize("workers", [1, 2])
def test_kernel_is_scale_covariant(workers):
    # scaling the input scales the centres and the scale alike: the same int16
    # rows, so criterion 6's scale-invariant variance ratio holds
    stack = shift_one_stack(32, n_stocks=30, n_epochs=60)
    got = similarity_matrix(series_of(3.0 * stack), workers)
    want = 3.0 * similarity_matrix(series_of(stack), workers)
    positive = want > 0.0
    assert np.array_equal(positive, got > 0.0)
    assert (np.abs(got - want)[positive] / want[positive]).max() <= 1e-12


def test_packing_names_the_lowest_bad_epoch_across_chunks():
    stack = np.tanh(symmetric_stack(18, 20, 100))  # chunks of epochs 0-5, 6-11, 12-17, 18-19
    stack[19, 3, 3] = np.nan
    stack[14, 0, 1] += 0.5
    with pytest.raises(NumericError, match="epoch 14 is not exactly symmetric"):
        series_of(stack)
    stack[15, 2, 2] = np.inf  # later in the same chunk: the earlier epoch still wins
    with pytest.raises(NumericError, match="epoch 14 is not exactly symmetric"):
        series_of(stack)
    stack[13, 4, 1] = np.nan  # only below the diagonal: packing would miss it
    with pytest.raises(NumericError, match="epoch 13 is not exactly symmetric"):
        series_of(stack)
    stack[12, 7, 9] = stack[12, 9, 7] = -np.inf
    with pytest.raises(NumericError, match="epoch 12 has a non-finite entry"):
        series_of(stack)
    stack[7, 0, 0] = np.nan
    stack[7, 0, 1] += 0.5  # both faults in one epoch: non-finite is named
    with pytest.raises(NumericError, match="epoch 7 has a non-finite entry"):
        series_of(stack)


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
    sim = similarity_matrix(random_corr_series(7))
    a = classical_mds(sim, D=3).coordinates
    b = classical_mds(sim, D=3).coordinates
    assert a.tobytes() == b.tobytes()


def test_mds_clips_negative_eigenvalues_and_pads():
    # points on a circle with arc-length distances: classic non-Euclidean input
    n = 8
    ang = 2 * np.pi * np.arange(n) / n
    gap = np.abs(ang[:, None] - ang[None, :])
    geo = np.minimum(gap, 2 * np.pi - gap)
    emb = classical_mds(geo, D=7)  # tier-1 fails on any RuntimeWarning, so none fires
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
    sim = similarity_matrix(random_corr_series(8))
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
