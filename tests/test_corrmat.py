
import warnings

import numpy as np
import pytest

from conftest import correlation_of, packed_rows
from marketstates.corrmat import (
    EpochSpec,
    epoch_count,
    power_map,
    epoch_correlations,
)
from marketstates.errors import NumericError
from marketstates.ingest import ReturnPanel


def make_panel(returns, start=0):
    n, L = returns.shape
    return ReturnPanel(
        tickers=[f"S{i}" for i in range(n)],
        dates=[f"d{start + t:05d}" for t in range(L)],
        returns=returns,
    )


def oracle_pearson(X):
    """Scalar triple-loop Pearson, population moments."""
    n, T = X.shape
    C = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            xi, xj = X[i], X[j]
            num = (xi * xj).mean() - xi.mean() * xj.mean()
            den = xi.std() * xj.std()
            C[i, j] = num / den
    return C


def one_epoch(X):
    """epoch_correlations' matrix of the one epoch that spans all the columns of ``X``.

    It is looped_pearson's, bit for bit.
    """
    series = epoch_correlations(make_panel(X), EpochSpec(window=X.shape[1]))
    (C,) = series.values_stack(0, 1)
    assert C.tobytes() == looped_pearson(X)[0].tobytes()
    return C


def epoch_columns(index, spec):
    """The half-open return-column range of 1-based epoch ``index``."""
    start = (index - 1) * spec.shift
    return start, start + spec.window


def test_epoch_count_formula():
    assert epoch_count(3522, EpochSpec(20, 1)) == 3503
    assert epoch_count(3458, EpochSpec(20, 1)) == 3439
    assert epoch_count(124, EpochSpec(20, 1)) == 105
    assert epoch_count(20, EpochSpec(20, 1)) == 1
    assert epoch_count(39, EpochSpec(20, 10)) == 2
    with pytest.raises(NumericError):
        epoch_count(19, EpochSpec(20, 1))


def test_epoch_bounds_are_one_based_and_half_open():
    # epoch k spans return days (k - 1) * shift up to, not including, (k - 1) * shift + window
    panel = make_panel(np.random.default_rng(2).normal(size=(3, 45)))
    one = epoch_correlations(panel, EpochSpec(20, 1))
    assert (one.start_dates[:2], one.end_dates[:2]) == (["d00000", "d00001"],
                                                        ["d00019", "d00020"])
    ten = epoch_correlations(panel, EpochSpec(20, 10))
    assert (ten.start_dates[2], ten.end_dates[2]) == ("d00020", "d00039")


def test_spec_validation():
    with pytest.raises(ValueError):
        EpochSpec(window=1)
    with pytest.raises(ValueError):
        EpochSpec(shift=0)


def test_pearson_matches_scalar_oracle_and_numpy():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(6, 25))
    C = one_epoch(X)
    np.testing.assert_allclose(C, oracle_pearson(X), atol=1e-12)
    np.testing.assert_allclose(C, np.corrcoef(X), atol=1e-12)
    assert np.array_equal(C, C.T)
    assert np.all(np.diag(C) == 1.0)
    assert np.all(np.abs(C) <= 1.0)


def test_pearson_scale_and_shift_invariance():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(4, 30))
    Y = 3.5 * X + rng.normal(size=(4, 1))  # per-row affine change
    np.testing.assert_allclose(one_epoch(Y), one_epoch(X), atol=1e-12)


def test_pearson_perfect_correlation_hits_one():
    t = np.linspace(0.0, 1.0, 20)
    X = np.vstack([t, 2 * t + 1, -t])
    C = one_epoch(X)
    np.testing.assert_allclose(C[0, 1], 1.0, atol=1e-12)
    np.testing.assert_allclose(C[0, 2], -1.0, atol=1e-12)


def test_pearson_zero_variance_zeroes_row_with_warning():
    X = np.vstack([np.ones(10), np.arange(10.0), -np.arange(10.0)])
    with pytest.warns(RuntimeWarning, match="zero variance"):
        C = one_epoch(X)
    assert C[0, 0] == 1.0
    assert np.all(C[0, 1:] == 0.0) and np.all(C[1:, 0] == 0.0)
    np.testing.assert_allclose(C[1, 2], -1.0, atol=1e-12)
    # degenerate rows keep the matrix PSD
    assert np.linalg.eigvalsh(C).min() > -1e-8


def test_pearson_raw_matrices_are_psd():
    rng = np.random.default_rng(13)
    for n, T in [(5, 30), (40, 20), (100, 20)]:
        C = one_epoch(rng.normal(size=(n, T)))
        assert np.linalg.eigvalsh(C).min() > -1e-8


def test_epoch_correlations_epochs_and_dates():
    rng = np.random.default_rng(5)
    panel = make_panel(rng.normal(size=(4, 47)))
    spec = EpochSpec(window=20, shift=10)
    series = epoch_correlations(panel, spec)
    assert series.n_epochs == 3
    assert series.labels == panel.tickers
    for k, mat in enumerate(series.matrices):
        lo, hi = epoch_columns(k + 1, spec)
        assert mat.start_date == panel.dates[lo]
        assert mat.end_date == panel.dates[hi - 1]
        assert mat.values.tobytes() == looped_pearson(panel.returns[:, lo:hi])[0].tobytes()
    assert series.values_stack().shape == (3, 4, 4)


def test_epoch_correlations_flags_offending_epoch():
    returns = np.random.default_rng(6).normal(size=(3, 30))
    returns[1, 10:] = 0.25  # constant tail: later windows degenerate
    panel = make_panel(returns)
    with pytest.warns(RuntimeWarning) as record:
        series = epoch_correlations(panel, EpochSpec(window=10, shift=10))
    # epochs 2 and 3 both see the constant tail; each warns once, by index
    assert [str(w.message) for w in record] == [
        f"epoch {index}: zero variance in rows [1]; their correlations are set to 0"
        for index in (2, 3)]
    assert series.n_epochs == 3
    assert np.all(series.matrices[1].values[1, [0, 2]] == 0.0)
    assert series.matrices[1].values[1, 1] == 1.0
    # the clean first epoch is untouched
    assert np.all(np.abs(series.matrices[0].values) <= 1.0)


def looped_pearson(X):
    """The 2-D Pearson code before batching; returns the matrix and the zero-variance rows."""
    centered = X - X.mean(axis=1, keepdims=True)
    cov = centered @ centered.T / X.shape[1]
    var = np.diag(cov).copy()
    scale = (X * X).mean(axis=1)
    flat = var <= 1e-24 * np.maximum(scale, 1e-300)
    var[flat] = 1.0
    sd = np.sqrt(var)
    corr = cov / np.outer(sd, sd)
    corr[flat, :] = 0.0
    corr[:, flat] = 0.0
    corr = (corr + corr.T) / 2.0
    np.clip(corr, -1.0, 1.0, out=corr)
    np.fill_diagonal(corr, 1.0)
    return corr, flat


def looped_epoch_correlations(returns, spec):
    """The per-epoch loop before batching: one 2-D Pearson per epoch, then np.stack.

    Returns the stack and the warning each degenerate epoch gave.
    """
    matrices, messages = [], []
    for index in range(1, epoch_count(returns.shape[1], spec) + 1):
        lo, hi = epoch_columns(index, spec)
        corr, flat = looped_pearson(returns[:, lo:hi])
        if flat.any():
            messages.append(f"epoch {index}: zero variance in rows "
                            f"{np.flatnonzero(flat).tolist()}; their correlations are set to 0")
        matrices.append(corr)
    return np.stack(matrices), messages


def _batched_cases():
    rng = np.random.default_rng(21)
    wide = rng.normal(size=(9, 140))
    degenerate = rng.normal(size=(6, 70))
    degenerate[1, 30:] = 0.25  # constant from day 30: every later epoch
    degenerate[4, :25] = -1.0  # constant over the first epochs only
    degenerate[2, 40:52] = 3.0  # one 12-day flat stretch
    return {
        "shift_1": (rng.normal(size=(5, 60)), EpochSpec(20, 1)),
        "shift_4": (rng.normal(size=(7, 91)), EpochSpec(15, 4)),
        "single_epoch": (rng.normal(size=(8, 30)), EpochSpec(30, 1)),
        "one_stock": (rng.normal(size=(1, 40)), EpochSpec(10, 3)),
        # a column slice as the event windows cut it: neither row is contiguous
        "column_slice": (wide[:, 17:113], EpochSpec(20, 2)),
        # 60 stocks: 18 epochs per 512 KB chunk, so 61 epochs cross three boundaries
        "chunk_boundaries": (rng.normal(size=(60, 80)), EpochSpec(20, 1)),
        "zero_variance": (degenerate, EpochSpec(12, 3)),
    }


@pytest.mark.parametrize("case", sorted(_batched_cases()))
def test_batched_epoch_correlations_match_the_per_epoch_loop(case):
    returns, spec = _batched_cases()[case]
    want, messages = looped_epoch_correlations(returns, spec)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        series = epoch_correlations(make_panel(returns), spec)
    assert [str(w.message) for w in caught] == messages
    assert all(w.category is RuntimeWarning for w in caught)
    assert series.values_stack().tobytes() == want.tobytes()
    for index, m in enumerate(series.matrices, start=1):
        lo, hi = epoch_columns(index, spec)
        assert (m.start_date, m.end_date) == (f"d{lo:05d}", f"d{hi - 1:05d}")
        assert m.values.tobytes() == want[index - 1].tobytes()
    if case == "zero_variance":
        assert len(messages) > 3  # the case does exercise the warnings


def test_pearson_correlation_is_the_one_block_case():
    # an epoch that spans the whole panel is one block of the batched computation
    rng = np.random.default_rng(22)
    for X in (rng.normal(size=(5, 30)), rng.normal(size=(40, 20)), rng.normal(size=(1, 9))):
        assert one_epoch(X).tobytes() == looped_pearson(X)[0].tobytes()
    X = rng.normal(size=(4, 15))
    X[2] = 7.0
    with pytest.warns(RuntimeWarning) as record:
        C = one_epoch(X)
    assert [str(w.message) for w in record] == [
        "epoch 1: zero variance in rows [2]; their correlations are set to 0"]
    assert C.tobytes() == looped_pearson(X)[0].tobytes()


def test_epoch_correlations_holds_one_scratch_chunk_beyond_its_buffer(peak_bytes):
    for n_stocks, n_returns in ((60, 259), (30, 1019)):
        panel = make_panel(np.random.default_rng(23).normal(size=(n_stocks, n_returns)))
        packed_bytes = (n_returns - 19) * (n_stocks * (n_stocks + 1) // 2) * 8
        # the 512 KB chunk's dense buffer, one scratch chunk for sd_i sd_j and
        # then C + C^T, the window copy before it and numpy's ufunc buffers: a
        # second chunk-sized temporary would pass 2.5 chunks
        bound = packed_bytes + 5 * (1 << 18)
        assert peak_bytes(lambda: epoch_correlations(panel)) <= bound


def test_epoch_correlations_builds_its_stack_once(peak_bytes):
    for n_stocks, n_returns in ((60, 259), (30, 1019)):
        panel = make_panel(np.random.default_rng(23).normal(size=(n_stocks, n_returns)))
        n_epochs = n_returns - 19
        packed_bytes = n_epochs * (n_stocks * (n_stocks + 1) // 2) * 8
        stack_bytes = n_epochs * n_stocks * n_stocks * 8
        # the packed rows plus one 512 KB chunk's Pearson buffer and temporaries;
        # an (epochs, N, N) array of every epoch would not fit
        bound = packed_bytes + 4 * (1 << 19)
        assert bound < stack_bytes
        assert peak_bytes(lambda: epoch_correlations(panel)) <= bound


def test_series_holds_one_read_only_stack_its_records_view():
    from marketstates.corrmat import _unpack_epochs

    panel = make_panel(np.random.default_rng(24).normal(size=(6, 50)))
    series = epoch_correlations(panel, EpochSpec(10, 3))
    packed = packed_rows(series)  # a read-only view of the one stack, new on each read
    assert np.shares_memory(packed, packed_rows(series)) and not packed.flags.writeable
    assert packed.shape == (series.n_epochs, 6 * 7 // 2)
    stack = series.values_stack()  # a dense copy, new on each call
    assert stack.shape == (series.n_epochs, 6, 6) and stack.flags.writeable
    assert not np.shares_memory(stack, packed) and stack is not series.values_stack()
    assert stack.tobytes() == _unpack_epochs(packed, 6).tobytes()
    for e, m in enumerate(series.matrices):
        assert m.values.tobytes() == stack[e].tobytes()  # unpacked on access
    series.matrices[0].values[0, 1] = 0.5  # a copy: the series is unchanged
    assert series.values_stack().tobytes() == stack.tobytes()
    with pytest.raises(ValueError, match="read-only"):
        packed_rows(series)[0, 0] = 0.5


def test_series_copies_a_range_of_epochs_and_averages_members_in_epoch_order():
    series = epoch_correlations(make_panel(np.random.default_rng(25).normal(size=(7, 60))),
                                EpochSpec(10, 2))
    stack = series.values_stack()
    assert series.values_stack(3, 9).tobytes() == stack[3:9].tobytes()
    # one pass sums every label's rows in epoch order: a lone member keeps its bits
    labels = np.full(series.n_epochs, 1)
    labels[[1, 4, 5, 11, 20]] = 2
    labels[6] = 3
    means = series.label_means(labels, 3)
    for c, mean in enumerate(means, start=1):
        assert mean.tobytes() == stack[labels == c].mean(axis=0).tobytes()
    assert means[2].tobytes() == stack[6].tobytes()
    for bad in (labels[:-1], np.where(labels == 3, 4, labels), np.where(labels == 3, 0, labels)):
        with pytest.raises(ValueError, match="must use each of 1..3"):
            series.label_means(bad, 3)


def test_series_holds_its_stack_itself_and_leaves_it_writeable():
    from marketstates.corrmat import EpochCorrelationSeries

    stack = np.stack([np.eye(2), np.full((2, 2), 0.5)])
    series = EpochCorrelationSeries(("a", "b"), stack, ["d0", "d1"], ["e0", "e1"])
    assert series.labels == ["a", "b"] and (series.n_epochs, series.n_labels) == (2, 2)
    # a dense stack is packed: triangle, then diagonal
    assert packed_rows(series).tolist() == [[0.0, 1.0, 1.0], [0.5, 0.5, 0.5]]
    assert series.values_stack().tobytes() == stack.tobytes()
    assert [(m.start_date, m.end_date) for m in series.matrices] == [("d0", "e0"), ("d1", "e1")]
    # packed rows are held as they are, and the caller's array stays writeable
    rows = series.values_stack()[:, [0, 0, 1], [1, 0, 1]]
    again = EpochCorrelationSeries(("a", "b"), rows, ["d0", "d1"], ["e0", "e1"])
    assert np.shares_memory(packed_rows(again), rows) and rows.flags.writeable
    assert again.values_stack().tobytes() == stack.tobytes()


def test_series_and_its_rows_are_freed_with_the_last_reference():
    import gc
    import weakref

    panel = make_panel(np.random.default_rng(26).normal(size=(8, 60)))
    gc.collect()
    gc.disable()  # only reference counting frees what a cycle does not hold
    try:
        series = epoch_correlations(panel)
        rows = packed_rows(series).base  # rows in memory are read as a view of them
        refs = [weakref.ref(series), weakref.ref(rows), weakref.ref(series.matrices[0])]
        matrix = series.matrices[0].values  # an unpacked copy holds nothing of the series
        del series, rows
        assert [ref() for ref in refs] == [None, None, None]
        assert matrix.shape == (8, 8)
    finally:
        gc.enable()


@pytest.mark.parametrize("shape", [(2, 3, 3), (2, 2, 3), (4, 4), (2, 2, 2, 2)])
def test_series_rejects_a_stack_that_does_not_match_its_labels(shape):
    from marketstates.corrmat import EpochCorrelationSeries

    with pytest.raises(ValueError, match=r"(epoch stack|packed epochs) of shape .* for 2 labels"):
        EpochCorrelationSeries(["a", "b"], np.zeros(shape), ["d0", "d1"], ["d0", "d1"])
    with pytest.raises(ValueError):  # one date per epoch
        EpochCorrelationSeries(["a", "b"], np.zeros((2, 2, 2)), ["d0"], ["d0"])


def test_window_too_long_names_both_lengths():
    panel = make_panel(np.random.default_rng(6).normal(size=(3, 15)))
    with pytest.raises(NumericError, match="20.*15"):
        epoch_correlations(panel, EpochSpec(window=20, shift=1))


def test_power_map_zero_epsilon_is_bit_exact_copy():
    rng = np.random.default_rng(8)
    C = correlation_of(rng.normal(size=(5, 12)))
    out = power_map(C, 0.0)
    assert np.array_equal(out, C)
    assert out.tobytes() == C.tobytes()
    assert out is not C  # a copy, not the same buffer


def test_power_map_values_signs_and_diagonal():
    rng = np.random.default_rng(9)
    C = correlation_of(rng.normal(size=(6, 15)))
    eps = 0.6
    M = power_map(C, eps)
    np.testing.assert_allclose(M, np.sign(C) * np.abs(C) ** (1 + eps), atol=0)
    assert np.all(np.sign(M) == np.sign(C))
    assert np.all(np.abs(M) <= np.abs(C) + 1e-15)  # shrinks when |x| <= 1
    assert np.all(np.abs(M) <= 1.0)
    assert np.all(np.diag(M) == 1.0)
    assert M[0, 1] == np.sign(C[0, 1]) * abs(C[0, 1]) ** (1 + eps)
    # half-entry sanity: 0.5 -> 0.25 and -0.5 -> -0.25 at eps = 1
    np.testing.assert_allclose(power_map(np.array([0.5, -0.5]), 1.0), [0.25, -0.25])
    # mapping with eps 0 first changes nothing
    np.testing.assert_allclose(power_map(power_map(C, 0.0), eps), M, atol=0)
    # odd symmetry
    x = np.linspace(-1, 1, 101)
    np.testing.assert_allclose(power_map(x, eps), -power_map(-x, eps), atol=0)


def test_power_map_is_bit_identical_to_the_textbook_form():
    rng = np.random.default_rng(11)
    x = np.tanh(rng.normal(size=(4, 9, 9)))
    x[0, :2, :2] = 0.0
    x[1, :2, :2] = -0.0
    x[2, 0, :2] = (1.0, -1.0)
    for eps in (0.1, 0.3, 0.6, 0.7, 0.9, 1.0, 2.5):
        want = np.sign(x) * np.abs(x) ** (1.0 + eps)
        assert power_map(x, eps).tobytes() == want.tobytes(), eps
    # -0.0 maps to +0.0, as np.sign gives it
    assert not np.signbit(power_map(x, 0.5)[1, :2, :2]).any()
    np.testing.assert_array_equal(power_map(np.array([2, -1, 0]), 1.0), [4.0, -1.0, 0.0])


def test_power_map_peak_is_one_output_and_one_temporary(peak_bytes):
    x = np.tanh(np.random.default_rng(12).normal(size=(12, 60, 60)))
    assert peak_bytes(lambda: power_map(x, 0.3)) <= 2.05 * x.nbytes


def test_power_map_takes_arrays_only():
    series = epoch_correlations(make_panel(np.random.default_rng(10).normal(size=(5, 40))))
    with pytest.raises(TypeError, match="EpochCorrelationSeries"):
        power_map(series, 0.5)
    with pytest.raises(TypeError):
        power_map("nope", 0.5)
    with pytest.raises(ValueError, match="epsilon"):
        power_map(series.values_stack(), -0.1)


@pytest.mark.parametrize("epsilon", [np.nan, np.inf])
def test_power_map_rejects_a_non_finite_epsilon(epsilon):
    # nan < 0 is false: a sign test alone passes nan on to a map of NaNs
    C = correlation_of(np.random.default_rng(13).normal(size=(4, 10)))
    with pytest.raises(ValueError, match=f"epsilon must be finite, got {epsilon}"):
        power_map(C, epsilon)


def test_power_map_lifts_rank_degeneracy():
    # 100 stocks on a 20-day window: at least 81 zero eigenvalues before the
    # map, strictly fewer after even a tiny epsilon.
    rng = np.random.default_rng(12)
    C = correlation_of(rng.normal(size=(100, 20)))
    before = np.linalg.eigvalsh(C)
    n_zero_before = int(np.sum(np.abs(before) < 1e-10))
    assert n_zero_before >= 81

    after = np.linalg.eigvalsh(power_map(C, 0.001))
    n_zero_after = int(np.sum(np.abs(after) < 1e-10))
    assert n_zero_after < n_zero_before


# --------------------------------------------------------------------------
# the packed layout of corr_raw.npz


def _packing_cases():
    rng = np.random.default_rng(31)
    zero_variance = rng.normal(size=(5, 60))
    zero_variance[3, 10:40] = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return {
            # 100 stocks: 6 epochs per 512 KB chunk, so 20 epochs end in a partial chunk
            "partial_chunk": epoch_correlations(
                make_panel(rng.normal(size=(100, 39))), EpochSpec(20, 1)).values_stack(),
            "one_chunk": epoch_correlations(
                make_panel(rng.normal(size=(8, 60)))).values_stack(),
            "zero_variance": epoch_correlations(make_panel(zero_variance)).values_stack(),
            "one_label": np.ones((5, 1, 1)),
            "signed_zeros": np.stack([np.array([[1.0, -0.0], [-0.0, 1.0]]), np.eye(2)]),
        }


@pytest.mark.parametrize("case", sorted(_packing_cases()))
def test_packed_layout_round_trips_bit_for_bit(case):
    from marketstates.corrmat import EpochCorrelationSeries, _pack_epochs, _unpack_epochs

    stack = _packing_cases()[case]
    n_epochs, N, _ = stack.shape
    packed = _pack_epochs(stack)
    assert packed.shape == (n_epochs, N * (N + 1) // 2)
    upper = np.triu_indices(N, 1)
    for e, epoch in enumerate(stack):  # strict upper triangle, then the diagonal
        assert packed[e].tobytes() == np.concatenate([epoch[upper], np.diag(epoch)]).tobytes()
    # a series packs the stack it is given the same way
    series = EpochCorrelationSeries([f"s{i}" for i in range(N)], stack, [""] * n_epochs,
                                    [""] * n_epochs)
    assert packed_rows(series).tobytes() == packed.tobytes()
    assert _unpack_epochs(packed, N).tobytes() == stack.tobytes()


def test_archive_packing_rejects_an_asymmetric_epoch_by_its_index():
    from marketstates.corrmat import EpochCorrelationSeries, _pack_epochs

    stack = epoch_correlations(make_panel(np.random.default_rng(32).normal(size=(100, 39))),
                               EpochSpec(20, 1)).values_stack().copy()
    stack[16, 5, 2] = np.nextafter(stack[16, 5, 2], 2.0)  # below the diagonal only
    # the error names the epoch by its 1-based number
    with pytest.raises(NumericError, match="^epoch 17 is not exactly symmetric$"):
        _pack_epochs(stack)
    # a series cannot hold it: the stack is packed as the series is built
    with pytest.raises(NumericError, match="^epoch 17 is not exactly symmetric$"):
        EpochCorrelationSeries([f"s{i}" for i in range(100)], stack, [""] * 20, [""] * 20)


def test_unpacking_rejects_a_width_that_does_not_match_the_labels():
    from marketstates.corrmat import _unpack_epochs

    for packed, N in ((np.zeros((3, 6)), 2), (np.zeros((3, 6)), 4), (np.zeros(6), 3),
                      (np.zeros((3, 0)), 0)):
        with pytest.raises(ValueError, match="packed epochs of shape"):
            _unpack_epochs(packed, N)


# --------------------------------------------------------------------------
# the streaming writer of corr_raw.npz


def _streaming_cases():
    rng = np.random.default_rng(33)
    degenerate = rng.normal(size=(60, 90))
    degenerate[41, :21] = -1.0  # flat over epochs 1 and 2, in the first chunk
    degenerate[7, 30:62] = 0.5  # flat over epochs 31 to 43, across the second and third
    return {
        # 60 stocks: 18 epochs per 512 KB chunk, so 61 epochs make four chunks
        "several_chunks": (rng.normal(size=(60, 80)), EpochSpec(20, 1)),
        "shift_3": (rng.normal(size=(60, 200)), EpochSpec(20, 3)),
        "zero_variance": (degenerate, EpochSpec(20, 1)),
        "one_epoch": (rng.normal(size=(4, 12)), EpochSpec(12, 1)),
    }


@pytest.mark.parametrize("case", sorted(_streaming_cases()))
def test_streamed_archive_is_the_saved_series_byte_for_byte(tmp_path, case):
    from marketstates.corrmat import save_epoch_correlations, save_series

    returns, spec = _streaming_cases()[case]
    panel = make_panel(returns)
    with warnings.catch_warnings(record=True) as saved:
        warnings.simplefilter("always")
        save_series(epoch_correlations(panel, spec), tmp_path / "whole.npz")
    with warnings.catch_warnings(record=True) as streamed:
        warnings.simplefilter("always")
        save_epoch_correlations(panel, spec, tmp_path / "streamed.npz")
    assert (tmp_path / "streamed.npz").read_bytes() == (tmp_path / "whole.npz").read_bytes()
    assert sorted(path.name for path in tmp_path.iterdir()) == ["streamed.npz", "whole.npz"]
    # the same warnings in the same order, by global 1-based epoch, each at the caller's line
    messages = looped_epoch_correlations(returns, spec)[1]
    assert [str(w.message) for w in streamed] == [str(w.message) for w in saved] == messages
    assert {(w.category, w.filename) for w in streamed + saved} <= {(RuntimeWarning, __file__)}
    if case == "zero_variance":
        assert [m.split(":")[0] for m in messages] == [
            f"epoch {e}" for e in (1, 2, *range(31, 44))]


def test_streamed_archive_takes_the_zip64_branch_with_the_same_bytes(tmp_path, monkeypatch):
    import struct
    import zipfile

    from marketstates.corrmat import load_series, save_epoch_correlations, save_series

    returns, spec = _streaming_cases()["several_chunks"]
    panel = make_panel(returns)
    # the 0.89 MB packed member passes a 256 KB limit, the labels and dates do not
    monkeypatch.setattr(zipfile, "ZIP64_LIMIT", 1 << 18)
    series = epoch_correlations(panel, spec)
    save_series(series, tmp_path / "whole.npz")
    save_epoch_correlations(panel, spec, tmp_path / "streamed.npz")
    raw = (tmp_path / "streamed.npz").read_bytes()
    assert raw == (tmp_path / "whole.npz").read_bytes()
    with zipfile.ZipFile(tmp_path / "streamed.npz") as zf:
        offsets = {info.filename: info.header_offset for info in zf.infolist()}
    extras = {}
    for name, offset in offsets.items():  # each member's local header and its extra field
        name_len, extra_len = struct.unpack("<HH", raw[offset + 26:offset + 30])
        extras[name] = raw[offset + 30 + name_len:offset + 30 + name_len + extra_len]
    assert extras.pop("packed.npy")[:2] == b"\x01\x00"  # the zip64 extra field's tag
    assert set(extras.values()) == {b""}
    back = load_series(tmp_path / "streamed.npz")
    assert packed_rows(back).tobytes() == packed_rows(series).tobytes()


def test_streaming_writer_keeps_the_earlier_archive_when_an_epoch_is_not_finite(tmp_path):
    from marketstates.corrmat import save_epoch_correlations

    returns, spec = _streaming_cases()["several_chunks"]
    path = tmp_path / "corr_raw.npz"
    save_epoch_correlations(make_panel(returns), spec, path)
    before = path.read_bytes()
    returns = returns.copy()
    # in the epochs from index 31 on: the first is in the second chunk, which the
    # error names by its 1-based number, as the zero-variance warnings do
    returns[5, 50] = np.nan
    with pytest.raises(NumericError, match="^epoch 32 has a non-finite entry$"):
        save_epoch_correlations(make_panel(returns), spec, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["corr_raw.npz"]
