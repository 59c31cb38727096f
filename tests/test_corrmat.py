
import numpy as np
import pytest

from marketstates.corrmat import (
    EpochSpec,
    epoch_bounds,
    epoch_count,
    pearson_correlation,
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


def test_epoch_count_formula():
    assert epoch_count(3522, EpochSpec(20, 1)) == 3503
    assert epoch_count(3458, EpochSpec(20, 1)) == 3439
    assert epoch_count(124, EpochSpec(20, 1)) == 105
    assert epoch_count(20, EpochSpec(20, 1)) == 1
    assert epoch_count(39, EpochSpec(20, 10)) == 2
    with pytest.raises(NumericError):
        epoch_count(19, EpochSpec(20, 1))


def test_epoch_bounds_are_one_based_and_half_open():
    assert epoch_bounds(1, EpochSpec(20, 1)) == (0, 20)
    assert epoch_bounds(2, EpochSpec(20, 1)) == (1, 21)
    assert epoch_bounds(3, EpochSpec(20, 10)) == (20, 40)
    with pytest.raises(ValueError):
        epoch_bounds(0, EpochSpec(20, 1))


def test_spec_validation():
    with pytest.raises(ValueError):
        EpochSpec(window=1)
    with pytest.raises(ValueError):
        EpochSpec(shift=0)


def test_pearson_matches_scalar_oracle_and_numpy():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(6, 25))
    C = pearson_correlation(X)
    np.testing.assert_allclose(C, oracle_pearson(X), atol=1e-12)
    np.testing.assert_allclose(C, np.corrcoef(X), atol=1e-12)
    assert np.array_equal(C, C.T)
    assert np.all(np.diag(C) == 1.0)
    assert np.all(np.abs(C) <= 1.0)


def test_pearson_scale_and_shift_invariance():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(4, 30))
    Y = 3.5 * X + rng.normal(size=(4, 1))  # per-row affine change
    np.testing.assert_allclose(pearson_correlation(Y), pearson_correlation(X), atol=1e-12)


def test_pearson_perfect_correlation_hits_one():
    t = np.linspace(0.0, 1.0, 20)
    X = np.vstack([t, 2 * t + 1, -t])
    C = pearson_correlation(X)
    np.testing.assert_allclose(C[0, 1], 1.0, atol=1e-12)
    np.testing.assert_allclose(C[0, 2], -1.0, atol=1e-12)


def test_pearson_zero_variance_zeroes_row_with_warning():
    X = np.vstack([np.ones(10), np.arange(10.0), -np.arange(10.0)])
    with pytest.warns(RuntimeWarning, match="zero variance"):
        C = pearson_correlation(X)
    assert C[0, 0] == 1.0
    assert np.all(C[0, 1:] == 0.0) and np.all(C[1:, 0] == 0.0)
    np.testing.assert_allclose(C[1, 2], -1.0, atol=1e-12)
    # degenerate rows keep the matrix PSD
    assert np.linalg.eigvalsh(C).min() > -1e-8


def test_pearson_raw_matrices_are_psd():
    rng = np.random.default_rng(13)
    for n, T in [(5, 30), (40, 20), (100, 20)]:
        C = pearson_correlation(rng.normal(size=(n, T)))
        assert np.linalg.eigvalsh(C).min() > -1e-8


def test_epoch_correlations_epochs_and_dates():
    rng = np.random.default_rng(5)
    panel = make_panel(rng.normal(size=(4, 47)))
    spec = EpochSpec(window=20, shift=10)
    series = epoch_correlations(panel, spec)
    assert series.n_epochs == 3
    assert series.labels == panel.tickers
    for k, mat in enumerate(series.matrices):
        lo, hi = epoch_bounds(k + 1, spec)
        assert mat.start_date == panel.dates[lo]
        assert mat.end_date == panel.dates[hi - 1]
        np.testing.assert_allclose(
            mat.values, pearson_correlation(panel.returns[:, lo:hi]), atol=0
        )
    assert series.values_stack().shape == (3, 4, 4)


def test_epoch_correlations_flags_offending_epoch():
    returns = np.random.default_rng(6).normal(size=(3, 30))
    returns[1, 10:] = 0.25  # constant tail: later windows degenerate
    panel = make_panel(returns)
    with pytest.warns(RuntimeWarning, match="epoch 2"):
        series = epoch_correlations(panel, EpochSpec(window=10, shift=10))
    assert series.n_epochs == 3
    assert np.all(series.matrices[1].values[1, [0, 2]] == 0.0)
    assert series.matrices[1].values[1, 1] == 1.0
    # the clean first epoch is untouched
    assert np.all(np.abs(series.matrices[0].values) <= 1.0)


def test_window_too_long_names_both_lengths():
    panel = make_panel(np.random.default_rng(6).normal(size=(3, 15)))
    with pytest.raises(NumericError, match="20.*15"):
        epoch_correlations(panel, EpochSpec(window=20, shift=1))


def test_power_map_zero_epsilon_is_bit_exact_copy():
    rng = np.random.default_rng(8)
    C = pearson_correlation(rng.normal(size=(5, 12)))
    out = power_map(C, 0.0)
    assert np.array_equal(out, C)
    assert out.tobytes() == C.tobytes()
    assert out is not C  # a copy, not the same buffer


def test_power_map_values_signs_and_diagonal():
    rng = np.random.default_rng(9)
    C = pearson_correlation(rng.normal(size=(6, 15)))
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


def test_power_map_on_series_preserves_structure():
    rng = np.random.default_rng(10)
    panel = make_panel(rng.normal(size=(5, 40)))
    series = epoch_correlations(panel)
    mapped = power_map(series, 0.5)
    assert mapped.epsilon == 0.5
    assert mapped.n_epochs == series.n_epochs
    assert mapped.labels == series.labels
    assert [(m.start_date, m.end_date) for m in mapped.matrices] == [
        (m.start_date, m.end_date) for m in series.matrices]
    # original untouched
    assert series.epsilon == 0.0
    np.testing.assert_allclose(
        mapped.matrices[3].values,
        power_map(series.matrices[3].values, 0.5),
        atol=0,
    )
    with pytest.raises(ValueError):
        power_map(series, -0.1)
    with pytest.raises(TypeError):
        power_map("nope", 0.5)


def test_power_map_lifts_rank_degeneracy():
    # 100 stocks on a 20-day window: at least 81 zero eigenvalues before the
    # map, strictly fewer after even a tiny epsilon.
    rng = np.random.default_rng(12)
    C = pearson_correlation(rng.normal(size=(100, 20)))
    before = np.linalg.eigvalsh(C)
    n_zero_before = int(np.sum(np.abs(before) < 1e-10))
    assert n_zero_before >= 81

    after = np.linalg.eigvalsh(power_map(C, 0.001))
    n_zero_after = int(np.sum(np.abs(after) < 1e-10))
    assert n_zero_after < n_zero_before
