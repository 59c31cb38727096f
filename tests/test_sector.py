"""Sector averaging, sector-level states, and displacement."""

import warnings

import numpy as np
import pytest

from marketstates import corrmat, sector, states
from marketstates.corrmat import (
    CorrelationMatrix,
    EpochCorrelationSeries,
    EpochSpec,
    epoch_correlations,
    pearson_correlation,
    power_map,
)
from marketstates.errors import DataError
from marketstates.geometry import embed_epochs
from marketstates.ingest import ReturnPanel
from marketstates.sector import (
    SECTOR_PRESETS,
    displacement,
    sector_series,
    sector_state_pipeline,
)
from marketstates.states import fit_series


def random_correlation(n, seed):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, 5 * n))
    return pearson_correlation(X)


def series_of(matrices, tickers):
    """A stock-level series holding the given matrices, one epoch each."""
    return EpochCorrelationSeries(
        list(tickers),
        [CorrelationMatrix(np.asarray(C, dtype=float), f"d{i}", f"d{i}")
         for i, C in enumerate(matrices)],
    )


def sector_matrix(C, tickers, sector_of, **kwargs):
    """The sector-averaged matrix of a one-epoch series holding C."""
    return sector_series(series_of([C], tickers), sector_of, **kwargs).matrices[0].values


def loop_average(C, tickers, sector_of, sectors, include_self_pairs=False):
    out = np.empty((len(sectors), len(sectors)))
    for a, sa in enumerate(sectors):
        for b, sb in enumerate(sectors):
            total, count = 0.0, 0
            for i, ti in enumerate(tickers):
                for j, tj in enumerate(tickers):
                    if sector_of[ti] != sa or sector_of[tj] != sb:
                        continue
                    if a == b and i == j and not include_self_pairs:
                        continue
                    total += C[i, j]
                    count += 1
            out[a, b] = total / count
    return out


def test_sector_average_matches_loop_oracle():
    tickers = ["A1", "A2", "A3", "B1", "B2", "B3"]
    sector_of = {"A1": "fin", "A2": "fin", "A3": "fin",
                 "B1": "tech", "B2": "tech", "B3": "tech"}
    C = random_correlation(6, seed=0)
    for flag in (False, True):
        got = sector_series(series_of([C], tickers), sector_of, include_self_pairs=flag)
        assert got.labels == ["fin", "tech"]
        values = got.matrices[0].values
        want = loop_average(C, tickers, sector_of, got.labels, include_self_pairs=flag)
        np.testing.assert_allclose(values, want, atol=1e-14)
        np.testing.assert_allclose(values, values.T, atol=0)


def test_constant_offdiagonal_matrix_averages_to_constant():
    c = 0.37
    C = np.full((7, 7), c)
    np.fill_diagonal(C, 1.0)
    tickers = [f"t{i}" for i in range(7)]
    sector_of = {t: ("x" if i < 3 else "y") for i, t in enumerate(tickers)}
    got = sector_matrix(C, tickers, sector_of)
    np.testing.assert_allclose(got, np.full((2, 2), c), atol=1e-15)


def test_sector_diagonal_is_informative_not_unit():
    C = random_correlation(8, seed=1)
    tickers = [f"t{i}" for i in range(8)]
    sector_of = {t: ("x" if i < 4 else "y") for i, t in enumerate(tickers)}
    got = sector_matrix(C, tickers, sector_of)
    assert abs(got[0, 0] - 1.0) > 1e-3
    assert abs(got[1, 1] - 1.0) > 1e-3


def test_singleton_sector_falls_back_to_one_with_warning():
    C = np.array([[1.0, 0.3], [0.3, 1.0]])
    with pytest.warns(RuntimeWarning, match="singleton sector"):
        got = sector_matrix(C, ["a", "b"], {"a": "s1", "b": "s2"})
    np.testing.assert_allclose(got, [[1.0, 0.3], [0.3, 1.0]], atol=0)
    # with self-pairs the diagonal is the lone C_ii and no warning fires
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        kept = sector_matrix(C, ["a", "b"], {"a": "s1", "b": "s2"},
                             include_self_pairs=True)
    np.testing.assert_allclose(kept, [[1.0, 0.3], [0.3, 1.0]], atol=0)


def test_unmapped_ticker_raises():
    C = np.eye(3)
    with pytest.raises(DataError, match="t2"):
        sector_matrix(C, ["t0", "t1", "t2"], {"t0": "x", "t1": "x"})


def test_shape_validation():
    with pytest.raises(ValueError, match=r"shape \(2, 3\)"):
        sector_matrix(np.zeros((2, 3)), ["a", "b"], {"a": "x", "b": "x"})
    with pytest.raises(ValueError, match="for 2 labels"):
        sector_matrix(np.eye(3), ["a", "b"], {"a": "x", "b": "x"})


def test_permutation_within_sectors_is_invariant():
    tickers = ["A1", "A2", "A3", "B1", "B2"]
    sector_of = {"A1": "f", "A2": "f", "A3": "f", "B1": "g", "B2": "g"}
    C = random_correlation(5, seed=2)
    base = sector_series(series_of([C], tickers), sector_of)
    # swap A1<->A3 and B1<->B2: rows/cols move with their tickers
    perm = [2, 1, 0, 4, 3]
    shuffled = [tickers[p] for p in perm]
    got = sector_series(series_of([C[np.ix_(perm, perm)]], shuffled), sector_of)
    np.testing.assert_allclose(got.matrices[0].values, base.matrices[0].values, atol=1e-15)
    assert got.labels == base.labels


def test_iid_stocks_give_statistically_flat_blocks():
    # exchangeable stocks: every block mean must sit within 3 sigma of zero
    rng = np.random.default_rng(7)
    tickers = [f"t{i}" for i in range(12)]
    sector_of = {t: "abc"[min(i // 4, 2)] for i, t in enumerate(tickers)}
    draws = [pearson_correlation(rng.standard_normal((12, 40))) for _ in range(300)]
    reps = sector_series(series_of(draws, tickers), sector_of).values_stack()
    means = reps.mean(axis=0)
    errors = reps.std(axis=0) / np.sqrt(reps.shape[0])
    assert (np.abs(means) <= 3.0 * errors).all()


def small_panel_series():
    rng = np.random.default_rng(3)
    panel = ReturnPanel(
        tickers=["a", "b", "c", "d"],
        dates=[f"d{i:03d}" for i in range(30)],
        returns=rng.standard_normal((4, 30)),
    )
    mapping = {"a": "x", "b": "x", "c": "y", "d": "y"}
    return panel, mapping, epoch_correlations(panel, EpochSpec(window=10, shift=4))


def test_sector_series_matches_per_epoch_averages():
    panel, mapping, raw = small_panel_series()
    series = sector_series(raw, mapping)
    assert isinstance(series, EpochCorrelationSeries)
    assert series.labels == ["x", "y"]
    assert series.n_epochs == raw.n_epochs
    assert series.epsilon == 0.0
    for got, src in zip(series.matrices, raw.matrices):
        want = loop_average(src.values, panel.tickers, mapping, series.labels)
        np.testing.assert_allclose(got.values, want, atol=1e-14)
        assert got.start_date == src.start_date
        assert got.end_date == src.end_date
    # the averages live in one read-only (epochs, sectors, sectors) array
    stack = series.values_stack()
    assert stack is series.values_stack() and not stack.flags.writeable
    assert all(np.shares_memory(m.values, stack) for m in series.matrices)
    membership = sector._sector_layout(raw.labels, mapping)[1]
    want = np.stack([sector._block_average(m.values, membership, False) for m in raw.matrices])
    assert stack.tobytes() == want.tobytes()


def test_power_mapped_sector_series_goes_through_the_chain():
    _, mapping, raw = small_panel_series()
    sectors = sector_series(raw, mapping)
    mapped = power_map(sectors, 0.3)
    assert isinstance(mapped, EpochCorrelationSeries)
    assert mapped.labels == ["x", "y"]
    assert mapped.epsilon == 0.3
    assert [(m.start_date, m.end_date) for m in mapped.matrices] == [
        (m.start_date, m.end_date) for m in raw.matrices]
    np.testing.assert_array_equal(mapped.values_stack(),
                                  power_map(sectors.values_stack(), 0.3))
    model, _, embedding = fit_series(sectors, 2, 0.3, n_inits=4, seed=0)
    assert model.labels == ["x", "y"]
    assert model.epoch_dates == [m.start_date for m in raw.matrices]
    # the fit clusters the map of exactly those power-mapped matrices
    want = embed_epochs(mapped.values_stack(), 0.0, 3).coordinates
    np.testing.assert_array_equal(embedding.coordinates, want)


def test_sector_pipeline_reuses_the_stock_level_machinery():
    assert sector.fit_series is states.fit_series
    assert sector.epoch_correlations is corrmat.epoch_correlations


def regime_panel(seed=11):
    """Two-regime factor panel: 12 stocks, 3 sectors, correlation 0.1 then 0.75."""
    rng = np.random.default_rng(seed)
    n, half = 12, 120
    cols = []
    for rho in (0.1, 0.75):
        f = rng.standard_normal(half)
        e = rng.standard_normal((n, half))
        cols.append(np.sqrt(rho) * f + np.sqrt(1.0 - rho) * e)
    returns = np.concatenate(cols, axis=1)
    tickers = [f"t{i:02d}" for i in range(n)]
    mapping = {t: "ABC"[i % 3] for i, t in enumerate(tickers)}
    dates = [f"d{i:04d}" for i in range(returns.shape[1])]
    return ReturnPanel(tickers=tickers, dates=dates, returns=returns, sector_of=mapping)


def test_pipeline_recovers_planted_regimes():
    panel = regime_panel()
    spec = EpochSpec(window=20, shift=5)
    model, run, embedding = sector_state_pipeline(
        panel, spec, k=2, epsilon=0.5, n_inits=20, seed=5
    )
    n_epochs = (panel.n_returns - spec.window) // spec.shift + 1
    assert model.k == 2
    assert len(model.state_of) == n_epochs
    assert model.labels == ["A", "B", "C"]
    assert embedding.coordinates.shape == (n_epochs, 3)
    # epochs fully inside one regime must agree, and the calm regime is S1
    calm = model.state_of[:21]
    crisis = model.state_of[24:]
    assert (calm == calm[0]).all()
    assert (crisis == crisis[0]).all()
    assert calm[0] == 1 and crisis[0] == 2
    assert model.state_mean_corr[0] < model.state_mean_corr[1]
    assert abs(model.state_mean_corr[0] - 0.1) < 0.1
    assert abs(model.state_mean_corr[1] - 0.75) < 0.1
    assert model.transition_counts.sum() == n_epochs - 1
    for avg in model.avg_corr_matrix:
        assert avg.shape == (3, 3)
        np.testing.assert_allclose(avg, avg.T, atol=1e-15)


def test_single_sector_reduces_to_scalar_mean_correlation():
    panel = regime_panel(seed=4)
    mapping = {t: "all" for t in panel.tickers}
    spec = EpochSpec(window=20, shift=10)
    raw = epoch_correlations(panel, spec)
    series = sector_series(raw, mapping)
    assert series.labels == ["all"]
    stack = series.values_stack()
    assert stack.shape == (raw.n_epochs, 1, 1)
    n = panel.n_stocks
    for got, src in zip(stack[:, 0, 0], raw.matrices):
        off_mean = (src.values.sum() - n) / (n * (n - 1))
        assert abs(got - off_mean) < 1e-12
    model, _, _ = sector_state_pipeline(panel, spec, k=2, epsilon=0.0,
                                        n_inits=10, seed=9, sector_of=mapping)
    # scalar trajectory splits at the regime switch exactly like the values do
    threshold = (model.state_mean_corr[0] + model.state_mean_corr[1]) / 2.0
    want = np.where(stack[:, 0, 0] > threshold, 2, 1)
    np.testing.assert_array_equal(model.state_of, want)


def test_pipeline_requires_a_sector_map():
    panel = regime_panel(seed=2)
    panel.sector_of = None
    with pytest.raises(DataError, match="sector map"):
        sector_state_pipeline(panel, EpochSpec(window=20, shift=10),
                              k=2, epsilon=0.0, n_inits=5, seed=0)


def test_displacement_identical_sequences():
    labels = np.array([1, 2, 2, 3, 1, 2])
    report = displacement(labels, labels)
    assert report.histogram == {0: 6}
    assert report.max_abs_displacement == 0
    assert report.n_epochs == 6


def test_displacement_hand_counted():
    stock = [1, 2, 3, 2, 1]
    sect = [2, 2, 1, 3, 1]
    report = displacement(stock, sect)
    assert report.histogram == {-2: 1, -1: 0, 0: 2, 1: 2, 2: 0}
    assert report.max_abs_displacement == 2
    assert report.n_epochs == 5
    assert list(report.histogram) == [-2, -1, 0, 1, 2]


def test_displacement_validation():
    with pytest.raises(ValueError, match="mismatch"):
        displacement([1, 2], [1, 2, 3])
    with pytest.raises(ValueError, match="empty"):
        displacement([], [])
    with pytest.raises(ValueError, match="1-D"):
        displacement([[1, 2]], [[1, 2]])


def test_preset_table():
    assert SECTOR_PRESETS["sp500"] == (5, 0.2)
    assert SECTOR_PRESETS["nikkei225-optimum"] == (5, 0.3)
    assert SECTOR_PRESETS["nikkei225-preferred"] == (8, 0.7)
