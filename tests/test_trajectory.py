"""Event windows, trajectory shape analysis, and the variance-ratio classifier."""

import math
import sys

import numpy as np
import pytest

from marketstates import trajectory
from marketstates.corrmat import EpochCorrelationSeries, EpochSpec, epoch_correlations
from marketstates.errors import DataError
from marketstates.ingest import ReturnPanel
from marketstates.trajectory import (
    CRITICAL,
    NORMAL,
    EventWindow,
    analyze_trajectory,
    classify_catalog,
    cut_window,
    load_event_catalog,
    window_from_dates,
)


def step_distances(coordinates):
    """The distance on the map from each epoch to the next."""
    return np.linalg.norm(np.diff(coordinates, axis=0), axis=1)


def noise_panel(n_returns, n_stocks=6, seed=0):
    rng = np.random.default_rng(seed)
    return ReturnPanel(
        tickers=[f"t{i:02d}" for i in range(n_stocks)],
        dates=[f"d{i:04d}" for i in range(n_returns)],
        returns=rng.standard_normal((n_stocks, n_returns)),
    )


def event_panel(seed=0, n=12, length=400, burst=(100, 140)):
    """Factor-model returns: correlation 0.1 except 0.9 inside the burst."""
    rng = np.random.default_rng(seed)
    rho = np.full(length, 0.1)
    rho[burst[0]:burst[1]] = 0.9
    f = rng.standard_normal(length)
    e = rng.standard_normal((n, length))
    return ReturnPanel(
        tickers=[f"t{i:02d}" for i in range(n)],
        dates=[f"d{i:04d}" for i in range(length)],
        returns=np.sqrt(rho) * f + np.sqrt(1.0 - rho) * e,
    )


def planted_window(ratio, seed, n_epochs=105, n=12, scale=1.0):
    """Matrices whose pairwise dissimilarities form an L1 metric on exactly
    whitened 2-D points with the planted coordinate-variance ratio."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(n_epochs)
    w = rng.standard_normal(n_epochs)
    z -= z.mean()
    z /= z.std()
    w -= w.mean()
    w -= (w @ z) / (z @ z) * z
    w /= w.std()
    a = 0.5 * scale * z
    b = 0.5 * scale * np.sqrt(ratio) * w
    first = np.zeros((n, n))
    second = np.zeros((n, n))
    for i, j in [(0, 1), (2, 3), (4, 5)]:
        first[i, j] = first[j, i] = 0.1
    for i, j in [(6, 7), (8, 9), (10, 11)]:
        second[i, j] = second[j, i] = 0.1
    stack = np.eye(n) + a[:, None, None] * first + b[:, None, None] * second
    dates = [f"d{t:04d}" for t in range(n_epochs)]
    series = EpochCorrelationSeries([f"s{i}" for i in range(n)], stack, dates, dates)
    return EventWindow(
        name=f"planted-{ratio}",
        start_date="d0000",
        end_date=f"d{n_epochs - 1:04d}",
        epochs=series,
    )


def test_cut_window_of_exactly_fitting_panel_is_the_whole_panel():
    panel = noise_panel(124)  # 125 price days
    window = cut_window(panel, panel.dates[62], width_days=125)
    assert window.start_date == panel.dates[0]
    assert window.end_date == panel.dates[-1]
    assert window.name == panel.dates[62]
    spec = EpochSpec()
    assert window.n_epochs == (124 - spec.window) // spec.shift + 1


def test_cut_window_matches_manual_slice():
    panel = noise_panel(300, seed=3)
    window = cut_window(panel, panel.dates[150], width_days=125, name="mid")
    piece = ReturnPanel(
        tickers=panel.tickers,
        dates=panel.dates[88:212],
        returns=panel.returns[:, 88:212],
    )
    want = epoch_correlations(piece, EpochSpec())
    assert window.name == "mid"
    assert window.n_epochs == want.n_epochs
    np.testing.assert_array_equal(window.epochs.values_stack(), want.values_stack())
    assert [m.start_date for m in window.epochs.matrices] == [
        m.start_date for m in want.matrices
    ]


def test_cut_window_errors_name_the_shortfall():
    panel = noise_panel(124)
    with pytest.raises(DataError, match="only 61 available"):
        cut_window(panel, panel.dates[61], width_days=125)
    with pytest.raises(DataError, match="only 61 available"):
        cut_window(panel, panel.dates[63], width_days=125)
    with pytest.raises(DataError, match="not a trading day"):
        cut_window(panel, "2020-02-20", width_days=125)
    with pytest.raises(ValueError, match="odd"):
        cut_window(panel, panel.dates[62], width_days=124)
    with pytest.raises(ValueError, match="odd"):
        cut_window(panel, panel.dates[62], width_days=1)


def test_window_from_dates_matches_center_cut():
    panel = noise_panel(300, seed=5)
    by_center = cut_window(panel, panel.dates[150], width_days=125)
    by_dates = window_from_dates(panel, panel.dates[88], panel.dates[211], name="x")
    np.testing.assert_array_equal(
        by_dates.epochs.values_stack(), by_center.epochs.values_stack()
    )
    assert by_dates.start_date == panel.dates[88]
    assert by_dates.end_date == panel.dates[211]
    with pytest.raises(DataError, match="not a trading day"):
        window_from_dates(panel, "1999-01-01", panel.dates[211])
    with pytest.raises(DataError, match="does not follow"):
        window_from_dates(panel, panel.dates[10], panel.dates[10])


def test_planted_anisotropy_drives_the_classification():
    for seed in (0, 1, 2):
        calm = analyze_trajectory(planted_window(0.9, seed))
        assert calm.classification == NORMAL
        assert calm.var_ratio > 0.4
        sharp = analyze_trajectory(planted_window(0.1, seed))
        assert sharp.classification == CRITICAL
        assert sharp.var_ratio < 0.4
        for report in (calm, sharp):
            assert report.axis_order_ok
            assert report.var_x >= report.var_y >= report.var_z >= 0.0
            assert not report.zero_variance
            assert report.threshold == 0.4
            assert report.n_epochs == 105
            assert step_distances(report.coordinates).shape == (104,)


def test_var_ratio_is_scale_invariant():
    base = analyze_trajectory(planted_window(0.35, seed=7))
    scaled = analyze_trajectory(planted_window(0.35, seed=7, scale=3.0))
    assert abs(scaled.var_ratio - base.var_ratio) < 1e-10
    assert scaled.classification == base.classification
    assert np.isclose(scaled.var_x, 9.0 * base.var_x, rtol=1e-9)


def test_reversal_keeps_variances_and_reverses_steps():
    window = planted_window(0.5, seed=9, n_epochs=60)
    forward = analyze_trajectory(window)
    epochs = window.epochs
    reversed_series = EpochCorrelationSeries(
        epochs.labels, epochs.values_stack()[::-1],
        [m.start_date for m in reversed(epochs.matrices)],
        [m.end_date for m in reversed(epochs.matrices)],
    )
    backward = analyze_trajectory(
        EventWindow(
            name=window.name,
            start_date=window.end_date,
            end_date=window.start_date,
            epochs=reversed_series,
        )
    )
    assert backward.classification == forward.classification
    assert np.isclose(backward.var_ratio, forward.var_ratio, rtol=1e-9)
    # as an operation on a coordinate path, reversal flips steps bit-exactly
    steps = step_distances(forward.coordinates)
    flipped = step_distances(forward.coordinates[::-1])
    np.testing.assert_array_equal(flipped, steps[::-1])


def test_constant_window_reports_zero_variance_normal():
    n, n_epochs = 5, 30
    dates = [f"d{t}" for t in range(n_epochs)]
    window = EventWindow(
        name="flat",
        start_date="d0",
        end_date=f"d{n_epochs - 1}",
        epochs=EpochCorrelationSeries(list("abcde"), np.tile(np.eye(n), (n_epochs, 1, 1)),
                                      dates, dates),
    )
    report = analyze_trajectory(window)
    assert report.zero_variance
    assert math.isnan(report.var_ratio)
    assert report.classification == NORMAL
    assert (report.coordinates == 0.0).all()
    assert (step_distances(report.coordinates) == 0.0).all()


def test_analysis_epsilon_is_applied_and_recorded():
    window = planted_window(0.5, seed=4, n_epochs=40)
    raw = analyze_trajectory(window)
    mapped = analyze_trajectory(window, epsilon=0.6)
    assert mapped.epsilon == 0.6
    assert raw.epsilon == 0.0
    assert not np.allclose(mapped.var_x, raw.var_x)
    with pytest.raises(ValueError, match="epsilon"):
        analyze_trajectory(window, epsilon=-0.1)
    with pytest.raises(ValueError, match="dim"):
        analyze_trajectory(window, dim=1)


def test_threshold_sweep_is_monotone_on_planted_benchmark():
    windows = [planted_window(r, seed=13) for r in (0.05, 0.2, 0.35, 0.5, 0.8)]
    counts = []
    for threshold in (0.05, 0.2, 0.4, 0.6, 0.8, 0.95):
        reports = [analyze_trajectory(w, threshold=threshold) for w in windows]
        counts.append(sum(r.classification == CRITICAL for r in reports))
    assert counts == sorted(counts)


def test_classify_catalog_on_planted_panel():
    panel = event_panel(seed=1)
    catalog = [("burst", "d0120"), ("calm", "d0280"), ("bad", "d9999")]
    reports, failures = classify_catalog(panel, catalog)
    assert [r.name for r in reports] == ["burst", "calm"]
    assert reports[0].classification == CRITICAL
    assert reports[1].classification == NORMAL
    assert reports[0].var_ratio < 0.4 < reports[1].var_ratio
    assert set(failures) == {"bad"}
    assert "not a trading day" in failures["bad"]
    # abrupt-increment diagnostic: the burst window has the spikier steps
    burst_steps, calm_steps = (step_distances(r.coordinates) for r in reports)
    spike = np.max(burst_steps) / np.median(burst_steps)
    calm_spike = np.max(calm_steps) / np.median(calm_steps)
    assert spike > calm_spike


def test_classify_catalog_empty_and_worker_invariance():
    assert classify_catalog(noise_panel(130), []) == ([], {})
    panel = event_panel(seed=2)
    catalog = [("a", "d0120"), ("b", "d0280"), ("bad", "d9999"), ("c", "d0200"),
               ("late", "d0390"), ("d", "d0150")]

    def outcome(workers):
        reports, failures = classify_catalog(panel, catalog, workers=workers)
        return ([(r.name, repr(r.var_x), repr(r.var_y), repr(r.var_z),
                  r.coordinates.tobytes()) for r in reports], list(failures.items()))

    serial = outcome(1)
    assert [row[0] for row in serial[0]] == ["a", "b", "c", "d"]
    assert [name for name, _ in serial[1]] == ["bad", "late"]
    # more threads than cores, switching as often as the
    # interpreter allows: a window merged out of order would change the lists
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = [outcome(workers) for workers in (2, 8)]
    finally:
        sys.setswitchinterval(interval)
    assert threaded == [serial, serial]


@pytest.mark.parametrize("catalog, kwargs, message", [
    ([("crash", "d9998"), ("crash", "d9999"), ("ok", "d0150")], {}, "'crash' is listed twice"),
    ([("ok", "d0150")], {"width_days": 124}, "odd number of price days >= 3, got 124"),
    ([("ok", "d0150")], {"width_days": 1}, "odd number of price days >= 3, got 1"),
    ([("ok", "d0150")], {"epsilon": -0.5}, "epsilon must be >= 0, got -0.5"),
    ([("ok", "d0150")], {"workers": 0}, "workers must be >= 1, got 0"),
    ([("ok", "d0150"), ("late", "d0390")], {"workers": -3}, "workers must be >= 1, got -3"),
    ([("ok", "d0150")], {"threshold": math.nan}, "threshold must be finite, got nan"),
    ([("ok", "d0150")], {"threshold": math.inf}, "threshold must be finite, got inf"),
], ids=["repeated-name", "even-width", "width-below-3", "negative-epsilon", "zero-workers",
        "negative-workers", "nan-threshold", "infinite-threshold"])
def test_classify_catalog_rejects_before_any_window_runs(monkeypatch, catalog, kwargs, message):
    # each of these would otherwise fail every window alike, or run them inline, and still return
    cut = []
    monkeypatch.setattr(trajectory, "cut_window", lambda *args, **kw: cut.append(args))
    with pytest.raises(ValueError, match=message):
        classify_catalog(noise_panel(300), catalog, **{"workers": 2, **kwargs})
    assert cut == []


@pytest.mark.parametrize("threshold", [math.nan, math.inf, -math.inf])
def test_analyze_trajectory_rejects_a_threshold_that_is_not_finite(threshold):
    # NaN compares false, so every window came out NORMAL; inf made every one CRITICAL
    with pytest.raises(ValueError, match=f"threshold must be finite, got {threshold}"):
        analyze_trajectory(planted_window(0.1, seed=0), threshold=threshold)


def test_load_event_catalog(tmp_path):
    path = tmp_path / "events.csv"
    path.write_text("name,center_date\nBlack Monday,1987-10-19\n\nCovid-19 crash,2020-02-20\n")
    assert load_event_catalog(path) == [
        ("Black Monday", "1987-10-19"),
        ("Covid-19 crash", "2020-02-20"),
    ]
    bad_header = tmp_path / "bad.csv"
    bad_header.write_text("event,date\nx,2020-01-01\n")
    with pytest.raises(DataError, match="name,center_date"):
        load_event_catalog(bad_header)
    missing = tmp_path / "missing.csv"
    missing.write_text("name,center_date\nlonely,\n")
    with pytest.raises(DataError, match="lacks a center date"):
        load_event_catalog(missing)


def test_event_listed_twice_is_a_data_error(tmp_path):
    # keyed by name, a repeated event's failure would overwrite the first one's
    path = tmp_path / "events.csv"
    path.write_text("name,center_date\ncrash,d9998\ncrash,d9999\nok,d0120\n")
    with pytest.raises(DataError, match="name 'crash' is listed twice"):
        load_event_catalog(path)


@pytest.mark.parametrize("name", ['"a,b"', '"say ""x"""', '"two\nlines"'])
def test_event_name_a_csv_cell_cannot_hold_is_a_data_error(tmp_path, name):
    path = tmp_path / "events.csv"
    path.write_text(f"name,center_date\n{name},d0120\n")
    with pytest.raises(DataError, match="event .* contains a comma, quote or line break"):
        load_event_catalog(path)
