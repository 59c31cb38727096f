"""Config parsing, staged pipeline runs, manifest skipping, and plot exports."""

import datetime
import math
import zipfile
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from marketstates.corrmat import EpochSpec
from marketstates.errors import DataError
from marketstates.pipeline import (
    STAGE_ORDER,
    PipelineConfig,
    correlation_arrays,
    emit_plot_data,
    parse_float_grid,
    parse_int_range,
    run_pipeline,
    series_from_arrays,
    trajectory_report_payload,
)
from marketstates.serialize import load_arrays, read_json, save_arrays, sha256_file, write_csv
from test_serialize import save_arrays_deflated


# --------------------------------------------------------------------------
# range / grid syntax


def test_parse_int_range_forms():
    assert parse_int_range("4") == [4]
    assert parse_int_range("2..10") == [2, 3, 4, 5, 6, 7, 8, 9, 10]
    assert parse_int_range("2,3,5") == [2, 3, 5]
    assert parse_int_range(" 7 ") == [7]


@pytest.mark.parametrize("bad", ["", "x", "2..x", "5..2", "1,,y"])
def test_parse_int_range_rejects(bad):
    with pytest.raises(ValueError, match="bad integer range"):
        parse_int_range(bad)


def test_parse_float_grid_forms():
    assert parse_float_grid("0.5") == [0.5]
    assert parse_float_grid("0:0.1:0.9") == [round(0.1 * i, 10) for i in range(10)]
    assert parse_float_grid("0:0.25:1") == [0.0, 0.25, 0.5, 0.75, 1.0]  # stop inclusive
    assert parse_float_grid("0,0.5,0.9") == [0.0, 0.5, 0.9]


@pytest.mark.parametrize("bad", ["", "x", "0:0:1", "1:0.1:0", "0:0.1"])
def test_parse_float_grid_rejects(bad):
    with pytest.raises(ValueError, match="bad float grid"):
        parse_float_grid(bad)


# --------------------------------------------------------------------------
# config


def test_config_from_file_parses_types_and_comments(tmp_path):
    text = """
# trailing comments and blank lines are fine
prices = data/prices.csv
window = 30        # days per epoch
epsilon_grid = 0:0.5:1
k_range = 2..4
threshold = 0.25
"""
    path = tmp_path / "run.cfg"
    path.write_text(text)
    cfg = PipelineConfig.from_file(path)
    assert cfg.prices == "data/prices.csv"
    assert cfg.window == 30 and isinstance(cfg.window, int)
    assert cfg.epsilon_grid == [0.0, 0.5, 1.0]
    assert cfg.k_range == [2, 3, 4]
    assert cfg.threshold == 0.25
    assert cfg.shift == 1  # untouched default


def test_config_rejects_unknown_key_and_bad_value(tmp_path):
    with pytest.raises(DataError, match="unknown config key 'windows'"):
        PipelineConfig.from_mapping({"windows": "20"})
    with pytest.raises(DataError, match="config key 'window'"):
        PipelineConfig.from_mapping({"window": "twenty"})
    path = tmp_path / "run.cfg"
    path.write_text("prices data/prices.csv\n")
    with pytest.raises(DataError, match=r"run\.cfg:1"):
        PipelineConfig.from_file(path)


def test_config_validate(tmp_path):
    with pytest.raises(DataError, match="'prices' path"):
        PipelineConfig().validate()
    cfg = PipelineConfig(prices=str(tmp_path / "absent.csv"))
    with pytest.raises(DataError, match="does not exist"):
        cfg.validate()
    (tmp_path / "p.csv").write_text("date,A\n")
    with pytest.raises(DataError, match="n_inits"):
        PipelineConfig(prices=str(tmp_path / "p.csv"), n_inits=1).validate()


# --------------------------------------------------------------------------
# correlation archives


def corr_series(n_epochs=4, n=3, seed=0, epsilon=0.5):
    from marketstates.corrmat import epoch_correlations, power_map
    from marketstates.ingest import ReturnPanel

    rng = np.random.default_rng(seed)
    panel = ReturnPanel(
        tickers=[f"t{i}" for i in range(n)],
        dates=[f"2020-01-{d + 1:02d}" for d in range(n_epochs + 9)],
        returns=rng.standard_normal((n, n_epochs + 9)),
    )
    series = epoch_correlations(panel, EpochSpec(window=10, shift=1))
    return power_map(series, epsilon) if epsilon else series


def test_correlation_arrays_round_trip():
    series = corr_series(epsilon=0.5)
    back = series_from_arrays(correlation_arrays(series))
    assert back.labels == series.labels
    assert back.epsilon == 0.5
    np.testing.assert_array_equal(back.values_stack(), series.values_stack())
    for got, want in zip(back.matrices, series.matrices):
        assert (got.start_date, got.end_date) == (want.start_date, want.end_date)


def test_series_from_arrays_holds_the_archive_stack():
    arrays = correlation_arrays(corr_series())
    arrays["values"] = arrays["values"].copy()  # as load_arrays returns it: writeable
    series = series_from_arrays(arrays)
    assert correlation_arrays(series)["values"] is series.values_stack()
    assert np.shares_memory(series.values_stack(), arrays["values"])
    assert not series.values_stack().flags.writeable
    assert arrays["values"].flags.writeable  # the caller's array is left as it was
    assert all(np.shares_memory(m.values, arrays["values"]) for m in series.matrices)


def test_series_from_arrays_requires_all_arrays(tmp_path):
    arrays = correlation_arrays(corr_series())
    del arrays["start_dates"]
    with pytest.raises(DataError, match="missing array"):
        series_from_arrays(arrays)


def test_write_map_uses_one_eigendecomposition(tmp_path, monkeypatch):
    from marketstates import geometry
    from marketstates.geometry import classical_mds, dimension_fidelity, similarity_matrix
    from marketstates.pipeline import write_map

    stack = corr_series(n_epochs=15, n=5, epsilon=0.0).values_stack()
    dates = [f"d{i}" for i in range(len(stack))]
    sim = similarity_matrix(stack)
    for dim in (2, 3):
        # oracle: the map and the fidelity each from their own eigendecomposition
        embedding = classical_mds(sim, D=dim, warn=False)
        fidelity = dict(dimension_fidelity(sim, [1, 2, 3, 4]))

        calls = []
        real_eigh = np.linalg.eigh
        monkeypatch.setattr(geometry.np.linalg, "eigh", lambda m: calls.append(1) or real_eigh(m))
        write_map(stack, dates, dim, tmp_path)
        monkeypatch.undo()
        assert len(calls) == 1

        meta = read_json(tmp_path / "map_meta.json")
        assert meta["eigenvalues"] == embedding.eigenvalues.tolist()
        assert (meta["n_clipped"], meta["clipped_mass"]) == (embedding.n_clipped,
                                                             embedding.clipped_mass)
        assert meta["dimension_fidelity"] == {str(d): v for d, v in fidelity.items()}
        rows = (tmp_path / "map_coords.csv").read_text().splitlines()[1:]
        coords = np.array([[float(v) for v in row.split(",")[2:2 + dim]] for row in rows])
        assert coords.tobytes() == embedding.coordinates.tobytes()
    with pytest.raises(ValueError, match="D must be in"):
        write_map(stack, dates, len(stack), tmp_path)


# --------------------------------------------------------------------------
# plot exports


def fitted_toy():
    from marketstates.geometry import classical_mds, similarity_matrix
    from marketstates.states import best_kmeans, build_state_model

    series = corr_series(n_epochs=12, epsilon=0.0)
    embedding = classical_mds(similarity_matrix(series.values_stack()), D=3, warn=False)
    run = best_kmeans(embedding.coordinates, 2, 4, seed=0, epsilon=0.0)
    return build_state_model(series, run), run, embedding


def test_emit_plot_data_row_counts_and_values(tmp_path):
    model, run, embedding = fitted_toy()
    written = emit_plot_data(model, embedding, tmp_path, prefix="demo_")
    names = [p.name for p in written]
    assert names[:2] == ["demo_coords.csv", "demo_transitions.csv"]
    assert names[2:] == [f"demo_state_avg_corr_S{s}.csv" for s in range(1, model.k + 1)]

    coords_lines = (tmp_path / "demo_coords.csv").read_text().splitlines()
    assert len(coords_lines) == 1 + len(model.state_of)
    first = coords_lines[1].split(",")
    assert first[0] == "1" and first[1] == model.epoch_dates[0]
    np.testing.assert_array_equal(
        [float(v) for v in first[2:5]], embedding.coordinates[0])
    assert int(first[5]) == model.state_of[0]

    transition_lines = (tmp_path / "demo_transitions.csv").read_text().splitlines()
    assert len(transition_lines) == 1 + model.k * model.k
    total = sum(int(line.split(",")[2]) for line in transition_lines[1:])
    assert total == len(model.state_of) - 1


def test_state_average_csvs_match_the_row_by_row_writer(tmp_path):
    model, run, embedding = fitted_toy()
    rng = np.random.default_rng(7)
    wide = rng.normal(size=(40, 40))
    # a wide average with -0.0, integral values and +-1 off the diagonal
    wide = (wide + wide.T) / 2
    wide[0, 1] = wide[1, 0] = -0.0
    wide[2, 3] = wide[3, 2] = 1.0
    wide[4, 5] = wide[5, 4] = -1.0
    for case, labels, averages in (("toy", model.labels, model.avg_corr_matrix),
                                   ("wide", [f"L{i}" for i in range(40)], [wide, np.eye(40)])):
        model = replace(model, labels=labels, avg_corr_matrix=averages)
        written = emit_plot_data(model, embedding, tmp_path / case)
        for s, avg in enumerate(averages, start=1):
            # oracle: the writer before mirroring, one repr per entry
            write_csv(tmp_path / "want.csv", ["label"] + list(labels),
                      [[labels[i]] + avg[i].tolist() for i in range(avg.shape[0])])
            got = tmp_path / case / f"state_avg_corr_S{s}.csv"
            assert got in written
            assert got.read_bytes() == (tmp_path / "want.csv").read_bytes(), (case, s)


def test_state_average_csvs_reject_an_asymmetric_average(tmp_path):
    from marketstates.errors import NumericError

    model, run, embedding = fitted_toy()
    skewed = model.avg_corr_matrix[1].copy()
    skewed[0, 1] = np.nextafter(skewed[1, 0], 2.0)
    model.avg_corr_matrix[1] = skewed
    with pytest.raises(NumericError, match="state S2 average matrix is not exactly symmetric"):
        emit_plot_data(model, embedding, tmp_path)


def test_emit_plot_data_rejects_mismatched_lengths(tmp_path):
    model, run, embedding = fitted_toy()
    model.state_of = model.state_of[:-1]
    with pytest.raises(ValueError, match="embedded epochs"):
        emit_plot_data(model, embedding, tmp_path)


def test_trajectory_payload_maps_nan_ratio_to_none():
    from marketstates.trajectory import TrajectoryReport

    report = TrajectoryReport(
        name="flat", start_date="a", end_date="b",
        coordinates=np.zeros((3, 3)), step_lengths=np.zeros(2),
        var_x=0.0, var_y=0.0, var_z=0.0, var_ratio=float("nan"),
        classification="NORMAL", threshold=0.4, epsilon=0.0,
        zero_variance=True, axis_order_ok=True)
    payload = trajectory_report_payload(report)
    assert payload["var_ratio"] is None
    assert payload["zero_variance"] is True


# --------------------------------------------------------------------------
# full pipeline runs on a small synthetic market


def write_market(root, n=8, n_days=120, burst=(55, 75), seed=5):
    """Small two-sector market with a correlated burst and one event catalog."""
    rng = np.random.default_rng(seed)
    rho = np.full(n_days - 1, 0.15)
    rho[burst[0]:burst[1]] = 0.85
    f = rng.standard_normal(n_days - 1)
    e = rng.standard_normal((n, n_days - 1))
    returns = 0.012 * (np.sqrt(rho) * f + np.sqrt(1.0 - rho) * e)
    prices = 50.0 * np.exp(np.cumsum(np.hstack([np.zeros((n, 1)), returns]), axis=1))
    start = datetime.date(2020, 1, 2)
    dates = [(start + datetime.timedelta(days=i)).isoformat() for i in range(n_days)]
    tickers = [f"S{i:02d}" for i in range(n)]

    root.mkdir(parents=True, exist_ok=True)
    with (root / "prices.csv").open("w") as fh:
        fh.write(",".join(["date"] + tickers) + "\n")
        for t, date in enumerate(dates):
            fh.write(",".join([date] + [repr(float(p)) for p in prices[:, t]]) + "\n")
    with (root / "sectors.csv").open("w") as fh:
        fh.write("ticker,sector\n")
        for i, ticker in enumerate(tickers):
            fh.write(f"{ticker},{'alpha' if i < n // 2 else 'beta'}\n")
    with (root / "events.csv").open("w") as fh:
        fh.write("name,center_date\n")
        fh.write(f"burst,{dates[65]}\n")
        fh.write(f"calm,{dates[30]}\n")
    return root


def market_config(data, out):
    return PipelineConfig(
        prices=str(data / "prices.csv"),
        sectors=str(data / "sectors.csv"),
        events=str(data / "events.csv"),
        out_dir=str(out),
        window=20, shift=1,
        epsilon_grid=[0.0, 0.5], k_range=[2, 3], n_inits=4, seed=0,
        k_min=2, k=2, epsilon=0.0,
        threshold=0.4, width_days=45,
        rmt_realizations=4, rmt_bins=20,
    )


@pytest.fixture(scope="module")
def market(tmp_path_factory):
    return write_market(tmp_path_factory.mktemp("market") / "data")


def test_run_pipeline_full(market, tmp_path):
    out = tmp_path / "out"
    code, manifest = run_pipeline(market_config(market, out))
    assert code == 0
    assert list(manifest["stages"]) == list(STAGE_ORDER)
    assert all(entry["status"] == "ok" for entry in manifest["stages"].values())

    # every recorded output exists and its hash is current
    for entry in manifest["stages"].values():
        for rel, digest in entry["outputs"].items():
            assert (out / rel).exists()
            assert sha256_file(out / rel) == digest

    # epochs: 119 returns, window 20, shift 1
    arrays = load_arrays(out / "corr_raw.npz")
    assert arrays["values"].shape == (100, 8, 8)

    model = read_json(out / "model.json")
    assert model["k"] == 2 and len(model["state_of"]) == 100

    # burst event should look anisotropic, calm should not
    events = {e["name"]: e for e in read_json(out / "trajectory_report.json")["events"]}
    assert events["burst"]["var_ratio"] < events["calm"]["var_ratio"]

    mds_meta = read_json(out / "map_meta.json")
    assert set(mds_meta["dimension_fidelity"]) == {"1", "2", "3", "4"}

    # manifest on disk matches the returned one
    assert read_json(out / "manifest.json") == manifest


def test_rerun_skips_and_force_rewrites(market, tmp_path):
    out = tmp_path / "out"
    cfg = market_config(market, out)
    run_pipeline(cfg)
    before = {p.name: sha256_file(p) for p in out.iterdir() if p.name != "manifest.json"}

    code, manifest = run_pipeline(cfg)
    assert code == 0
    assert all(entry["status"] == "skipped" for entry in manifest["stages"].values())

    code, manifest = run_pipeline(cfg, force=True)
    assert code == 0
    assert all(entry["status"] == "ok" for entry in manifest["stages"].values())

    after = {p.name: sha256_file(p) for p in out.iterdir() if p.name != "manifest.json"}
    assert after == before  # reruns are byte-identical


def test_each_file_is_hashed_once_per_run(market, tmp_path, monkeypatch):
    import marketstates.pipeline as pipeline

    calls = []

    def counting_sha256(path):
        calls.append(Path(path).resolve())
        return sha256_file(path)

    monkeypatch.setattr(pipeline, "sha256_file", counting_sha256)
    cfg = market_config(market, tmp_path / "out")
    for label in ("cold run", "rerun"):
        calls.clear()
        code, _ = run_pipeline(cfg)
        assert code == 0
        repeated = {str(p): n for p, n in Counter(calls).items() if n > 1}
        assert not repeated, f"{label} hashed these files more than once: {repeated}"
        assert tmp_path.joinpath("out", "corr_raw.npz").resolve() in calls


def count_price_parses(monkeypatch):
    """Count load_prices calls, wherever the pipeline reaches it from."""
    import marketstates.ingest as ingest
    import marketstates.pipeline as pipeline

    calls = []
    real = ingest.load_prices

    def counting_load_prices(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    for module in (ingest, pipeline):
        monkeypatch.setattr(module, "load_prices", counting_load_prices)
    return calls


def test_cold_run_parses_prices_once_and_matches_a_run_that_reparses_the_panel(
        market, tmp_path, monkeypatch):
    import marketstates.pipeline as pipeline

    cfg = replace(market_config(market, tmp_path / "handed"), events="")
    calls = count_price_parses(monkeypatch)
    assert run_pipeline(cfg)[0] == 0
    assert len(calls) == 1  # ingest's parse of prices.csv; corr takes that panel

    # the same run with corr parsing panel.csv, as a run whose ingest was skipped does
    monkeypatch.setattr(pipeline._Run, "hand_over_panel", lambda run, panel: None)
    calls.clear()
    parsed = replace(cfg, out_dir=str(tmp_path / "parsed"))
    assert run_pipeline(parsed)[0] == 0
    assert len(calls) == 2
    names = sorted(p.name for p in (tmp_path / "handed").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "parsed").iterdir())
    for name in names:  # manifest.json included
        assert ((tmp_path / "handed" / name).read_bytes()
                == (tmp_path / "parsed" / name).read_bytes()), name


def test_handed_panel_is_dropped_when_panel_csv_changes(market, tmp_path, monkeypatch):
    from marketstates.pipeline import _Run, write_panel

    out = tmp_path / "out"
    out.mkdir()
    run = _Run(out, workers=1)
    handed = write_panel(market / "prices.csv", "", 2, out / "panel.csv")
    run.hand_over_panel(handed)
    assert run.take_panel() is handed
    assert run.panel is None  # taken once, then released

    run.hand_over_panel(handed)
    # a stage rewrites the file, and its old digest is dropped
    lines = (out / "panel.csv").read_text().splitlines()
    (out / "panel.csv").write_text("\n".join(lines[:-1]) + "\n")
    del run.digests[out / "panel.csv"]
    calls = count_price_parses(monkeypatch)
    panel = run.take_panel()
    assert len(calls) == 1 and panel is not handed
    assert panel.n_days == handed.n_days - 1


def test_handed_panel_does_not_outlive_a_skipped_corr_stage(tmp_path, monkeypatch):
    import marketstates.pipeline as pipeline

    data = write_market(tmp_path / "data")
    cfg = market_config(data, tmp_path / "out")
    run_pipeline(cfg)
    sectors = (data / "sectors.csv").read_text()
    (data / "sectors.csv").write_text(sectors.replace("S00,alpha", "S00,beta"))

    held = []
    real_sectors = pipeline._stage_sectors

    def recording_sectors(cfg, run):
        held.append(run.panel)
        return real_sectors(cfg, run)

    monkeypatch.setattr(pipeline, "_stage_sectors", recording_sectors)
    code, manifest = run_pipeline(cfg)
    assert code == 0
    statuses = {name: entry["status"] for name, entry in manifest["stages"].items()}
    assert statuses["ingest"] == "ok" and statuses["corr"] == "skipped"
    assert held == [None]


def test_corr_stage_holds_one_stack_copy_while_writing(tmp_path, peak_bytes):
    from marketstates.pipeline import _Run, _stage_corr, write_panel

    data = write_market(tmp_path / "data", n=60, n_days=260)
    out = tmp_path / "out"
    out.mkdir()
    cfg = market_config(data, out)
    run = _Run(out, workers=1)
    run.hand_over_panel(write_panel(data / "prices.csv", "", 2, out / "panel.csv"))
    stack_bytes = 240 * 60 * 60 * 8  # 259 returns, window 20, shift 1
    # the epochs are built into the one stack, chunk by chunk, and the archive
    # is written from that stack's own buffer
    assert peak_bytes(lambda: _stage_corr(cfg, run)) <= 1.4 * stack_bytes
    assert load_arrays(out / "corr_raw.npz")["values"].nbytes == stack_bytes


def test_rerun_over_deflated_archives_skips_every_stage(market, tmp_path, monkeypatch):
    import marketstates.pipeline as pipeline
    import marketstates.serialize as serialize

    # an output tree whose .npz archives were deflated by the earlier writer
    cfg = market_config(market, tmp_path / "out")
    with monkeypatch.context() as patch:
        patch.setattr(pipeline, "save_arrays", save_arrays_deflated)
        patch.setattr(serialize, "save_arrays", save_arrays_deflated)
        assert run_pipeline(cfg)[0] == 0
    archives = sorted((tmp_path / "out").glob("*.npz"))
    assert len(archives) == 3
    for archive in archives:
        with zipfile.ZipFile(archive) as zf:
            assert {i.compress_type for i in zf.infolist()} == {zipfile.ZIP_DEFLATED}

    code, manifest = run_pipeline(cfg)
    assert code == 0
    assert {entry["status"] for entry in manifest["stages"].values()} == {"skipped"}


@pytest.mark.parametrize("grid, pinned", [
    ([0.0, 0.5], 0.0),       # the map's epsilon 0, the grid, the fit: two maps
    ([0.5, 0.5], -1.0),      # a duplicate grid epsilon and the grid's optimum
    ([0.3, 0.6], 0.9),       # no 0 on the grid and a pinned epsilon off it
    ([0.0, 0.3, 0.6], 0.6),  # a pinned epsilon on the grid
])
def test_each_epsilon_map_is_built_once_per_run(market, tmp_path, monkeypatch, grid, pinned):
    from marketstates import geometry
    import marketstates.pipeline as pipeline

    cfg = market_config(market, tmp_path / "out")
    cfg.sectors, cfg.events = "", ""  # only the stock stack is embedded
    cfg.epsilon_grid, cfg.epsilon = grid, pinned
    stock_shape, n_epochs = (100, 8, 8), 100
    kernel_calls, eigh_calls = [], []
    real_similarity, real_eigh = geometry.similarity_matrix, np.linalg.eigh

    def counting_similarity(stack, workers=1, epsilon=0.0):
        kernel_calls.append(stack.shape == stock_shape)
        return real_similarity(stack, workers, epsilon)

    def counting_eigh(matrix):
        eigh_calls.append(matrix.shape == (n_epochs, n_epochs))
        return real_eigh(matrix)

    for module in (geometry, pipeline):
        monkeypatch.setattr(module, "similarity_matrix", counting_similarity)
    monkeypatch.setattr(geometry.np.linalg, "eigh", counting_eigh)
    code, _ = run_pipeline(cfg)
    monkeypatch.undo()
    assert code == 0
    distinct = len({0.0, *grid} | ({pinned} if pinned >= 0 else set()))
    assert sum(kernel_calls) == len(kernel_calls) == distinct
    assert sum(eigh_calls) == distinct


def test_rerun_with_only_a_new_k_range_skips_mds_and_matches_a_fresh_run(market, tmp_path):
    out = tmp_path / "out"
    cfg = market_config(market, out)
    assert run_pipeline(cfg)[0] == 0
    cfg.k_range = [2, 3, 4]
    code, manifest = run_pipeline(cfg)
    assert code == 0
    statuses = {name: entry["status"] for name, entry in manifest["stages"].items()}
    assert statuses["mds"] == "skipped" and statuses["states"] == "ok"

    fresh = tmp_path / "fresh"
    assert run_pipeline(replace(cfg, out_dir=str(fresh)))[0] == 0
    names = sorted(p.name for p in out.iterdir() if p.name != "manifest.json")
    assert names == sorted(p.name for p in fresh.iterdir() if p.name != "manifest.json")
    for name in names:
        assert (out / name).read_bytes() == (fresh / name).read_bytes(), name


def test_changed_input_triggers_rerun(market, tmp_path):
    data = write_market(tmp_path / "data")
    out = tmp_path / "out"
    cfg = market_config(data, out)
    run_pipeline(cfg)

    events = (data / "events.csv").read_text().splitlines()
    (data / "events.csv").write_text("\n".join(events[:-1]) + "\n")  # drop one event
    code, manifest = run_pipeline(cfg)
    assert code == 0
    statuses = {name: entry["status"] for name, entry in manifest["stages"].items()}
    assert statuses["trajectory"] == "ok"  # its input changed
    assert statuses["ingest"] == "skipped" and statuses["states"] == "skipped"
    names = [e["name"] for e in read_json(out / "trajectory_report.json")["events"]]
    assert names == ["burst"]


def test_changed_sector_map_refits_sectors(tmp_path):
    data = write_market(tmp_path / "data")
    out = tmp_path / "out"
    cfg = market_config(data, out)
    run_pipeline(cfg)

    sectors = (data / "sectors.csv").read_text()
    (data / "sectors.csv").write_text(sectors.replace("S00,alpha", "S00,beta"))
    code, manifest = run_pipeline(cfg)
    assert code == 0
    statuses = {name: entry["status"] for name, entry in manifest["stages"].items()}
    assert statuses["ingest"] == "ok" and statuses["corr"] == "skipped"
    assert statuses["sectors"] == "ok"  # the panel's sector map changed

    fresh = tmp_path / "fresh"
    assert run_pipeline(market_config(data, fresh))[0] == 0
    for name in ("sector_model.json", "sector_model_avg_corr.npz", "displacement.json"):
        assert (out / name).read_bytes() == (fresh / name).read_bytes(), name


def test_deleted_output_triggers_rerun(market, tmp_path):
    out = tmp_path / "out"
    cfg = market_config(market, out)
    run_pipeline(cfg)
    (out / "rmt_report.json").unlink()
    code, manifest = run_pipeline(cfg)
    assert code == 0
    assert manifest["stages"]["rmt"]["status"] == "ok"
    assert manifest["stages"]["corr"]["status"] == "skipped"
    assert (out / "rmt_report.json").exists()


def test_optional_stages_report_not_configured(market, tmp_path):
    out = tmp_path / "out"
    cfg = market_config(market, out)
    cfg.sectors = ""
    cfg.events = ""
    code, manifest = run_pipeline(cfg)
    assert code == 0
    assert manifest["stages"]["sectors"]["status"] == "not configured"
    assert manifest["stages"]["trajectory"]["status"] == "not configured"
    assert manifest["stages"]["rmt"]["status"] == "ok"  # still runs


def test_failing_stage_halts_downstream(tmp_path):
    data = tmp_path / "data"
    data.mkdir()
    (data / "prices.csv").write_text("date,A\nnot-a-date,1.0\n")
    out = tmp_path / "out"
    cfg = PipelineConfig(prices=str(data / "prices.csv"), out_dir=str(out),
                         rmt_realizations=2)
    code, manifest = run_pipeline(cfg)
    assert code == 2
    assert manifest["stages"]["ingest"]["status"] == "failed"
    assert "bad date" in manifest["stages"]["ingest"]["error"]
    for name in STAGE_ORDER[1:]:
        assert manifest["stages"][name]["status"] == "halted"
    assert (out / "manifest.json").exists()  # manifest still written


def test_panel_with_no_surviving_ticker_fails_ingest(tmp_path):
    data = tmp_path / "data"
    data.mkdir()
    start = datetime.date(2020, 1, 2)
    rows = ["date,LEAD,GAPS"]
    for t in range(30):
        lead = "" if t == 0 else f"{10.0 + t}"
        gaps = "" if 10 <= t < 14 else f"{20.0 + t}"
        rows.append(f"{(start + datetime.timedelta(days=t)).isoformat()},{lead},{gaps}")
    (data / "prices.csv").write_text("\n".join(rows) + "\n")
    out = tmp_path / "out"
    cfg = PipelineConfig(prices=str(data / "prices.csv"), out_dir=str(out),
                         rmt_realizations=2)
    code, manifest = run_pipeline(cfg)
    assert code == 2
    error = manifest["stages"]["ingest"]["error"]
    assert manifest["stages"]["ingest"]["status"] == "failed"
    assert "no ticker survives" in error and "all 2 dropped" in error
    assert "(LEAD)" in error and "missing first entry" in error
    for name in STAGE_ORDER[1:]:
        assert manifest["stages"][name]["status"] == "halted"
    assert not (out / "corr_raw.npz").exists()


def test_negative_grid_epsilon_fails_states_before_surface(market, tmp_path):
    out = tmp_path / "out"
    cfg = market_config(market, out)
    cfg.epsilon_grid = parse_float_grid("-0.5,0")
    code, manifest = run_pipeline(cfg)
    assert code == 1
    assert manifest["stages"]["states"]["status"] == "failed"
    assert "epsilon must be >= 0" in manifest["stages"]["states"]["error"]
    assert not (out / "surface.csv").exists()


def test_unexpected_error_still_writes_manifest(market, tmp_path, monkeypatch, capsys):
    import marketstates.pipeline as pipeline

    def out_of_memory(cfg, run):
        raise MemoryError("stack does not fit")

    monkeypatch.setattr(pipeline, "_stage_corr", out_of_memory)
    out = tmp_path / "out"
    code, manifest = run_pipeline(market_config(market, out))
    assert code == 1
    stages = manifest["stages"]
    assert stages["ingest"]["status"] == "ok"
    assert stages["corr"] == {"status": "failed", "error": "MemoryError: stack does not fit"}
    for name in STAGE_ORDER[STAGE_ORDER.index("corr") + 1:]:
        assert stages[name]["status"] == "halted"
    assert read_json(out / "manifest.json") == manifest
    assert "Traceback" in capsys.readouterr().err


def test_pinned_choice_is_recorded(market, tmp_path):
    out = tmp_path / "out"
    run_pipeline(market_config(market, out))
    selected = read_json(out / "selected.json")
    assert selected["fitted"] == {"k": 2, "epsilon": 0.0, "pinned": True}
    assert selected["grid_optimum"]["k_min"] == 2


def test_manifest_paths_are_portable(market, tmp_path):
    out = tmp_path / "out"
    _, manifest = run_pipeline(market_config(market, out))
    for entry in manifest["stages"].values():
        for rel in entry["outputs"]:
            assert not rel.startswith("/")  # outputs live under out_dir
    # out_dir itself is stored relative to the manifest, so moving the
    # directory does not invalidate it
    assert manifest["config"]["out_dir"] == "."
