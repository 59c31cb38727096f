"""Command-line surface: subcommand behavior, output files, exit codes."""

import json

import numpy as np
import pytest

from marketstates import geometry, pipeline
from marketstates.cli import build_parser, main
from marketstates.corrmat import EpochCorrelationSeries, save_series
from marketstates.errors import DataError
from marketstates.ingest import load_panel
from marketstates.pipeline import PipelineConfig, parse_float_grid, parse_int_range, run_pipeline
from marketstates.serialize import load_arrays, read_json
from marketstates.trajectory import DEFAULT_WIDTH_DAYS

from test_pipeline import market_config, write_market


@pytest.fixture(scope="module")
def market(tmp_path_factory):
    return write_market(tmp_path_factory.mktemp("market") / "data")


@pytest.fixture(scope="module")
def workspace(tmp_path_factory, market):
    """Panel + correlation archive prepared once for the read-only commands."""
    work = tmp_path_factory.mktemp("work")
    panel = work / "panel.npz"
    corr = work / "corr.npz"
    assert main(["ingest", "--prices", str(market / "prices.csv"), "--out", str(panel)]) == 0
    assert main(["corr", "--panel", str(panel), "--out", str(corr)]) == 0
    return {"market": market, "panel": panel, "corr": corr, "sectors": market / "sectors.csv"}


# --------------------------------------------------------------------------
# parsing and exit codes


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "marketstates" in capsys.readouterr().out


def test_missing_subcommand_is_usage_error(capsys):
    assert main([]) == 1
    assert "error" in capsys.readouterr().err


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == 1


def test_missing_required_flag_is_usage_error(capsys):
    assert main(["ingest", "--prices", "p.csv"]) == 1  # no --out
    assert "--out" in capsys.readouterr().err


def test_data_error_maps_to_two(tmp_path, capsys):
    code = main(["ingest", "--prices", str(tmp_path / "absent.csv"),
                 "--out", str(tmp_path / "panel.npz")])
    assert code == 2
    assert "data error" in capsys.readouterr().err


def test_corrupt_panel_sidecar_is_a_data_error(workspace, tmp_path, capsys):
    panel = tmp_path / "panel.npz"
    panel.write_bytes(workspace["panel"].read_bytes())
    sidecar = tmp_path / "panel.npz.meta.json"
    for text in ("{not json", "[1, 2]"):
        sidecar.write_text(text)
        with pytest.raises(DataError, match="panel.npz.meta.json"):
            load_panel(panel)
        assert main(["corr", "--panel", str(panel), "--out", str(tmp_path / "c.npz")]) == 2
        assert "data error" in capsys.readouterr().err


def test_price_csv_as_panel_is_a_data_error(workspace, tmp_path, capsys):
    prices = str(workspace["market"] / "prices.csv")
    for argv in (["corr", "--panel", prices, "--out", str(tmp_path / "c.npz")],
                 ["trajectory", "--panel", prices, "--center", "2020-03-02",
                  "--out", str(tmp_path / "t.json")]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "data error" in err and "is not an array archive" in err
        assert "`marketstates ingest` writes a panel archive" in err
    assert not (tmp_path / "c.npz").exists()


@pytest.mark.parametrize("argv", [
    ["mds", "--corr", "{corr}", "--out-dir", "{file}"],
    ["ingest", "--prices", "{prices}", "--out", "{file}/panel.npz"],
    ["rmt-validate", "--n", "20", "--t", "40", "--realizations", "2", "--out", "{file}/x.json"],
    ["run", "--config", "{config}", "--out-dir", "{file}"],
], ids=["mds_out_dir_is_a_file", "ingest_out_under_a_file", "rmt_out_under_a_file",
        "run_out_dir_is_a_file"])
def test_an_output_that_cannot_be_written_is_a_data_error(workspace, tmp_path, capsys, argv):
    blocker = tmp_path / "blocker"
    blocker.write_text("a file where an output directory belongs\n")
    config = tmp_path / "run.cfg"
    config.write_text(f"prices = {workspace['market'] / 'prices.csv'}\n")
    paths = {"corr": workspace["corr"], "file": blocker, "config": config,
             "prices": workspace["market"] / "prices.csv"}
    assert main([arg.format(**paths) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and err.count("\n") == 1  # one line, no traceback


def test_bad_parameter_maps_to_one(workspace, tmp_path, capsys):
    code = main(["states", "optimize", "--corr", str(workspace["corr"]),
                 "--k-range", "nope", "--out", str(tmp_path / "surface.csv")])
    assert code == 1
    assert "bad parameter" in capsys.readouterr().err


def count_kernel_calls(monkeypatch):
    """The dissimilarity kernel's calls, wherever the CLI reaches it from."""
    calls = []
    real = geometry.similarity_matrix
    for module in (geometry, pipeline):
        monkeypatch.setattr(module, "similarity_matrix",
                            lambda *args, **kwargs: calls.append(1) or real(*args, **kwargs))
    return calls


@pytest.mark.parametrize("argv, message", [
    (["states", "optimize", "--k-range", "2,3", "--k-min", "9"],
     "--k-min 9 exceeds every k in --k-range 2,3"),
    (["states", "optimize", "--k-range", "2,101", "--k-min", "2"],
     "k must be in 1..100 for 100 epochs, got 101"),
    (["states", "optimize", "--dim", "0"], "D must be in 1..99 for 100 epochs, got 0"),
    (["states", "fit", "--k", "2", "--epsilon", "0", "--n-inits", "0"],
     "n_inits must be >= 1, got 0"),
    (["states", "fit", "--k", "2", "--epsilon", "0", "--dim", "0"],
     "D must be in 1..99 for 100 epochs, got 0"),
    (["states", "fit", "--k", "0", "--epsilon", "0"], "k must be in 1..100 for 100 epochs, got 0"),
    (["sectors", "fit", "--sectors", "SECTORS", "--k", "2", "--epsilon", "0", "--dim", "0"],
     "D must be in 1..99 for 100 epochs, got 0"),
    (["mds", "--dim", "0"], "D must be in 1..99 for 100 epochs, got 0"),
    (["mds", "--dim", "100"], "D must be in 1..99 for 100 epochs, got 100"),
], ids=["optimize_k_min", "optimize_k", "optimize_dim", "fit_n_inits", "fit_dim", "fit_k",
        "sectors_dim", "mds_dim0", "mds_dim_epochs"])
def test_bad_arguments_fail_before_the_kernel(workspace, tmp_path, monkeypatch, capsys,
                                              argv, message):
    calls = count_kernel_calls(monkeypatch)
    out = ["--out", str(tmp_path / "surface.csv")] if "optimize" in argv else [
        "--out-dir", str(tmp_path / "out")]
    files = {"SECTORS": str(workspace["sectors"])}
    assert main([files.get(a, a) for a in argv] + ["--corr", str(workspace["corr"]), *out]) == 1
    err = capsys.readouterr().err
    assert "bad parameter" in err and message in err
    assert calls == [] and list(tmp_path.iterdir()) == []


def test_cli_defaults_are_the_config_defaults():
    # every flag a config key also sets, by the flag's name and by the key it sets
    config_key = {"window": "window", "shift": "shift", "max_gap": "max_gap",
                  "k_range": "k_range", "epsilon_grid": "epsilon_grid", "n_inits": "n_inits",
                  "seed": "seed", "k_min": "k_min", "threshold": "threshold", "dim": "mds_dim",
                  "width": "width_days", "realizations": "rmt_realizations",
                  "bins": "rmt_bins"}
    parse = {"k_range": parse_int_range, "epsilon_grid": parse_float_grid}
    # what `trajectory` uses when --width or --dim is not given
    unset = {("marketstates trajectory", "width"): DEFAULT_WIDTH_DAYS,
             ("marketstates trajectory", "dim"): 3}
    defaults = PipelineConfig()
    seen = set()
    parsers = [build_parser()]
    while parsers:
        parser = parsers.pop()
        for action in parser._actions:
            if isinstance(action.choices, dict):  # a subcommand's parsers
                parsers.extend(action.choices.values())
            elif action.dest in config_key:
                default = action.default
                if default is None:  # a flag that must tell an explicit value apart
                    default = unset[(parser.prog, action.dest)]
                value = parse.get(action.dest, lambda v: v)(default)
                assert value == getattr(defaults, config_key[action.dest]), (
                    parser.prog, action.dest)
                seen.add(action.dest)
    assert seen == set(config_key)


# --------------------------------------------------------------------------
# ingest / corr / mds


def test_ingest_reports_and_saves(market, tmp_path, capsys):
    out = tmp_path / "panel.npz"
    assert main(["ingest", "--prices", str(market / "prices.csv"),
                 "--out", str(out)]) == 0
    assert out.exists() and out.with_suffix(".npz.meta.json").exists()
    assert "kept 8 stocks x 120 days" in capsys.readouterr().out


def test_corr_writes_archive_with_epsilon(workspace, tmp_path, capsys):
    # corr writes raw matrices only: no --epsilon flag and no epsilon member;
    # the dissimilarity applies the power map as it compares epochs
    out = tmp_path / "corr_eps.npz"
    assert main(["corr", "--panel", str(workspace["panel"]),
                 "--epsilon", "0.5", "--out", str(out)]) == 1
    assert "--epsilon" in capsys.readouterr().err and not out.exists()
    assert main(["corr", "--panel", str(workspace["panel"]), "--out", str(out)]) == 0
    assert "100 epochs of 8x8 matrices" in capsys.readouterr().out
    arrays = load_arrays(out)
    assert sorted(arrays) == ["end_dates", "labels", "packed", "start_dates"]
    assert arrays["packed"].shape == (100, 36)  # 119 returns, window 20, 8 stocks
    assert out.read_bytes() == workspace["corr"].read_bytes()


def test_mds_writes_coordinates_and_meta(workspace, tmp_path, capsys):
    out = tmp_path / "mds"
    assert main(["mds", "--corr", str(workspace["corr"]), "--out-dir", str(out)]) == 0
    assert capsys.readouterr().out == f"100 epochs -> {out / 'map_coords.csv'}\n"
    lines = (out / "map_coords.csv").read_text().splitlines()
    assert lines[0] == "epoch,date,x,y,z"
    assert len(lines) == 1 + 100
    meta = read_json(out / "map_meta.json")
    assert set(meta) == {"eigenvalues", "n_clipped", "clipped_mass", "dimension_fidelity"}
    fidelity = meta["dimension_fidelity"]
    assert list(fidelity) == ["1", "2", "3", "4"]
    assert all(-1.0 <= v <= 1.0 + 1e-12 for v in fidelity.values())


@pytest.mark.parametrize("argv", [
    ["mds"],
    ["states", "fit", "--k", "2", "--epsilon", "0"],
    ["states", "fit", "--k", "2", "--epsilon", "0.6"],
], ids=["mds", "fit_epsilon0", "fit_epsilon0.6"])
def test_a_non_finite_archive_entry_is_a_numeric_failure_naming_its_epoch(tmp_path, capsys,
                                                                          argv):
    # an archive's packed rows are read as they are: the kernel names the epoch, at any epsilon
    rng = np.random.default_rng(0)
    packed = rng.uniform(-1.0, 1.0, (30, 10))
    packed[2, 3] = np.nan
    dates = [f"2020-01-{d:02d}" for d in range(1, 31)]
    corr = tmp_path / "corr.npz"
    save_series(EpochCorrelationSeries(["A", "B", "C", "D"], packed, dates, dates), corr)
    out = tmp_path / "out"
    assert main([*argv, "--corr", str(corr), "--out-dir", str(out)]) == 3
    assert "numeric failure: epoch 2 has a non-finite entry" in capsys.readouterr().err
    assert not (out / "map_coords.csv").exists() and not (out / "model.json").exists()


# --------------------------------------------------------------------------
# states


def test_states_optimize_prints_optimum(workspace, tmp_path, capsys):
    out = tmp_path / "surface.csv"
    assert main(["states", "optimize", "--corr", str(workspace["corr"]),
                 "--k-range", "2,3", "--epsilon-grid", "0,0.5",
                 "--n-inits", "4", "--k-min", "2", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "k,epsilon,sigma_d_intra,mean_d_intra,n_inits"
    assert len(lines) == 1 + 4  # 2 k values x 2 epsilons
    assert "optimum (k >= 2): k=" in capsys.readouterr().out


def test_states_fit_writes_model_and_plots(workspace, tmp_path, capsys):
    out = tmp_path / "fit"
    assert main(["states", "fit", "--corr", str(workspace["corr"]),
                 "--k", "2", "--epsilon", "0.0", "--n-inits", "4",
                 "--out-dir", str(out)]) == 0
    model = read_json(out / "model.json")
    assert model["k"] == 2 and len(model["state_of"]) == 100
    for name in ("states_coords.csv", "states_transitions.csv",
                 "states_state_avg_corr_S1.csv", "states_state_avg_corr_S2.csv"):
        assert (out / name).exists()
    text = capsys.readouterr().out
    assert "occupancy: S1=" in text and "mean correlation by state" in text


# --------------------------------------------------------------------------
# sectors


def test_sectors_fit_with_explicit_point(workspace, tmp_path):
    out = tmp_path / "sector_fit"
    assert main(["sectors", "fit", "--corr", str(workspace["corr"]),
                 "--sectors", str(workspace["sectors"]),
                 "--k", "2", "--epsilon", "0.0", "--n-inits", "4",
                 "--out-dir", str(out)]) == 0
    model = read_json(out / "sector_model.json")
    assert model["labels"] == ["alpha", "beta"]
    assert len(model["state_of"]) == 100


def test_sectors_fit_requires_point_or_preset(workspace, tmp_path, capsys):
    code = main(["sectors", "fit", "--corr", str(workspace["corr"]),
                 "--sectors", str(workspace["sectors"]), "--out-dir", str(tmp_path / "x")])
    assert code == 2
    assert "pass --k and --epsilon, or --preset" in capsys.readouterr().err


def test_sectors_fit_rejects_unknown_preset(workspace, tmp_path):
    assert main(["sectors", "fit", "--corr", str(workspace["corr"]),
                 "--sectors", str(workspace["sectors"]),
                 "--preset", "ftse", "--out-dir", str(tmp_path / "x")]) == 1


def test_sectors_fit_needs_a_sector_map(workspace, tmp_path, capsys):
    assert main(["sectors", "fit", "--corr", str(workspace["corr"]), "--k", "2",
                 "--epsilon", "0.0", "--out-dir", str(tmp_path / "x")]) == 1
    assert "the following arguments are required: --sectors" in capsys.readouterr().err


@pytest.mark.parametrize("point", [["--k", "3"], ["--epsilon", "0.0"],
                                   ["--k", "3", "--epsilon", "0.0"]])
def test_sectors_fit_rejects_a_preset_with_a_point(workspace, tmp_path, capsys, point):
    out = tmp_path / "x"
    code = main(["sectors", "fit", "--corr", str(workspace["corr"]),
                 "--sectors", str(workspace["sectors"]), "--preset", "sp500", *point,
                 "--out-dir", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert "bad parameter" in err and all(flag in err for flag in ["--preset", *point[::2]])
    assert not out.exists()


def test_sectors_displace_between_models(workspace, tmp_path, capsys):
    fit = tmp_path / "fit"
    sector_fit = tmp_path / "sector_fit"
    main(["states", "fit", "--corr", str(workspace["corr"]), "--k", "2",
          "--epsilon", "0.0", "--n-inits", "4", "--out-dir", str(fit)])
    main(["sectors", "fit", "--corr", str(workspace["corr"]), "--sectors", str(workspace["sectors"]),
          "--k", "2", "--epsilon", "0.0", "--n-inits", "4", "--out-dir", str(sector_fit)])
    out = tmp_path / "displacement.json"
    assert main(["sectors", "displace", "--stock-model", str(fit / "model.json"),
                 "--sector-model", str(sector_fit / "sector_model.json"),
                 "--out", str(out)]) == 0
    payload = read_json(out)
    assert sum(payload["histogram"].values()) == payload["n_epochs"] == 100
    assert "epochs" in capsys.readouterr().out


# --------------------------------------------------------------------------
# trajectory


def test_trajectory_single_window(workspace, market, tmp_path, capsys):
    dates = [line.split(",")[0]
             for line in (market / "prices.csv").read_text().splitlines()[1:]]
    out = tmp_path / "report.json"
    assert main(["trajectory", "--panel", str(workspace["panel"]),
                 "--center", dates[60], "--width", "45",
                 "--name", "probe", "--out", str(out)]) == 0
    payload = read_json(out)
    assert payload["name"] == "probe"
    assert payload["classification"] in ("CRITICAL", "NORMAL")
    assert payload["n_epochs"] == 25  # 45 price days = 44 returns, window 20
    assert "probe: 25 epochs" in capsys.readouterr().out


def test_trajectory_start_end_equals_center(workspace, market, tmp_path):
    dates = [line.split(",")[0]
             for line in (market / "prices.csv").read_text().splitlines()[1:]]
    by_center, by_span = tmp_path / "center.json", tmp_path / "span.json"
    main(["trajectory", "--panel", str(workspace["panel"]), "--center", dates[60],
          "--width", "45", "--out", str(by_center)])
    center_payload = read_json(by_center)
    main(["trajectory", "--panel", str(workspace["panel"]),
          "--start", center_payload["start_date"], "--end", center_payload["end_date"],
          "--out", str(by_span)])
    span_payload = read_json(by_span)
    for key in ("var_x", "var_y", "var_z", "var_ratio", "classification"):
        assert span_payload[key] == center_payload[key]


def test_trajectory_requires_a_window(workspace, tmp_path, capsys):
    code = main(["trajectory", "--panel", str(workspace["panel"]),
                 "--out", str(tmp_path / "r.json")])
    assert code == 2
    assert "--center" in capsys.readouterr().err


@pytest.mark.parametrize("span", [["--start", "2020-01-02", "--end", "2020-02-01"],
                                  ["--start", "2020-01-02"], ["--end", "2020-02-01"]])
def test_trajectory_rejects_a_center_with_a_span(workspace, tmp_path, capsys, span):
    out = tmp_path / "r.json"
    code = main(["trajectory", "--panel", str(workspace["panel"]), "--center", "2020-03-02",
                 *span, "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert "bad parameter" in err and "--center" in err and "--start" in err and "--end" in err
    assert not out.exists()


def test_trajectory_catalog(workspace, market, tmp_path, capsys):
    out = tmp_path / "catalog.json"
    assert main(["trajectory", "catalog", "--panel", str(workspace["panel"]),
                 "--events", str(market / "events.csv"), "--width", "45",
                 "--out", str(out)]) == 0
    payload = read_json(out)
    assert [e["name"] for e in payload["events"]] == ["burst", "calm"]
    assert payload["failures"] == {}
    text = capsys.readouterr().out
    assert "burst: var_ratio=" in text and "calm: var_ratio=" in text


@pytest.mark.parametrize("flags", [["--start", "2020-01-02", "--end", "2020-02-01"],
                                   ["--start", "2020-01-02"], ["--end", "2020-02-01"]])
@pytest.mark.parametrize("width", ["45", "125"])
def test_trajectory_rejects_a_width_with_a_span(workspace, tmp_path, capsys, flags, width):
    # the span sets the window, so a width, even the default one, would go unused
    out = tmp_path / "r.json"
    code = main(["trajectory", "--panel", str(workspace["panel"]), *flags,
                 "--width", width, "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert "bad parameter" in err and "--width" in err and flags[0] in err
    assert not out.exists()


@pytest.mark.parametrize("given, missing", [("--start", "--end"), ("--end", "--start")])
def test_trajectory_span_needs_both_ends(workspace, market, tmp_path, capsys, given, missing):
    dates = [line.split(",")[0]
             for line in (market / "prices.csv").read_text().splitlines()[1:]]
    out = tmp_path / "r.json"
    code = main(["trajectory", "--panel", str(workspace["panel"]), given, dates[40],
                 "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert "bad parameter" in err and f"{given} needs {missing}" in err
    assert not out.exists()


@pytest.mark.parametrize("flags", [["--dim", "2"], ["--dim", "5"], ["--name", "x"],
                                   ["--center", "nope"], ["--start", "a", "--end", "b"],
                                   ["--dim", "3"]])
def test_trajectory_catalog_rejects_single_window_flags(workspace, market, tmp_path,
                                                         capsys, flags):
    out = tmp_path / "catalog.json"
    code = main(["trajectory", "catalog", "--panel", str(workspace["panel"]),
                 "--events", str(market / "events.csv"), "--width", "45",
                 *flags, "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert "bad parameter" in err and flags[0] in err and flags[-2] in err
    assert not out.exists()


@pytest.mark.parametrize("flags", [["--width", "124"], ["--epsilon", "-0.5"]])
def test_trajectory_catalog_rejects_a_bad_width_or_epsilon(workspace, market, tmp_path,
                                                           capsys, flags):
    out = tmp_path / "catalog.json"
    code = main(["trajectory", "catalog", "--panel", str(workspace["panel"]),
                 "--events", str(market / "events.csv"), *flags, "--out", str(out)])
    assert code == 1
    assert "bad parameter" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("threshold", ["nan", "inf"])
@pytest.mark.parametrize("mode", ["catalog", "single"])
def test_a_trajectory_threshold_that_is_not_finite_is_a_bad_parameter(
        workspace, market, tmp_path, capsys, mode, threshold):
    dates = [line.split(",")[0]
             for line in (market / "prices.csv").read_text().splitlines()[1:]]
    window = (["catalog", "--events", str(market / "events.csv")] if mode == "catalog"
              else ["--center", dates[60]])
    out = tmp_path / "r.json"
    code = main(["trajectory", *window, "--panel", str(workspace["panel"]), "--width", "45",
                 "--threshold", threshold, "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == (
        f"bad parameter: threshold must be finite, got {float(threshold)}\n")
    assert not out.exists()


def test_trajectory_catalog_needs_events(workspace, tmp_path, capsys):
    code = main(["trajectory", "catalog", "--panel", str(workspace["panel"]),
                 "--out", str(tmp_path / "r.json")])
    assert code == 2
    assert "--events" in capsys.readouterr().err


# --------------------------------------------------------------------------
# rmt-validate / run / demo / env redirection


def test_rmt_validate_writes_plain_json(tmp_path, capsys):
    out = tmp_path / "rmt.json"
    assert main(["rmt-validate", "--n", "6", "--t", "24", "--realizations", "2",
                 "--bins", "10", "--out", str(out)]) == 0
    text = out.read_text()
    assert "np.float64" not in text
    report = json.loads(text)
    assert report["Q"] == 4.0
    assert report["support"] == [0.25, 2.25]
    assert "l1_to_analytic" in capsys.readouterr().out


def test_rmt_validate_names_a_negative_seed(capsys):
    assert main(["rmt-validate", "--n", "6", "--t", "24", "--seed", "-1"]) == 1
    assert "bad parameter: seed must be >= 0, got -1" in capsys.readouterr().err


def test_run_command_prints_statuses(market, tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text(
        f"prices = {market / 'prices.csv'}\n"
        f"sectors = {market / 'sectors.csv'}\n"
        f"events = {market / 'events.csv'}\n"
        f"out_dir = {tmp_path / 'out'}\n"
        "epsilon_grid = 0,0.5\nk_range = 2,3\nn_inits = 4\nk_min = 2\n"
        "k = 2\nepsilon = 0.0\nwidth_days = 45\nrmt_realizations = 4\n"
    )
    assert main(["run", "--config", str(config)]) == 0
    text = capsys.readouterr().out
    for stage in ("ingest", "corr", "states", "sectors", "trajectory", "rmt"):
        assert f"{stage}: ok" in text
    assert (tmp_path / "out" / "manifest.json").exists()

    assert main(["run", "--config", str(config)]) == 0
    assert "ingest: skipped" in capsys.readouterr().out


def test_run_with_missing_config_is_data_error(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "absent.cfg")]) == 2


def test_run_with_a_bad_config_value_fails_before_any_stage(market, tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text(f"prices = {market / 'prices.csv'}\nout_dir = {tmp_path / 'out'}\n"
                      "rmt_bins = 0\n")
    assert main(["run", "--config", str(config)]) == 2
    assert "data error: config rmt_bins: must be >= 1, got 0" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("grid, rule", [
    pytest.param(grid, rule, id=grid) for grid, rule in (
        ("0:0.5:inf", "need a finite start, step and stop"),
        ("0:inf:1", "need a finite start, step and stop"),
        ("0:0.1:1e308", "(stop - start) / step overflows"),
        ("0:1e-9:1", "1000000000 points, more than 1000"),
    )
])
def test_a_grid_bound_that_is_not_finite_is_one_error_line(workspace, market, tmp_path, capsys,
                                                           grid, rule):
    rule = f"bad float grid '{grid}': {rule}"
    out = tmp_path / "surface.csv"
    assert main(["states", "optimize", "--corr", str(workspace["corr"]), "--epsilon-grid", grid,
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"bad parameter: {rule}") and err.count("\n") == 1
    assert not out.exists()
    config = tmp_path / "run.cfg"
    config.write_text(f"prices = {market / 'prices.csv'}\nout_dir = {tmp_path / 'out'}\n"
                      f"epsilon_grid = {grid}\n")
    assert main(["run", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"data error: config epsilon_grid: {rule}")
    assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_demo_runs_end_to_end(tmp_path, capsys):
    out = tmp_path / "demo"
    assert main(["demo", "--out-dir", str(out)]) == 0
    text = capsys.readouterr().out
    assert "trajectory: ok" in text
    manifest = read_json(out / "manifest.json")
    assert all(entry["status"] == "ok" for entry in manifest["stages"].values())
    report = read_json(out / "trajectory_report.json")
    by_name = {e["name"]: e["classification"] for e in report["events"]}
    assert by_name == {"planted crash": "CRITICAL", "quiet stretch": "NORMAL"}


@pytest.mark.parametrize("command", ["demo", "run", "optimize", "trajectory"])
@pytest.mark.parametrize("workers", ["0", "-3"])
def test_worker_counts_below_one_are_a_bad_parameter(workspace, tmp_path, capsys, command,
                                                     workers):
    # a single trajectory window runs on one thread and would otherwise ignore the flag
    out = tmp_path / "out"
    config = tmp_path / "run.cfg"
    config.write_text(f"prices = {workspace['market'] / 'prices.csv'}\nout_dir = {out}\n")
    argv = {"demo": ["demo", "--out-dir", str(out)],
            "run": ["run", "--config", str(config)],
            "optimize": ["states", "optimize", "--corr", str(workspace["corr"]),
                         "--out", str(out / "surface.csv")],
            "trajectory": ["trajectory", "--panel", str(workspace["panel"]),
                           "--center", "2020-03-02", "--out", str(out / "report.json")]}
    assert main(argv[command] + ["--workers", workers]) == 1
    assert f"bad parameter: workers must be >= 1, got {workers}" in capsys.readouterr().err
    assert not out.exists()


def test_out_dir_env_redirects_relative_outputs(workspace, tmp_path, monkeypatch):
    monkeypatch.setenv("MARKETSTATES_OUT_DIR", str(tmp_path))
    assert main(["corr", "--panel", str(workspace["panel"]),
                 "--out", "nested/corr.npz"]) == 0
    assert (tmp_path / "nested" / "corr.npz").exists()


# --------------------------------------------------------------------------
# one writer per artifact


def test_cli_writes_the_pipeline_artifacts_byte_for_byte(market, tmp_path, tree_diff):
    staged = tmp_path / "pipeline"
    assert run_pipeline(market_config(market, staged))[0] == 0
    cli = tmp_path / "cli"
    panel, corr = str(cli / "panel.npz"), str(cli / "corr_raw.npz")
    fit = ["--k", "2", "--epsilon", "0.0", "--n-inits", "4", "--seed", "0", "--dim", "3"]
    for argv in (
        ["ingest", "--prices", str(market / "prices.csv"), "--out", panel],
        ["corr", "--panel", panel, "--out", corr],
        ["mds", "--corr", corr, "--dim", "3", "--out-dir", str(cli)],
        ["states", "optimize", "--corr", corr, "--k-range", "2,3",
         "--epsilon-grid", "0,0.5", "--n-inits", "4", "--seed", "0", "--k-min", "2",
         "--out", str(cli / "surface.csv")],
        ["states", "fit", "--corr", corr, *fit, "--out-dir", str(cli)],
        ["sectors", "fit", "--corr", corr, "--sectors", str(market / "sectors.csv"), *fit,
         "--out-dir", str(cli)],
        ["sectors", "displace", "--stock-model", str(cli / "model.json"),
         "--sector-model", str(cli / "sector_model.json"),
         "--out", str(cli / "displacement.json")],
        ["trajectory", "catalog", "--panel", panel, "--events", str(market / "events.csv"),
         "--width", "45", "--threshold", "0.4", "--out", str(cli / "trajectory_report.json")],
        ["rmt-validate", "--n", "8", "--t", "20", "--realizations", "4", "--bins", "20",
         "--seed", "0", "--out", str(cli / "rmt.json")],
    ):
        assert main(argv) == 0, argv

    rmt = read_json(cli / "rmt.json")
    assert rmt.pop("epsilon") == 0.0
    assert json.dumps(rmt, indent=2, sort_keys=True) + "\n" == (
        staged / "rmt_report.json").read_text()
    stage_only = {"manifest.json", "selected.json", "trajectory_table.csv", "rmt_report.json"}
    assert tree_diff(cli, staged, skip=stage_only | {"rmt.json"}) == []
