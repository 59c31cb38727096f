"""Command-line surface: subcommand behavior, output files, exit codes."""

import json

import numpy as np
import pytest

from marketstates.cli import main
from marketstates.errors import DataError
from marketstates.ingest import load_panel
from marketstates.pipeline import run_pipeline
from marketstates.serialize import load_arrays, read_json

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
    assert main(["ingest", "--prices", str(market / "prices.csv"),
                 "--sectors", str(market / "sectors.csv"), "--out", str(panel)]) == 0
    assert main(["corr", "--panel", str(panel), "--out", str(corr)]) == 0
    return {"market": market, "panel": panel, "corr": corr}


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


def test_bad_parameter_maps_to_one(workspace, tmp_path, capsys):
    code = main(["states", "optimize", "--panel", str(workspace["panel"]),
                 "--k-range", "nope", "--out", str(tmp_path / "surface.csv")])
    assert code == 1
    assert "bad parameter" in capsys.readouterr().err


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


def test_mds_writes_coordinates_and_meta(workspace, tmp_path):
    out = tmp_path / "mds"
    assert main(["mds", "--corr", str(workspace["corr"]), "--out-dir", str(out)]) == 0
    lines = (out / "map_coords.csv").read_text().splitlines()
    assert lines[0] == "epoch,date,x,y,z"
    assert len(lines) == 1 + 100
    meta = read_json(out / "map_meta.json")
    assert set(meta) == {"eigenvalues", "n_clipped", "clipped_mass", "dimension_fidelity"}
    fidelity = meta["dimension_fidelity"]
    assert list(fidelity) == ["1", "2", "3", "4"]
    assert all(-1.0 <= v <= 1.0 + 1e-12 for v in fidelity.values())


# --------------------------------------------------------------------------
# states


def test_states_optimize_prints_optimum(workspace, tmp_path, capsys):
    out = tmp_path / "surface.csv"
    assert main(["states", "optimize", "--panel", str(workspace["panel"]),
                 "--k-range", "2,3", "--epsilon-grid", "0,0.5",
                 "--n-inits", "4", "--k-min", "2", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "k,epsilon,sigma_d_intra,mean_d_intra,n_inits"
    assert len(lines) == 1 + 4  # 2 k values x 2 epsilons
    assert "optimum (k >= 2): k=" in capsys.readouterr().out


def test_states_fit_writes_model_and_plots(workspace, tmp_path, capsys):
    out = tmp_path / "fit"
    assert main(["states", "fit", "--panel", str(workspace["panel"]),
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
    assert main(["sectors", "fit", "--panel", str(workspace["panel"]),
                 "--k", "2", "--epsilon", "0.0", "--n-inits", "4",
                 "--out-dir", str(out)]) == 0
    model = read_json(out / "sector_model.json")
    assert model["labels"] == ["alpha", "beta"]
    assert len(model["state_of"]) == 100


def test_sectors_fit_requires_point_or_preset(workspace, tmp_path, capsys):
    code = main(["sectors", "fit", "--panel", str(workspace["panel"]),
                 "--out-dir", str(tmp_path / "x")])
    assert code == 2
    assert "pass --k and --epsilon, or --preset" in capsys.readouterr().err


def test_sectors_fit_rejects_unknown_preset(workspace, tmp_path):
    assert main(["sectors", "fit", "--panel", str(workspace["panel"]),
                 "--preset", "ftse", "--out-dir", str(tmp_path / "x")]) == 1


def test_sectors_displace_between_models(workspace, tmp_path, capsys):
    fit = tmp_path / "fit"
    sector_fit = tmp_path / "sector_fit"
    main(["states", "fit", "--panel", str(workspace["panel"]), "--k", "2",
          "--epsilon", "0.0", "--n-inits", "4", "--out-dir", str(fit)])
    main(["sectors", "fit", "--panel", str(workspace["panel"]), "--k", "2",
          "--epsilon", "0.0", "--n-inits", "4", "--out-dir", str(sector_fit)])
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


@pytest.mark.parametrize("flags", [["--dim", "2"], ["--dim", "5"], ["--name", "x"],
                                   ["--center", "nope"], ["--start", "a", "--end", "b"]])
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
    for stage in ("ingest", "corr", "mds", "states", "sectors", "trajectory", "rmt"):
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
        ["ingest", "--prices", str(market / "prices.csv"),
         "--sectors", str(market / "sectors.csv"), "--out", panel],
        ["corr", "--panel", panel, "--out", corr],
        ["mds", "--corr", corr, "--dim", "3", "--out-dir", str(cli)],
        ["states", "optimize", "--panel", panel, "--k-range", "2,3",
         "--epsilon-grid", "0,0.5", "--n-inits", "4", "--seed", "0", "--k-min", "2",
         "--out", str(cli / "surface.csv")],
        ["states", "fit", "--panel", panel, *fit, "--out-dir", str(cli)],
        ["sectors", "fit", "--panel", panel, *fit, "--out-dir", str(cli)],
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
