"""Command-line surface: subcommand behavior, output files, exit codes."""

import json
import re
from dataclasses import fields

import numpy as np
import pytest

from marketstates import geometry, pipeline
from marketstates.cli import build_parser, main
from marketstates.corrmat import EpochCorrelationSeries, EpochSpec, load_series, save_series
from marketstates.errors import DataError
from marketstates.ingest import ContinuityPolicy, load_panel, load_sector_map
from marketstates.pipeline import (PipelineConfig, parse_float_grid, parse_int_range,
                                   run_pipeline, write_fit)
from marketstates.rmt import SPECTRUM_BINS
from marketstates.sector import SECTOR_PRESETS, sector_series
from marketstates.serialize import load_arrays, read_json
from marketstates.states import K_MIN, MAP_DIM, fit_series

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


def assert_usage_error(err, message):
    """One argparse usage line or more, then ``message`` on the error line."""
    assert err.startswith("usage: marketstates ") and f": error: {message}\n" in err


def test_missing_required_flag_is_usage_error(capsys):
    assert main(["ingest", "--prices", "p.csv"]) == 1  # no --out
    assert "--out" in capsys.readouterr().err


def test_data_error_maps_to_two(tmp_path, capsys):
    code = main(["ingest", "--prices", str(tmp_path / "absent.csv"),
                 "--out", str(tmp_path / "panel.npz")])
    assert code == 2
    assert "data error" in capsys.readouterr().err


def test_prices_that_are_not_utf8_are_a_data_error(market, tmp_path, capsys):
    header, rest = (market / "prices.csv").read_bytes().split(b"\n", 1)
    prices = tmp_path / "prices.csv"
    prices.write_bytes(header.replace(b"S01", "S01\u00c9".encode("latin-1"), 1) + b"\n" + rest)
    panel = tmp_path / "panel.npz"
    assert main(["ingest", "--prices", str(prices), "--out", str(panel)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"data error: cannot read {prices}: 'utf-8' codec can't decode")
    assert err.count("\n") == 1 and not panel.exists()
    config = tmp_path / "run.cfg"
    config.write_text(f"prices = {prices}\nout_dir = {tmp_path / 'out'}\n")
    assert main(["run", "--config", str(config)]) == 2
    captured = capsys.readouterr()
    assert captured.err == ""  # no traceback: a data error, not an unexpected exception
    assert captured.out.startswith(f"ingest: failed (cannot read {prices}: 'utf-8' codec")


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
                 ["trajectory", "window", "--panel", prices, "--center", "2020-03-02",
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
    (["states", "optimize", "--k-range", "2,3", "--k-min", "2", "--epsilon-grid", "0,0.3,-0.5"],
     "epsilon must be >= 0, got -0.5"),
    (["states", "optimize", "--k-range", "2,3", "--k-min", "2", "--epsilon-grid", "0,0.3,nan"],
     "epsilon must be finite, got nan"),
    (["states", "fit", "--k", "2", "--epsilon", "0", "--seed", "-1"], "seed must be >= 0, got -1"),
    (["sectors", "fit", "--sectors", "SECTORS", "--k", "2", "--epsilon", "0", "--seed", "-1"],
     "seed must be >= 0, got -1"),
    (["states", "optimize", "--k-range", "2,3", "--k-min", "2", "--seed", "-1"],
     "seed must be >= 0, got -1"),
    (["states", "optimize", "--k-range", "4,4,5", "--k-min", "4"], "k_range lists 4 more than once"),
    (["states", "optimize", "--k-range", "2,3", "--k-min", "2", "--epsilon-grid", "0,0"],
     "epsilon_grid lists 0.0 more than once"),
    (["states", "optimize", "--k-range", "2..1002", "--k-min", "2"],
     "bad integer range '2..1002': 1001 points, more than 1000"),
], ids=["optimize_k_min", "optimize_k", "optimize_dim", "fit_n_inits", "fit_dim", "fit_k",
        "sectors_dim", "mds_dim0", "mds_dim_epochs", "optimize_negative_epsilon",
        "optimize_nan_epsilon", "fit_negative_seed", "sectors_negative_seed",
        "optimize_negative_seed", "optimize_repeated_k", "optimize_repeated_epsilon",
        "optimize_oversized_k_range"])
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


_FIT_MIRRORS = {"n_inits": "n_inits", "seed": "seed", "dim": "mds_dim"}
_TRAJECTORY_MIRRORS = {"window": "window", "shift": "shift", "width": "width_days",
                       "threshold": "threshold", "epsilon": "trajectory_epsilon"}
# by subcommand, each flag that a config key also sets: its dest and that key
_CONFIG_MIRRORS = {
    ("ingest",): {"max_gap": "max_gap"},
    ("corr",): {"window": "window", "shift": "shift"},
    ("rmt-validate",): {"realizations": "rmt_realizations", "seed": "seed", "bins": "rmt_bins"},
    ("mds",): {"dim": "mds_dim"},
    ("states", "optimize"): {**_FIT_MIRRORS, "k_range": "k_range",
                             "epsilon_grid": "epsilon_grid", "k_min": "k_min"},
    ("states", "fit"): _FIT_MIRRORS,
    ("sectors", "fit"): _FIT_MIRRORS,
    ("sectors", "displace"): {},
    ("trajectory", "window"): _TRAJECTORY_MIRRORS,
    ("trajectory", "catalog"): _TRAJECTORY_MIRRORS,
    ("run",): {},
    ("demo",): {},
}
# flags named like a config key that set something else: rmt-validate's power map
_NOT_MIRRORS = {("rmt-validate", "epsilon")}


def _subcommands(parser, path=()):
    """(command words, parser) of every subcommand that takes flags."""
    groups = [a for a in parser._actions if isinstance(a.choices, dict)]
    if not groups:
        return [(path, parser)]
    return [leaf for name, sub in groups[0].choices.items()
            for leaf in _subcommands(sub, (*path, name))]


def test_cli_defaults_are_the_config_defaults():
    cfg = PipelineConfig()
    # the config takes each library default from the module that uses it
    assert (cfg.window, cfg.shift) == (EpochSpec().window, EpochSpec().shift)
    assert cfg.max_gap == ContinuityPolicy().max_consecutive_missing
    assert (cfg.mds_dim, cfg.k_min, cfg.rmt_bins) == (MAP_DIM, K_MIN, SPECTRUM_BINS)
    parse = {"k_range": parse_int_range, "epsilon_grid": parse_float_grid}
    keys = {f.name for f in fields(PipelineConfig)}
    leaves = _subcommands(build_parser())
    assert {path for path, _ in leaves} == set(_CONFIG_MIRRORS)
    for path, parser in leaves:
        # parsed with only its required flags, and the first flag of each required
        # group, each mirror holds its key's default
        mirrors = _CONFIG_MIRRORS[path]
        required = [a for a in parser._actions if a.required and a.option_strings] + [
            g._group_actions[0] for g in parser._mutually_exclusive_groups if g.required]
        argv = [*path, *(arg for a in required for arg in (a.option_strings[0], "1"))]
        args = vars(build_parser().parse_args(argv))
        helps = {a.dest: a.help for a in parser._actions}
        for dest, key in mirrors.items():
            want, stated = getattr(cfg, key), re.search(r"\(default ([^;)]*)", helps[dest] or "")
            if args[dest] is not None:  # None: a flag that tells an explicit value apart
                assert parse.get(key, lambda v: v)(args[dest]) == want, (path, dest)
            if args[dest] is None or stated:  # its help states the default
                assert stated and stated[1] == str(want), (path, dest)
        # a flag named like a config key, with a default, must be a mirror
        for a in parser._actions:
            if a.dest in keys and a.dest not in mirrors and a.default not in (None, ""):
                assert (path[0], a.dest) in _NOT_MIRRORS, (path, a.dest)


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
    packed[2, 3] = np.nan  # epoch 3
    dates = [f"2020-01-{d:02d}" for d in range(1, 31)]
    corr = tmp_path / "corr.npz"
    save_series(EpochCorrelationSeries(["A", "B", "C", "D"], packed, dates, dates), corr)
    out = tmp_path / "out"
    assert main([*argv, "--corr", str(corr), "--out-dir", str(out)]) == 3
    assert "numeric failure: epoch 3 has a non-finite entry" in capsys.readouterr().err
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
    assert sorted(p.name for p in out.iterdir()) == [
        "model.json", "model_avg_corr.npz", "states_coords.csv", "states_transitions.csv"]
    text = capsys.readouterr().out
    assert "occupancy: S1=" in text and "mean correlation by state" in text


@pytest.mark.parametrize("command, prefix, model", [
    (["states", "fit"], "states_", "model.json"),
    (["sectors", "fit", "--sectors", "SECTORS"], "sectors_", "sector_model.json"),
], ids=["states", "sectors"])
def test_refit_with_fewer_states_leaves_the_tree_of_a_fresh_fit(workspace, tmp_path, tree_diff,
                                                                command, prefix, model):
    out, fresh = tmp_path / "out", tmp_path / "fresh"
    fit = [str(workspace["sectors"]) if a == "SECTORS" else a for a in command] + [
        "--corr", str(workspace["corr"]), "--epsilon", "0.0", "--n-inits", "4"]
    assert main(fit + ["--k", "3", "--out-dir", str(out)]) == 0
    assert read_json(out / model)["k"] == 3
    stem = model.removesuffix(".json")
    assert sorted(p.name for p in out.iterdir()) == sorted(
        [model, f"{stem}_avg_corr.npz", f"{prefix}coords.csv", f"{prefix}transitions.csv"])
    assert main(fit + ["--k", "2", "--out-dir", str(out)]) == 0
    assert main(fit + ["--k", "2", "--out-dir", str(fresh)]) == 0
    assert tree_diff(out, fresh) == []


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


def test_sectors_fit_preset_writes_the_files_of_its_point(workspace, tmp_path, tree_diff):
    fit = ["sectors", "fit", "--corr", str(workspace["corr"]),
           "--sectors", str(workspace["sectors"]), "--n-inits", "4"]
    assert SECTOR_PRESETS["sp500"] == (5, 0.2)
    assert main(fit + ["--preset", "sp500", "--out-dir", str(tmp_path / "preset")]) == 0
    assert main(fit + ["--k", "5", "--epsilon", "0.2", "--out-dir", str(tmp_path / "point")]) == 0
    assert tree_diff(tmp_path / "preset", tmp_path / "point") == []


def test_sectors_fit_include_self_pairs_reaches_the_sector_series(workspace, tmp_path,
                                                                  tree_diff):
    fit = ["sectors", "fit", "--corr", str(workspace["corr"]),
           "--sectors", str(workspace["sectors"]), "--k", "2", "--epsilon", "0.0",
           "--n-inits", "4", "--seed", "0", "--dim", "3"]
    cli, default = tmp_path / "cli", tmp_path / "default"
    assert main(fit + ["--include-self-pairs", "--out-dir", str(cli)]) == 0
    assert main(fit + ["--out-dir", str(default)]) == 0
    series = sector_series(load_series(workspace["corr"]), load_sector_map(workspace["sectors"]),
                           include_self_pairs=True)
    model, _, embedding = fit_series(series, 2, 0.0, 4, 0, dim=3)
    write_fit(model, embedding, tmp_path / "library" / "sector_model.json", "sectors_")
    assert tree_diff(cli, tmp_path / "library") == []
    assert "sector_model_avg_corr.npz" in tree_diff(cli, default)


def test_sectors_fit_requires_point_or_preset(workspace, tmp_path, capsys):
    out = tmp_path / "x"
    code = main(["sectors", "fit", "--corr", str(workspace["corr"]),
                 "--sectors", str(workspace["sectors"]), "--out-dir", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert_usage_error(err, "one of the arguments --k --preset is required")
    assert not out.exists()


def test_sectors_fit_k_needs_epsilon(workspace, tmp_path, capsys):
    out = tmp_path / "x"
    code = main(["sectors", "fit", "--corr", str(workspace["corr"]),
                 "--sectors", str(workspace["sectors"]), "--k", "3", "--out-dir", str(out)])
    assert code == 1
    assert capsys.readouterr().err == "bad parameter: --k needs --epsilon\n"
    assert not out.exists()


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
    if point[0] == "--k":  # the parser's group
        assert_usage_error(err, "argument --k: not allowed with argument --preset")
    else:
        assert err == "bad parameter: --epsilon needs --k\n"
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


def test_sectors_displace_of_models_of_different_lengths_is_a_data_error(tmp_path, capsys):
    stock, sector, out = tmp_path / "stock.json", tmp_path / "sector.json", tmp_path / "d.json"
    stock.write_text('{"state_of": [1, 2, 2]}')
    sector.write_text('{"state_of": [1, 2, 2, 1]}')
    assert main(["sectors", "displace", "--stock-model", str(stock),
                 "--sector-model", str(sector), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"data error: {stock} has 3 states, {sector} 4\n"
    assert not out.exists()


@pytest.mark.parametrize("text, message", [
    ("[1, 2, 2]", "is not a state model: no 'state_of' in a JSON object"),
    ('{"k": 2, "labels": ["x"]}', "is not a state model: no 'state_of' in a JSON object"),
    ('{"state_of": [1, 2.0, 2]}', "'state_of' is not a non-empty list of integers >= 1"),
    ('{"state_of": [1, 0, 2]}', "'state_of' is not a non-empty list of integers >= 1"),
    ('{"state_of": []}', "'state_of' is not a non-empty list of integers >= 1"),
], ids=["not_an_object", "no_state_of", "non_integer_states", "state_zero", "no_states"])
def test_sectors_displace_reads_only_each_state_sequence(tmp_path, capsys, text, message):
    # a file with nothing but a state sequence will do: no sidecar is read
    good, bad, out = tmp_path / "good.json", tmp_path / "bad.json", tmp_path / "d.json"
    good.write_text('{"state_of": [1, 2, 2]}')
    bad.write_text(text)
    displace = ["sectors", "displace", "--sector-model", str(good), "--out", str(out)]
    assert main(displace + ["--stock-model", str(good)]) == 0
    assert read_json(out)["histogram"] == {"0": 3}
    capsys.readouterr()
    out.unlink()
    assert main(displace + ["--stock-model", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {bad}") and message in err and err.count("\n") == 1
    assert not out.exists()


def test_sectors_displace_of_a_model_that_is_not_utf8_is_a_data_error(tmp_path, capsys):
    good, bad, out = tmp_path / "good.json", tmp_path / "bad.json", tmp_path / "d.json"
    good.write_text('{"state_of": [1, 2, 2]}')
    bad.write_bytes(b'{"state_of": [1, 2, 2], "name": "\xff"}')
    assert main(["sectors", "displace", "--stock-model", str(bad), "--sector-model", str(good),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"data error: cannot read {bad}: 'utf-8' codec can't decode")
    assert err.count("\n") == 1 and not out.exists()


# --------------------------------------------------------------------------
# trajectory


def price_dates(market):
    return [line.split(",")[0] for line in (market / "prices.csv").read_text().splitlines()[1:]]


def test_trajectory_single_window(workspace, market, tmp_path, capsys):
    dates = price_dates(market)
    out = tmp_path / "report.json"
    assert main(["trajectory", "window", "--panel", str(workspace["panel"]),
                 "--center", dates[60], "--width", "45",
                 "--name", "probe", "--out", str(out)]) == 0
    payload = read_json(out)
    assert payload["name"] == "probe"
    assert payload["classification"] in ("CRITICAL", "NORMAL")
    assert payload["n_epochs"] == 25  # 45 price days = 44 returns, window 20
    assert "probe: 25 epochs" in capsys.readouterr().out


def test_trajectory_start_end_equals_center(workspace, market, tmp_path):
    dates = price_dates(market)
    by_center, by_span = tmp_path / "center.json", tmp_path / "span.json"
    main(["trajectory", "window", "--panel", str(workspace["panel"]), "--center", dates[60],
          "--width", "45", "--out", str(by_center)])
    center_payload = read_json(by_center)
    main(["trajectory", "window", "--panel", str(workspace["panel"]),
          "--start", center_payload["start_date"], "--end", center_payload["end_date"],
          "--out", str(by_span)])
    span_payload = read_json(by_span)
    for key in ("var_x", "var_y", "var_z", "var_ratio", "classification"):
        assert span_payload[key] == center_payload[key]


def test_trajectory_requires_a_window(workspace, tmp_path, capsys):
    out = tmp_path / "r.json"
    code = main(["trajectory", "window", "--panel", str(workspace["panel"]), "--out", str(out)])
    assert code == 1
    assert_usage_error(capsys.readouterr().err, "one of the arguments --center --start is required")
    assert not out.exists()


@pytest.mark.parametrize("span", [["--start", "2020-01-02", "--end", "2020-02-01"],
                                  ["--start", "2020-01-02"], ["--end", "2020-02-01"]])
def test_trajectory_rejects_a_center_with_a_span(workspace, tmp_path, capsys, span):
    out = tmp_path / "r.json"
    code = main(["trajectory", "window", "--panel", str(workspace["panel"]),
                 "--center", "2020-03-02", *span, "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    if "--start" in span:  # the parser's group
        assert_usage_error(err, "argument --start: not allowed with argument --center")
    else:
        assert err == "bad parameter: --end needs --start\n"
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
    code = main(["trajectory", "window", "--panel", str(workspace["panel"]), *flags,
                 "--width", width, "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    if "--start" in flags:
        assert err == ("bad parameter: --width does not combine with --start; "
                       "the span sets the window\n")
    else:  # --end alone is no window
        assert_usage_error(err, "one of the arguments --center --start is required")
    assert not out.exists()


@pytest.mark.parametrize("given, missing", [("--start", "--end"), ("--end", "--start")])
def test_trajectory_span_needs_both_ends(workspace, market, tmp_path, capsys, given, missing):
    out = tmp_path / "r.json"
    code = main(["trajectory", "window", "--panel", str(workspace["panel"]),
                 given, price_dates(market)[40], "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    if given == "--start":
        assert err == "bad parameter: --start needs --end\n"
    else:  # the parser asks for the start that the group requires
        assert_usage_error(err, "one of the arguments --center --start is required")
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
    assert_usage_error(capsys.readouterr().err, f"unrecognized arguments: {' '.join(flags)}")
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
    window = (["catalog", "--events", str(market / "events.csv")] if mode == "catalog"
              else ["window", "--center", price_dates(market)[60]])
    out = tmp_path / "r.json"
    code = main(["trajectory", *window, "--panel", str(workspace["panel"]), "--width", "45",
                 "--threshold", threshold, "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == (
        f"bad parameter: threshold must be finite, got {float(threshold)}\n")
    assert not out.exists()


def test_trajectory_single_window_rejects_events(workspace, market, tmp_path, capsys):
    # one window's report has no use for a catalog: --events is refused, not ignored
    out = tmp_path / "r.json"
    events = str(market / "events.csv")
    code = main(["trajectory", "window", "--panel", str(workspace["panel"]),
                 "--center", price_dates(market)[60], "--width", "45", "--events", events,
                 "--out", str(out)])
    assert code == 1
    assert_usage_error(capsys.readouterr().err, f"unrecognized arguments: --events {events}")
    assert not out.exists()


def test_trajectory_single_window_rejects_workers(workspace, market, tmp_path, capsys):
    # one window maps in one thread: any worker count, even 1, is refused, not ignored
    out = tmp_path / "r.json"
    for workers in ("1", "2"):
        code = main(["trajectory", "window", "--panel", str(workspace["panel"]),
                     "--center", price_dates(market)[60], "--width", "45", "--workers", workers,
                     "--out", str(out)])
        assert code == 1
        assert_usage_error(capsys.readouterr().err, f"unrecognized arguments: --workers {workers}")
        assert not out.exists()


def test_trajectory_catalog_needs_events(workspace, tmp_path, capsys):
    out = tmp_path / "r.json"
    code = main(["trajectory", "catalog", "--panel", str(workspace["panel"]), "--out", str(out)])
    assert code == 1
    assert_usage_error(capsys.readouterr().err, "the following arguments are required: --events")
    assert not out.exists()


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


def test_run_over_a_manifest_that_is_not_an_object_is_one_error_line(market, tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    (out / "manifest.json").write_text("[]\n")
    config = tmp_path / "run.cfg"
    config.write_text(f"prices = {market / 'prices.csv'}\nout_dir = {out}\n")
    assert main(["run", "--config", str(config)]) == 2
    assert capsys.readouterr().err == (f"data error: {out / 'manifest.json'} is not a manifest "
                                       "of stage objects; rerun with --force\n")
    assert [p.name for p in out.iterdir()] == ["manifest.json"]


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
    out = tmp_path / "out"
    config = tmp_path / "run.cfg"
    config.write_text(f"prices = {workspace['market'] / 'prices.csv'}\nout_dir = {out}\n")
    argv = {"demo": ["demo", "--out-dir", str(out)],
            "run": ["run", "--config", str(config)],
            "optimize": ["states", "optimize", "--corr", str(workspace["corr"]),
                         "--out", str(out / "surface.csv")],
            "trajectory": ["trajectory", "catalog", "--panel", str(workspace["panel"]),
                           "--events", str(workspace["market"] / "events.csv"),
                           "--out", str(out / "report.json")]}
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


def test_corr_that_fails_mid_stream_keeps_the_earlier_archive(workspace, tmp_path):
    import datetime
    import os
    import shutil
    import subprocess
    import sys
    from pathlib import Path

    from marketstates.ingest import PricePanel, save_panel

    rng = np.random.default_rng(8)
    prices = 50.0 * np.exp(np.cumsum(0.01 * rng.standard_normal((60, 90)), axis=1))
    # flat for 30 days: zero variance in epochs 41 to 50 of 70, in the third
    # 18-epoch chunk, after two chunks are written
    prices[7, 40:70] = prices[7, 40]
    dates = [(datetime.date(2020, 1, 2) + datetime.timedelta(days=t)).isoformat()
             for t in range(90)]
    save_panel(PricePanel([f"S{i:02d}" for i in range(60)], dates, prices), tmp_path / "p.npz")
    out = tmp_path / "corr.npz"
    shutil.copyfile(workspace["corr"], out)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONWARNINGS": "error",
           "PYTHONPATH": os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    done = subprocess.run([sys.executable, "-m", "marketstates", "corr", "--panel",
                           str(tmp_path / "p.npz"), "--out", str(out)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 1
    assert "RuntimeWarning: epoch 41: zero variance in rows [7]" in done.stderr
    assert out.read_bytes() == workspace["corr"].read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["corr.npz", "p.npz", "p.npz.meta.json"]

