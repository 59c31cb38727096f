"""Config parsing, staged pipeline runs, manifest skipping, and plot exports."""

import datetime
import io
import math
import re
import zipfile
from collections import Counter
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from conftest import packed_rows
from marketstates.corrmat import EpochSpec, load_series, save_series
from marketstates.errors import DataError
from marketstates.pipeline import (
    PipelineConfig,
    parse_float_grid,
    parse_int_range,
    run_pipeline,
    trajectory_report_payload,
    write_fit,
)
from marketstates.rmt import WishartSpec
from marketstates.serialize import load_arrays, read_json, save_arrays, sha256_file, write_csv
from test_ingest import with_bom
from test_serialize import save_arrays_deflated

STAGES = ("ingest", "corr", "states", "sectors", "trajectory", "rmt")  # in run order


# --------------------------------------------------------------------------
# range / grid syntax


def test_parse_int_range_forms():
    assert parse_int_range("4") == [4]
    assert parse_int_range("2..10") == [2, 3, 4, 5, 6, 7, 8, 9, 10]
    assert parse_int_range("2,3,5") == [2, 3, 5]
    assert parse_int_range(" 7 ") == [7]
    assert len(parse_int_range("3..1002")) == 1000  # the most points a range may have


# 2..1000000000 would list a billion ints before any check
@pytest.mark.parametrize("bad", ["", "x", "2..x", "5..2", "1,,y", "2..1002"])
def test_parse_int_range_rejects(bad):
    with pytest.raises(ValueError, match="bad integer range"):
        parse_int_range(bad)


def test_parse_float_grid_forms():
    assert parse_float_grid("0.5") == [0.5]
    assert parse_float_grid("0:0.1:0.9") == [round(0.1 * i, 10) for i in range(10)]
    assert parse_float_grid("0:0.25:1") == [0.0, 0.25, 0.5, 0.75, 1.0]  # stop inclusive
    assert parse_float_grid("0,0.5,0.9") == [0.0, 0.5, 0.9]
    assert len(parse_float_grid("0:0.001:0.999")) == 1000  # the most points a range may have


# an infinite stop overflowed the point count, and an infinite step made a NaN point; a
# finite stop far past the step overflowed it too; 0:1e-9:1 would allocate 8 GB of points
@pytest.mark.parametrize("bad", ["", "x", "0:0:1", "1:0.1:0", "0:0.1", "0:0.1:inf", "0:inf:1",
                                 "-inf:0.1:0", "nan:0.1:1", "0:0.1:nan", "0:0.1:1e308",
                                 "0:1e-6:1", "0:1e-9:1", "0:0.001:1.0001"])
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


def test_config_file_is_utf8_and_a_bom_is_skipped(tmp_path):
    text = "prices = data/pr\u00e9ces.csv\nwindow = 30\n"
    path = tmp_path / "run.cfg"
    path.write_bytes(text.encode())
    assert PipelineConfig.from_file(with_bom(path)) == PipelineConfig.from_file(path)
    assert PipelineConfig.from_file(path).prices == "data/pr\u00e9ces.csv"
    latin1 = tmp_path / "latin1.cfg"
    latin1.write_bytes(text.encode("latin-1"))
    with pytest.raises(DataError, match=re.escape(f"cannot read config {latin1}: 'utf-8'")):
        PipelineConfig.from_file(latin1)


def test_config_comment_opens_only_at_line_start_or_after_whitespace(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("prices = data/run#1/prices.csv # the first run\n"
                    "sectors = s#.csv\t# after a tab\n"
                    "  # an indented comment line\n"
                    "#events = e.csv\n")
    cfg = PipelineConfig.from_file(path)
    assert cfg.prices == "data/run#1/prices.csv"
    assert cfg.sectors == "s#.csv"
    assert cfg.events == ""


def test_config_rejects_unknown_key_and_bad_value(tmp_path):
    with pytest.raises(DataError, match="unknown config key 'windows'"):
        PipelineConfig.from_mapping({"windows": "20"})
    with pytest.raises(DataError, match="config window: invalid literal for int"):
        PipelineConfig.from_mapping({"window": "twenty"})
    path = tmp_path / "run.cfg"
    path.write_text("prices data/prices.csv\n")
    with pytest.raises(DataError, match=r"run\.cfg:1"):
        PipelineConfig.from_file(path)


def test_config_file_that_sets_a_key_twice_names_both_lines(tmp_path, capsys):
    from marketstates.cli import main

    path = tmp_path / "run.cfg"
    path.write_text("prices = p.csv\nk_range = 2..4\n# a comment between the two\nk_range = 5\n")
    message = f"{path}:4: key 'k_range' is set again, first on line 2"
    with pytest.raises(DataError, match=re.escape(message)):
        PipelineConfig.from_file(path)
    assert main(["run", "--config", str(path)]) == 2
    assert capsys.readouterr().err == f"data error: {message}\n"


def test_config_file_with_an_oversized_k_range_fails_before_any_stage(tmp_path, capsys):
    from marketstates.cli import main

    path = tmp_path / "run.cfg"
    out = tmp_path / "out"
    path.write_text(f"prices = p.csv\nout_dir = {out}\nk_range = 2..1002\n")
    message = "config k_range: bad integer range '2..1002': 1001 points, more than 1000"
    with pytest.raises(DataError, match=re.escape(message)):
        PipelineConfig.from_file(path)
    assert main(["run", "--config", str(path)]) == 2
    assert capsys.readouterr().err == f"data error: {message}\n"
    assert not out.exists()


def test_config_validate(tmp_path):
    with pytest.raises(DataError, match="'prices' path"):
        PipelineConfig().validate()
    cfg = PipelineConfig(prices=str(tmp_path / "absent.csv"))
    with pytest.raises(DataError, match="does not exist"):
        cfg.validate()
    (tmp_path / "p.csv").write_text("date,A\n")
    with pytest.raises(DataError, match="config n_inits: must be >= 2, got 1"):
        PipelineConfig(prices=str(tmp_path / "p.csv"), n_inits=1).validate()
    # no grid point could meet k_min: fail before the grid runs, not after it
    with pytest.raises(DataError,
                       match=r"config k_min: 4 exceeds every k in k_range \[2, 3\]"):
        PipelineConfig(prices=str(tmp_path / "p.csv"), k_range=[2, 3]).validate()
    PipelineConfig(prices=str(tmp_path / "p.csv"), k_range=[2, 4], k_min=4).validate()
    # negative epsilon and sector_epsilon mean "use the optimum"; the event
    # parameters count only with a catalog
    PipelineConfig(prices=str(tmp_path / "p.csv"), epsilon=-1.0, sector_epsilon=-0.5,
                   width_days=44, trajectory_epsilon=-1.0).validate()


# --------------------------------------------------------------------------
# correlation archives


def corr_series(n_epochs=4, n=3, seed=0):
    from marketstates.corrmat import epoch_correlations
    from marketstates.ingest import ReturnPanel

    rng = np.random.default_rng(seed)
    panel = ReturnPanel(
        tickers=[f"t{i}" for i in range(n)],
        dates=[f"2020-01-{d + 1:02d}" for d in range(n_epochs + 9)],
        returns=rng.standard_normal((n, n_epochs + 9)),
    )
    return epoch_correlations(panel, EpochSpec(window=10, shift=1))


def corr_members(series):
    """The members save_series writes, each whole in memory: the stack packed at once."""
    from marketstates.corrmat import _pack_epochs

    return {
        "packed": _pack_epochs(series.values_stack()),
        "labels": np.array(series.labels),
        "start_dates": np.array([m.start_date for m in series.matrices]),
        "end_dates": np.array([m.end_date for m in series.matrices]),
    }


def test_correlation_arrays_round_trip(tmp_path):
    series = corr_series()
    save_series(series, tmp_path / "corr.npz")
    assert sorted(load_arrays(tmp_path / "corr.npz")) == [
        "end_dates", "labels", "packed", "start_dates"]
    back = load_series(tmp_path / "corr.npz")
    assert back.labels == series.labels
    np.testing.assert_array_equal(back.values_stack(), series.values_stack())
    for got, want in zip(back.matrices, series.matrices):
        assert (got.start_date, got.end_date) == (want.start_date, want.end_date)


def test_series_from_arrays_rejects_a_stack_that_does_not_match_its_labels(tmp_path):
    arrays = corr_members(corr_series(n=3))
    save_arrays(tmp_path / "corr.npz", **{**arrays, "labels": arrays["labels"][:2]})
    with pytest.raises(DataError, match=r"corr\.npz: packed epochs of shape \(4, 6\) for 2 labels"):
        load_series(tmp_path / "corr.npz")


def test_corr_archive_streams_the_packed_stack_without_a_whole_copy(tmp_path, peak_bytes):
    series = corr_series(n_epochs=240, n=60)
    path = tmp_path / "corr_raw.npz"
    packed_bytes = 240 * (60 * 61 // 2) * 8
    # streaming holds a chunk's buffers, far less than a whole packed copy
    assert peak_bytes(lambda: save_series(series, path)) < 0.5 * packed_bytes
    whole = tmp_path / "whole.npz"
    save_arrays(whole, **corr_members(series))
    assert path.read_bytes() == whole.read_bytes()
    with zipfile.ZipFile(path) as zf:
        assert zf.namelist() == ["end_dates.npy", "labels.npy", "packed.npy", "start_dates.npy"]
    back = load_series(path)
    assert back.values_stack().tobytes() == series.values_stack().tobytes()
    assert back.labels == series.labels
    assert [(m.start_date, m.end_date) for m in back.matrices] == \
        [(m.start_date, m.end_date) for m in series.matrices]


def test_series_from_a_packed_archive_holds_the_packed_rows_only(tmp_path, peak_bytes):
    series = corr_series(n_epochs=240, n=60)
    save_series(series, tmp_path / "corr_raw.npz")
    packed_bytes = 240 * (60 * 61 // 2) * 8  # 0.51 of the dense stack
    # the packed member is kept as it is read, through numpy's 256 KB reads:
    # nothing is unpacked
    peak = peak_bytes(lambda: load_series(tmp_path / "corr_raw.npz"))
    assert peak <= packed_bytes + (1 << 20)
    back = load_series(tmp_path / "corr_raw.npz")
    rows = packed_rows(back)
    assert rows.tobytes() == packed_rows(series).tobytes() and not rows.flags.writeable


def test_resaving_a_loaded_archive_streams_it_byte_for_byte(tmp_path, peak_bytes):
    series = corr_series(n_epochs=240, n=60)  # 3.5 MB of packed rows: seven 512 KB chunks
    save_series(series, tmp_path / "corr_raw.npz")
    # the rows go from one file to the other through one chunk's buffer
    peak = peak_bytes(lambda: save_series(load_series(tmp_path / "corr_raw.npz"),
                                          tmp_path / "again.npz"))
    assert peak <= (512 << 10) + (256 << 10)
    assert (tmp_path / "again.npz").read_bytes() == (tmp_path / "corr_raw.npz").read_bytes()


def archived_copy(series, path, deflated=False):
    """``series`` saved to ``path`` (deflated as other tools write it, if asked) and read back."""
    if deflated:
        save_arrays_deflated(path, **corr_members(series))
    else:
        save_series(series, path)
    return load_series(path)


@pytest.mark.parametrize("deflated", [False, True])
def test_an_archived_series_gives_the_bits_of_the_series_in_memory(tmp_path, deflated):
    from marketstates.corrmat import EpochCorrelationSeries
    from marketstates.geometry import similarity_matrix
    from marketstates.serialize import StoredArray
    from marketstates.sector import sector_series
    from marketstates.states import fit_series

    # 150 epochs of 30 stocks: two 512 KB chunks of packed rows, three of the sector means'
    series = corr_series(n_epochs=150, n=30, seed=3)
    back = archived_copy(series, tmp_path / "corr_raw.npz", deflated)
    # one class: a stored member keeps no rows in memory, a deflated one is read whole
    assert type(back) is EpochCorrelationSeries
    assert isinstance(back._rows, StoredArray) is not deflated
    assert isinstance(back._rows, np.ndarray) is deflated
    for epsilon in (0.0, 0.6):
        for workers in (1, 2):
            assert (similarity_matrix(back, workers, epsilon).tobytes()
                    == similarity_matrix(series, workers, epsilon).tobytes())
    labels = np.arange(150) % 4 + 1
    assert ([m.tobytes() for m in back.label_means(labels, 4)]
            == [m.tobytes() for m in series.label_means(labels, 4)])
    got, want = (fit_series(s, 3, 0.6, 4, seed=0)[0] for s in (back, series))
    assert got.state_of.tolist() == want.state_of.tolist()
    assert [a.tobytes() for a in got.avg_corr_matrix] == [a.tobytes() for a in want.avg_corr_matrix]
    assert got.epoch_dates == want.epoch_dates
    sector_of = {t: f"s{i % 4}" for i, t in enumerate(series.labels)}
    got, want = sector_series(back, sector_of), sector_series(series, sector_of)
    assert packed_rows(got).tobytes() == packed_rows(want).tobytes()
    assert (got.start_dates, got.end_dates) == (want.start_dates, want.end_dates)
    assert back.values_stack().tobytes() == series.values_stack().tobytes()
    assert back.values_stack(138, 143).tobytes() == series.values_stack(138, 143).tobytes()
    for got, want in zip(back.matrices, series.matrices, strict=True):
        assert (got.start_date, got.end_date) == (want.start_date, want.end_date)
    for e in (0, 139, 140, 149):
        assert back.matrices[e].values.tobytes() == series.matrices[e].values.tobytes()
    for step in (1, 64, 150):  # a chunk is valid until the next is asked for
        starts = []
        for (e0, got), (f0, want) in zip(back._chunks(step), series._chunks(step), strict=True):
            assert e0 == f0 and got.tobytes() == want.tobytes()
            starts.append(e0)
        assert starts == list(range(0, 150, step))
    assert back._column_range.tobytes() == series._column_range.tobytes()
    assert not back._column_range.flags.writeable
    rows = packed_rows(back)
    assert rows.tobytes() == packed_rows(series).tobytes() and not rows.flags.writeable


def npy_bytes(array):
    buffer = io.BytesIO()
    np.lib.format.write_array(buffer, array, allow_pickle=False)
    return buffer.getvalue()


@pytest.mark.parametrize("compression", [zipfile.ZIP_STORED, zipfile.ZIP_DEFLATED])
@pytest.mark.parametrize("flaw, message", [
    ("truncated", "holds|not a readable array archive"),
    ("float32", "dtype <f4 in C order"),
    ("big-endian", "dtype >f8 in C order"),
    ("fortran", "dtype <f8 in Fortran order"),
    ("dates", "12 packed epochs for 11 start and 11 end dates"),
])
def test_a_bad_packed_member_is_a_data_error_before_the_kernel(tmp_path, monkeypatch, capsys,
                                                               compression, flaw, message):
    from marketstates import geometry
    from marketstates.cli import main

    series = corr_series(n_epochs=12, n=6)
    members = {"labels": npy_bytes(np.array(series.labels)),
               "start_dates": npy_bytes(np.array(series.start_dates)),
               "end_dates": npy_bytes(np.array(series.end_dates)),
               "packed": npy_bytes(packed_rows(series))}
    if flaw == "truncated":
        members["packed"] = members["packed"][:-8]
    elif flaw == "float32":
        members["packed"] = npy_bytes(packed_rows(series).astype("<f4"))
    elif flaw == "big-endian":
        members["packed"] = npy_bytes(packed_rows(series).astype(">f8"))
    elif flaw == "fortran":
        members["packed"] = npy_bytes(np.asfortranarray(packed_rows(series)))
    else:
        for name in ("start_dates", "end_dates"):
            members[name] = npy_bytes(np.array(getattr(series, name)[:-1]))
    path = tmp_path / "corr_raw.npz"
    with zipfile.ZipFile(path, "w", compression=compression) as zf:
        for name, data in members.items():
            zf.writestr(f"{name}.npy", data)

    def no_kernel(*args):
        raise AssertionError("the kernel ran")

    monkeypatch.setattr(geometry, "_kernel_copy", no_kernel)
    with pytest.raises(DataError, match=f"^{re.escape(str(path))}.*({message})"):
        load_series(path)
    capsys.readouterr()
    assert main(["mds", "--corr", str(path), "--out-dir", str(tmp_path / "map")]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and str(path) in err
    assert not (tmp_path / "map").exists()


@pytest.mark.parametrize("epsilon", [0.0, 0.6])
def test_a_non_finite_archived_entry_names_its_epoch(tmp_path, epsilon):
    from marketstates.corrmat import EpochCorrelationSeries
    from marketstates.errors import NumericError
    from marketstates.geometry import similarity_matrix

    series = corr_series(n_epochs=150, n=30)
    packed = packed_rows(series).copy()
    packed[141, 7] = np.nan  # epoch 142, in the second chunk of 140 rows
    bad = EpochCorrelationSeries(series.labels, packed, series.start_dates, series.end_dates)
    back = archived_copy(bad, tmp_path / "corr_raw.npz")
    with pytest.raises(NumericError, match="^epoch 142 has a non-finite entry$"):
        similarity_matrix(back, 1, epsilon)


def test_an_archive_cut_short_after_it_was_read_is_a_data_error(tmp_path):
    from marketstates.geometry import similarity_matrix

    path = tmp_path / "corr_raw.npz"
    back = archived_copy(corr_series(n_epochs=150, n=30), path)
    path.write_bytes(path.read_bytes()[:300_000])  # inside the second chunk of rows
    with pytest.raises(DataError, match=f"{re.escape(str(path))} ended inside its packed member"):
        similarity_matrix(back)


def test_states_and_sectors_hold_no_stack_of_the_archive(tmp_path, peak_bytes):
    from types import MappingProxyType

    from marketstates.pipeline import _Run, _stage_corr, _stage_sectors, _stage_states, write_panel

    data = write_market(tmp_path / "data", n=100, n_days=140)
    out = tmp_path / "out"
    out.mkdir()
    run = _Run(out, workers=1)
    write_panel(data / "prices.csv", 2, out / "panel.npz")
    _stage_corr(MappingProxyType({"window": 20, "shift": 1, "panel.npz": out / "panel.npz"}), run)
    path = out / "corr_raw.npz"
    stack = 120 * (100 * 101 // 2) * 8  # 139 returns, window 20: 4.8 MB of packed rows
    assert load_arrays(path)["packed"].nbytes == stack
    states = MappingProxyType({
        "window": 20, "shift": 1, "k_range": [2, 3], "epsilon_grid": [0.0, 0.5], "n_inits": 4,
        "seed": 0, "mds_dim": 3, "k_min": 2, "k": 0, "epsilon": -1.0, "corr_raw.npz": path})
    sectors = MappingProxyType({
        "window": 20, "shift": 1, "sector_k": 0, "sector_epsilon": -1.0, "n_inits": 4, "seed": 0,
        "mds_dim": 3, "sectors": data / "sectors.csv", "corr_raw.npz": path,
        "selected.json": out / "selected.json", "model.json": out / "model.json"})
    # states holds the kernel's int16 copy and one thread's buffer (0.36 of the
    # stack here), its distance matrix (0.02) and a 512 KB chunk of rows (0.1),
    # with one more chunk for the power map at epsilon 0.5
    assert peak_bytes(lambda: _stage_states(states, run)) < 0.7 * stack
    # sectors holds a chunk of rows, its bins and the small sector series
    assert peak_bytes(lambda: _stage_sectors(sectors, run)) < 0.5 * stack


def test_series_from_arrays_requires_all_arrays(tmp_path):
    arrays = corr_members(corr_series())
    del arrays["start_dates"]
    save_arrays(tmp_path / "corr_raw.npz", **arrays)
    with pytest.raises(DataError, match="corr_raw.npz has no 'start_dates' member"):
        load_series(tmp_path / "corr_raw.npz")


def test_archive_without_a_packed_member_asks_to_rerun_corr(tmp_path):
    # earlier versions stored the dense stack as ``values``, and some an ``epsilon``
    series = corr_series()
    arrays = {**corr_members(series), "values": series.values_stack(), "epsilon": np.array(0.0)}
    del arrays["packed"]
    path = tmp_path / "corr_raw.npz"
    save_arrays(path, **arrays)
    with pytest.raises(DataError, match=re.escape(
            f"{path} has no 'packed' member; rerun corr (run --force) to rewrite it")):
        load_series(path)


def test_write_map_uses_one_eigendecomposition(tmp_path, monkeypatch):
    from marketstates.geometry import _clipped, classical_mds, similarity_matrix, step_fidelity
    from marketstates.pipeline import write_map

    series = corr_series(n_epochs=15, n=5)
    sim = similarity_matrix(series)
    for dim in (1, 2, 3, 5):
        # oracle: the map at dim, and the fidelity on the first 4 axes of a map of max(dim, 4)
        embedding = classical_mds(sim, D=dim)
        wide = classical_mds(sim, D=max(dim, 4)).coordinates
        fidelity = dict(step_fidelity(wide, np.diagonal(sim, 1), [1, 2, 3, 4]))

        calls = {"eigh": [], "eigvalsh": []}
        for name, real in [(name, getattr(np.linalg, name)) for name in calls]:
            monkeypatch.setattr(np.linalg, name, lambda a, name=name, real=real:
                                calls[name].append(len(a)) or real(a))
        got = write_map(series, dim, tmp_path)
        monkeypatch.undo()
        # one full decomposition for the map, and the eigenvalues alone for the clip counts
        assert calls == {"eigh": [15], "eigvalsh": [15]}
        # the returned map is the wider map's leading axes, the bytes of the map at dim
        assert got.coordinates.tobytes() == embedding.coordinates.tobytes()
        assert got.eigenvalues.tobytes() == embedding.eigenvalues.tobytes()

        meta = read_json(tmp_path / "map_meta.json")
        assert meta["eigenvalues"] == embedding.eigenvalues.tolist()
        assert (meta["n_clipped"], meta["clipped_mass"]) == _clipped(sim.copy())
        assert meta["dimension_fidelity"] == {str(d): v for d, v in fidelity.items()}
        rows = (tmp_path / "map_coords.csv").read_text().splitlines()[1:]
        assert [row.split(",")[1] for row in rows] == [m.start_date for m in series.matrices]
        shown = min(dim, 3)  # the CSV holds three axes
        coords = np.array([[float(v) for v in row.split(",")[2:2 + shown]] for row in rows])
        assert coords.tobytes() == embedding.coordinates[:, :shown].tobytes()
    with pytest.raises(ValueError, match="D must be in"):
        write_map(series, series.n_epochs, tmp_path)


# --------------------------------------------------------------------------
# plot exports


def fitted_toy():
    from marketstates.geometry import classical_mds, similarity_matrix
    from marketstates.states import best_kmeans, build_state_model

    series = corr_series(n_epochs=12)
    embedding = classical_mds(similarity_matrix(series), D=3)
    run = best_kmeans(embedding.coordinates, 2, 4, seed=0)
    return build_state_model(series, run), run, embedding


def test_write_fit_row_counts_and_values(tmp_path):
    model, run, embedding = fitted_toy()
    written = write_fit(model, embedding, tmp_path / "model.json", "demo_")
    names = [p.name for p in written]
    assert names[:4] == ["model.json", "model_avg_corr.npz", "demo_coords.csv",
                         "demo_transitions.csv"]
    assert names[4:] == [f"demo_state_avg_corr_S{s}.csv" for s in range(1, model.k + 1)]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(names)

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
        written = write_fit(model, embedding, tmp_path / case / "model.json", "")
        for s, avg in enumerate(averages, start=1):
            # oracle: the writer before mirroring, one repr per entry
            write_csv(tmp_path / "want.csv", ["label"] + list(labels),
                      [[labels[i]] + avg[i].tolist() for i in range(avg.shape[0])])
            got = tmp_path / case / f"state_avg_corr_S{s}.csv"
            assert got in written
            assert got.read_bytes() == (tmp_path / "want.csv").read_bytes(), (case, s)


def whole_mirrored_rows(matrix):
    """The rows of a symmetric matrix as the earlier writer made them: every text at once."""
    upper = np.triu_indices(matrix.shape[0])
    text = np.empty(matrix.shape, dtype=object)
    text[upper] = list(map(repr, matrix[upper].tolist()))
    text.T[upper] = text[upper]
    return list(map(",".join, text.tolist()))


@pytest.mark.parametrize("n", [1, 2, 200])
def test_mirrored_rows_come_one_at_a_time_with_the_whole_matrix_text(n, peak_bytes):
    from collections import deque

    from marketstates.pipeline import _mirrored_rows

    half = np.random.default_rng(n).uniform(-1.0, 1.0, size=(n, n))
    matrix = np.triu(half) + np.triu(half, 1).T
    matrix[-1, 0] = matrix[0, -1] = -0.0 if n > 1 else 1.0
    rows = _mirrored_rows(matrix)
    assert iter(rows) is rows  # made as they are asked for
    assert list(rows) == whole_mirrored_rows(matrix)
    if n == 200:
        # the texts below the diagonal wait for their rows: at most a quarter of
        # the matrix at once, where the whole matrix's text took 3.2 MB
        assert peak_bytes(lambda: deque(_mirrored_rows(matrix), maxlen=0)) < 1.5e6


def test_state_average_csvs_reject_an_asymmetric_average(tmp_path):
    from marketstates.errors import NumericError

    model, run, embedding = fitted_toy()
    skewed = model.avg_corr_matrix[1].copy()
    skewed[0, 1] = np.nextafter(skewed[1, 0], 2.0)
    model.avg_corr_matrix[1] = skewed
    with pytest.raises(NumericError, match="state S2 average matrix is not exactly symmetric"):
        write_fit(model, embedding, tmp_path / "model.json", "")
    assert list(tmp_path.iterdir()) == []  # checked before any file is written


def test_write_fit_rejects_mismatched_lengths(tmp_path):
    model, run, embedding = fitted_toy()
    model.state_of = model.state_of[:-1]
    with pytest.raises(ValueError, match="embedded epochs"):
        write_fit(model, embedding, tmp_path / "model.json", "")
    assert list(tmp_path.iterdir()) == []


def test_write_fit_removes_only_its_own_per_state_csvs_beyond_k(tmp_path):
    model, run, embedding = fitted_toy()
    kept = ["demo_state_avg_corr_S1.csv", "other_state_avg_corr_S7.csv",
            "demo_state_avg_corr_S07.csv", "demo_state_avg_corr_S9.csv.bak", "notes.txt"]
    for name in kept + ["demo_state_avg_corr_S3.csv", "demo_state_avg_corr_S12.csv"]:
        (tmp_path / name).write_text("old\n")
    written = write_fit(model, embedding, tmp_path / "model.json", "demo_")
    assert model.k == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        {p.name for p in written} | set(kept))


def test_trajectory_payload_maps_nan_ratio_to_none():
    from marketstates.trajectory import TrajectoryReport

    report = TrajectoryReport(
        name="flat", start_date="a", end_date="b",
        coordinates=np.zeros((3, 3)),
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


def test_run_pipeline_rejects_worker_counts_below_one_before_any_stage(market, tmp_path):
    out = tmp_path / "out"
    for workers in (0, -3):
        with pytest.raises(ValueError, match=f"workers must be >= 1, got {workers}"):
            run_pipeline(market_config(market, out), workers=workers)
    assert not out.exists()


def test_run_pipeline_full(market, tmp_path):
    out = tmp_path / "out"
    code, manifest = run_pipeline(market_config(market, out))
    assert code == 0
    assert list(manifest["stages"]) == list(STAGES)
    assert all(entry["status"] == "ok" for entry in manifest["stages"].values())

    # every recorded output exists and its hash is current
    for entry in manifest["stages"].values():
        for rel, digest in entry["outputs"].items():
            assert (out / rel).exists()
            assert sha256_file(out / rel) == digest

    # epochs: 119 returns, window 20, shift 1
    series = load_series(out / "corr_raw.npz")
    assert series.values_stack().shape == (100, 8, 8)

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


def test_only_a_rerun_with_a_pool_lists_the_files_to_read_ahead(market, tmp_path, monkeypatch):
    import marketstates.pipeline as pipeline

    cfg = market_config(market, tmp_path / "out")
    assert run_pipeline(cfg)[0] == 0
    listed = []
    real = pipeline._prior_files

    def counting(*args):
        listed.append(1)
        return real(*args)

    monkeypatch.setattr(pipeline, "_prior_files", counting)
    for workers, want in ((1, []), (2, [1])):
        code, manifest = run_pipeline(cfg, workers=workers)
        assert code == 0 and listed == want
        assert all(entry["status"] == "skipped" for entry in manifest["stages"].values())


def test_each_file_is_hashed_once_per_run(market, tmp_path, monkeypatch):
    import marketstates.pipeline as pipeline

    calls = []

    def counting_sha256(path):
        calls.append(Path(path).resolve())
        return sha256_file(path)

    monkeypatch.setattr(pipeline, "sha256_file", counting_sha256)
    for workers in (1, 2):
        cfg = market_config(market, tmp_path / f"out-{workers}")
        for label in ("cold run", "rerun"):
            calls.clear()
            code, _ = run_pipeline(cfg, workers=workers)
            assert code == 0
            repeated = {str(p): n for p, n in Counter(calls).items() if n > 1}
            assert not repeated, (f"{label} on {workers} workers hashed these files "
                                  f"more than once: {repeated}")
            assert tmp_path.joinpath(f"out-{workers}", "corr_raw.npz").resolve() in calls


def test_trees_and_rerun_manifests_are_the_same_at_one_and_two_workers(market, tmp_path,
                                                                      tree_diff):
    outs = {workers: tmp_path / f"out-{workers}" for workers in (1, 2)}
    cfgs = {workers: market_config(market, out) for workers, out in outs.items()}
    for workers, cfg in cfgs.items():
        assert run_pipeline(cfg, workers=workers)[0] == 0
    # the manifests name their files relative to the output dir, so they compare too
    assert tree_diff(outs[1], outs[2]) == []
    for workers, cfg in cfgs.items():
        code, manifest = run_pipeline(cfg, workers=workers)
        assert code == 0
        assert all(entry["status"] == "skipped" for entry in manifest["stages"].values())
    assert (outs[1] / "manifest.json").read_bytes() == (outs[2] / "manifest.json").read_bytes()


def test_a_rerun_on_two_workers_records_the_digests_of_the_files_it_rewrote(market, tmp_path):
    out = tmp_path / "out"
    cfg = replace(market_config(market, out), k=0, epsilon=-1.0)  # fit the grid optimum
    assert run_pipeline(cfg, workers=2)[0] == 0
    sector_model = (out / "sector_model.json").read_bytes()
    # the grid optimum moves, and the sectors stage refits at it: its outputs were
    # read ahead, and then rewritten with other bytes
    code, manifest = run_pipeline(replace(cfg, k_range=[3]), workers=2)
    assert code == 0
    statuses = {name: entry["status"] for name, entry in manifest["stages"].items()}
    assert {name for name, status in statuses.items() if status == "ok"} == {"states", "sectors"}
    assert (out / "sector_model.json").read_bytes() != sector_model
    for entry in manifest["stages"].values():
        # an input outside the output dir is named by its absolute path
        for rel, digest in (entry["inputs"] | entry["outputs"]).items():
            assert digest == sha256_file(out / rel), rel


def test_a_read_ahead_digest_that_fails_is_taken_again_where_it_is_needed(market, tmp_path,
                                                                          monkeypatch):
    import marketstates.pipeline as pipeline

    out = tmp_path / "out"
    cfg = market_config(market, out)
    for _ in ("cold run", "rerun"):
        assert run_pipeline(cfg, workers=2)[0] == 0
    expected = (out / "manifest.json").read_bytes()
    calls = []

    def fails_once_on_the_rmt_report(path):
        calls.append(Path(path).name)
        if calls.count("rmt_report.json") == 1 and Path(path).name == "rmt_report.json":
            raise PermissionError(f"cannot read {path}")
        return sha256_file(path)

    monkeypatch.setattr(pipeline, "sha256_file", fails_once_on_the_rmt_report)
    code, manifest = run_pipeline(cfg, workers=2)
    assert code == 0
    assert all(entry["status"] == "skipped" for entry in manifest["stages"].values())
    assert calls.count("rmt_report.json") == 2
    assert (out / "manifest.json").read_bytes() == expected


def test_a_rerun_on_two_workers_restores_an_output_changed_on_disk(market, tmp_path):
    out = tmp_path / "out"
    cfg = market_config(market, out)
    assert run_pipeline(cfg, workers=2)[0] == 0
    surface = (out / "surface.csv").read_bytes()
    with (out / "surface.csv").open("ab") as fh:
        fh.write(b"\n")
    code, manifest = run_pipeline(cfg, workers=2)
    assert code == 0
    statuses = {name: entry["status"] for name, entry in manifest["stages"].items()}
    assert {name for name, status in statuses.items() if status != "skipped"} == {"states"}
    assert (out / "surface.csv").read_bytes() == surface
    assert manifest["stages"]["states"]["outputs"]["surface.csv"] == sha256_file(out / "surface.csv")


def test_the_read_ahead_batch_keeps_only_the_digests_it_could_take(tmp_path, monkeypatch):
    from concurrent.futures import ThreadPoolExecutor

    import marketstates.pipeline as pipeline
    from marketstates.pipeline import _Run

    files = {name: tmp_path / name for name in ("small.bin", "large.bin", "locked.bin")}
    for size, path in enumerate(files.values(), start=1):
        path.write_bytes(bytes(range(256)) * 100 * size)
    paths = [files["small.bin"], files["large.bin"], tmp_path / "missing.bin", files["locked.bin"]]

    def refuses_the_locked_file(path):
        if Path(path).name == "locked.bin":
            raise PermissionError(f"cannot read {path}")
        return sha256_file(path)

    monkeypatch.setattr(pipeline, "sha256_file", refuses_the_locked_file)
    run = _Run(tmp_path, workers=2)
    run.prefetch(None, paths)  # one worker: nothing is read ahead
    assert run.digests == {}
    with ThreadPoolExecutor(2) as pool:
        run.prefetch(pool, paths)
        # every digest is taken by the time the call returns, the pool still open
        assert run.digests == {path: sha256_file(path)
                               for path in (files["small.bin"], files["large.bin"])}
        assert all(isinstance(value, str) for value in run.digests.values())


def count_calls(monkeypatch, name):
    """Count the calls of an ingest function, wherever the pipeline reaches it from."""
    import marketstates.ingest as ingest
    import marketstates.pipeline as pipeline

    calls = []
    real = getattr(ingest, name)

    def counting(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    for module in (ingest, pipeline):
        monkeypatch.setattr(module, name, counting)
    return calls


def test_cold_run_parses_prices_once_and_corr_reads_the_panel_file(market, tmp_path,
                                                                     monkeypatch):
    cfg = replace(market_config(market, tmp_path / "out"), events="")
    calls = count_calls(monkeypatch, "load_prices")
    reads = count_calls(monkeypatch, "load_panel")
    assert run_pipeline(cfg)[0] == 0
    assert len(calls) == 1  # ingest's parse of prices.csv
    assert reads == [tmp_path / "out" / "panel.npz"]  # corr's, with no text parsed


def test_ingest_rerun_that_writes_the_same_panel_skips_corr(tmp_path):
    data = write_market(tmp_path / "data")
    cfg = market_config(data, tmp_path / "out")
    assert run_pipeline(cfg)[0] == 0
    # a ticker with no prices: ingest reruns, drops it and writes the same panel.npz
    rows = (data / "prices.csv").read_text().splitlines()
    (data / "prices.csv").write_text("\n".join([rows[0] + ",GONE"] + [row + ","
                                                                     for row in rows[1:]]) + "\n")
    code, manifest = run_pipeline(cfg)
    assert code == 0
    statuses = {name: entry["status"] for name, entry in manifest["stages"].items()}
    assert statuses["ingest"] == "ok" and statuses["corr"] == "skipped"
    assert {name for name, status in statuses.items() if status != "skipped"} == {"ingest"}


def test_corr_stage_streams_its_archive_with_no_stack(tmp_path, peak_bytes):
    from types import MappingProxyType

    from marketstates.pipeline import _Run, _stage_corr, write_panel

    data = write_market(tmp_path / "data", n=100, n_days=160)
    out = tmp_path / "out"
    out.mkdir()
    run = _Run(out, workers=1)
    write_panel(data / "prices.csv", 2, out / "panel.npz")
    given = MappingProxyType({"window": 20, "shift": 1, "panel.npz": out / "panel.npz"})
    packed_bytes = 140 * (100 * 101 // 2) * 8  # 159 returns, window 20, shift 1: 5.66 MB
    # the stage reads panel.npz and writes each chunk of epochs to the archive
    # as it is computed: one chunk's buffers, never the packed stack
    assert peak_bytes(lambda: _stage_corr(given, run)) < 0.5 * packed_bytes
    assert load_arrays(out / "corr_raw.npz")["packed"].shape == (140, 100 * 101 // 2)


def test_rerun_over_deflated_archives_skips_every_stage(market, tmp_path, monkeypatch):
    import marketstates.corrmat as corrmat
    import marketstates.ingest as ingest
    import marketstates.pipeline as pipeline

    # an output tree whose .npz archives were deflated by the earlier writer
    cfg = market_config(market, tmp_path / "out")
    with monkeypatch.context() as patch:
        for module in (ingest, corrmat, pipeline):
            patch.setattr(module, "save_arrays", save_arrays_deflated)
        assert run_pipeline(cfg)[0] == 0
    archives = sorted((tmp_path / "out").glob("*.npz"))
    assert len(archives) == 4
    for archive in archives:
        with zipfile.ZipFile(archive) as zf:
            assert {i.compress_type for i in zf.infolist()} == {zipfile.ZIP_DEFLATED}

    code, manifest = run_pipeline(cfg)
    assert code == 0
    assert {entry["status"] for entry in manifest["stages"].values()} == {"skipped"}


def save_panel_csv(panel, path):
    """The text panel and sidecar that earlier versions wrote as panel.csv."""
    from marketstates.serialize import write_json

    path = Path(path)
    write_csv(path, ["date"] + panel.tickers,
              [[date, *column] for date, column in zip(panel.dates, panel.prices.T.tolist())])
    write_json(path.with_name(path.name + ".meta.json"), {
        "n_stocks": panel.n_stocks, "n_days": panel.n_days, "dropped": panel.dropped})


def load_panel_csv(path):
    """The reader of save_panel_csv's files: the price parser, no gap allowed, plus the sidecar."""
    from marketstates.ingest import ContinuityPolicy, load_prices

    panel = load_prices(path, ContinuityPolicy(max_consecutive_missing=0))
    panel.dropped = read_json(Path(str(path) + ".meta.json"))["dropped"]
    return panel


def test_rerun_over_a_tree_with_a_text_panel_asks_for_force(market, tmp_path, monkeypatch,
                                                            tree_diff):
    import marketstates.pipeline as pipeline

    old = tmp_path / "old"
    cfg = market_config(market, old)
    with monkeypatch.context() as patch:  # the earlier artifact: panel.csv, parsed by its readers
        patch.setattr(pipeline, "PANEL", "panel.csv")
        patch.setattr(pipeline, "_STAGES", tuple(
            stage._replace(inputs=tuple("panel.csv" if name == "panel.npz" else name
                                        for name in stage.inputs))
            for stage in pipeline._STAGES))
        patch.setattr(pipeline, "save_panel", save_panel_csv)
        patch.setattr(pipeline, "load_panel", load_panel_csv)
        assert run_pipeline(cfg)[0] == 0
    assert sorted(read_json(old / "manifest.json")["stages"]["ingest"]["outputs"]) == [
        "panel.csv", "panel.csv.meta.json"]

    # the ingest entry and its files are unchanged, so ingest is skipped, and
    # corr finds no panel.npz: a data error that names the file and the way out
    code, manifest = run_pipeline(cfg)
    assert code == 2
    assert manifest["stages"]["ingest"]["status"] == "skipped"
    corr = manifest["stages"]["corr"]
    assert corr["status"] == "failed"
    assert "panel.npz" in corr["error"] and "--force" in corr["error"]
    assert {manifest["stages"][name]["status"] for name in STAGES[2:]} == {"halted"}

    code, manifest = run_pipeline(cfg, force=True)
    assert code == 0
    fresh = tmp_path / "fresh"
    code, fresh_manifest = run_pipeline(replace(cfg, out_dir=str(fresh)))
    assert code == 0
    assert tree_diff(old, fresh, skip={"manifest.json", "panel.csv", "panel.csv.meta.json"}) == []
    for name, entry in manifest["stages"].items():
        same = ("status", "key", "inputs", "params", "outputs")
        assert {k: entry[k] for k in same} == {k: fresh_manifest["stages"][name][k] for k in same}

    code, manifest = run_pipeline(cfg)
    assert code == 0
    assert {entry["status"] for entry in manifest["stages"].values()} == {"skipped"}


def count_archive_reads(monkeypatch):
    """{stage: [loads of corr_raw.npz, packed bytes read from its file]} of each stage that runs."""
    import marketstates.corrmat as corrmat
    import marketstates.pipeline as pipeline

    counts, real_read_rows = {}, corrmat._read_rows

    def counting_load_arrays(path, names=None, in_place=()):
        if Path(path).name == "corr_raw.npz":
            counts[next(reversed(counts))][0] += 1
        return load_arrays(path, names, in_place)

    def counting_read_rows(fh, rows, path):
        real_read_rows(fh, rows, path)
        counts[next(reversed(counts))][1] += rows.nbytes

    def counted(stage):
        def run(c, r):
            counts[stage.name] = [0, 0]
            return stage.run(c, r)
        return stage._replace(run=run)

    monkeypatch.setattr(corrmat, "load_arrays", counting_load_arrays)
    monkeypatch.setattr(corrmat, "_read_rows", counting_read_rows)
    monkeypatch.setattr(pipeline, "_STAGES", tuple(map(counted, pipeline._STAGES)))
    return counts


def test_each_stage_that_runs_reads_the_epoch_archive_once(market, tmp_path, monkeypatch):
    counts = count_archive_reads(monkeypatch)
    cfg = market_config(market, tmp_path / "out")
    assert run_pipeline(cfg)[0] == 0
    stack = load_arrays(tmp_path / "out" / "corr_raw.npz")["packed"].nbytes
    # states: one pass for the column ranges, which the series keeps, one for
    # each of its 2 kernel calls (epsilon 0 and 0.5) and one for the state
    # averages; sectors: one pass for the sector series; rmt: labels
    assert counts == {"ingest": [0, 0], "corr": [0, 0], "states": [1, 4 * stack],
                      "sectors": [1, stack], "trajectory": [0, 0], "rmt": [1, 0]}
    counts.clear()
    assert run_pipeline(cfg)[0] == 0
    assert counts == {}

    cfg.k_range = [2, 3, 4]
    code, manifest = run_pipeline(cfg)
    assert code == 0
    again = [name for name in ("states", "sectors")
             if manifest["stages"][name]["status"] == "ok"]
    assert "states" in again
    want = {"states": [1, 4 * stack], "sectors": [1, stack]}
    assert counts == {name: want[name] for name in again}  # once in each stage that runs again


@pytest.mark.parametrize("grid, pinned", [
    ([0.0, 0.5], 0.0),       # the map's epsilon 0, the grid, the fit: two maps
    ([0.5, 0.9], -1.0),      # no 0 on the grid and the grid's optimum
    ([0.3, 0.6], 0.9),       # no 0 on the grid and a pinned epsilon off it
    ([0.0, 0.3, 0.6], 0.6),  # a pinned epsilon on the grid
])
def test_each_epsilon_map_is_built_once_per_run(market, tmp_path, monkeypatch, grid, pinned):
    from marketstates import geometry
    import marketstates.pipeline as pipeline

    cfg = market_config(market, tmp_path / "out")
    cfg.sectors, cfg.events = "", ""  # only the stock stack is embedded
    cfg.epsilon_grid, cfg.epsilon = grid, pinned
    stock_shape, n_epochs = (100, 8), 100
    kernel_calls, eigh_calls = [], []
    real_similarity, real_eigh = geometry.similarity_matrix, np.linalg.eigh

    def counting_similarity(series, workers=1, epsilon=0.0):
        kernel_calls.append((series.n_epochs, series.n_labels) == stock_shape)
        return real_similarity(series, workers, epsilon)

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


def test_rerun_with_only_a_new_k_range_reruns_states_and_matches_a_fresh_run(market, tmp_path,
                                                                           tree_diff):
    out = tmp_path / "out"
    cfg = market_config(market, out)
    assert run_pipeline(cfg)[0] == 0
    maps = {name: (out / name).read_bytes() for name in ("map_coords.csv", "map_meta.json")}
    cfg.k_range = [2, 3, 4]
    code, manifest = run_pipeline(cfg)
    assert code == 0
    statuses = {name: entry["status"] for name, entry in manifest["stages"].items()}
    assert statuses["ingest"] == statuses["corr"] == "skipped" and statuses["states"] == "ok"
    assert {name: (out / name).read_bytes() for name in maps} == maps

    fresh = tmp_path / "fresh"
    assert run_pipeline(replace(cfg, out_dir=str(fresh)))[0] == 0
    assert tree_diff(out, fresh, skip={"manifest.json"}) == []


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
    assert statuses["sectors"] == "ok"  # only the sectors stage reads the sector map
    assert {name for name, status in statuses.items() if status != "skipped"} == {"sectors"}

    fresh = tmp_path / "fresh"
    assert run_pipeline(market_config(data, fresh))[0] == 0
    for name in ("sector_model.json", "sector_model_avg_corr.npz", "displacement.json"):
        assert (out / name).read_bytes() == (fresh / name).read_bytes(), name


def test_sector_map_missing_a_kept_ticker_fails_the_sectors_stage(tmp_path):
    data = write_market(tmp_path / "data")
    rows = (data / "sectors.csv").read_text().splitlines()
    (data / "sectors.csv").write_text("\n".join(r for r in rows if not r.startswith("S03,")) + "\n")
    code, manifest = run_pipeline(market_config(data, tmp_path / "out"))
    assert code == 2
    statuses = {name: entry["status"] for name, entry in manifest["stages"].items()}
    assert statuses["states"] == "ok" and statuses["sectors"] == "failed"
    assert statuses["trajectory"] == statuses["rmt"] == "halted"
    assert manifest["stages"]["sectors"]["error"] == "1 stock(s) with no sector assignment: S03"


def test_deleted_output_triggers_rerun(market, tmp_path, tree_diff):
    import shutil

    for workers in (1, 2):
        out = tmp_path / f"out-{workers}"
        cfg = market_config(market, out)
        assert run_pipeline(cfg, workers=workers)[0] == 0
        shutil.copytree(out, tmp_path / f"cold-{workers}")
        # a rerun on 2 workers reads the prior outputs ahead, the deleted one among them
        for deleted, stage in (("rmt_report.json", "rmt"), ("map_meta.json", "states")):
            (out / deleted).unlink()
            code, manifest = run_pipeline(cfg, workers=workers)
            assert code == 0
            statuses = {name: entry["status"] for name, entry in manifest["stages"].items()}
            assert {name for name, status in statuses.items() if status != "skipped"} == {stage}
            assert statuses[stage] == "ok"
            assert tree_diff(out, tmp_path / f"cold-{workers}", skip=("manifest.json",)) == []


def test_refit_with_fewer_states_leaves_the_tree_of_a_fresh_run(tmp_path, tree_diff):
    from marketstates.demo import demo_config

    out, fresh = tmp_path / "out", tmp_path / "fresh"
    cfg = demo_config(out)
    assert (cfg.k, cfg.sector_k) == (2, 2)
    assert run_pipeline(replace(cfg, k=4, sector_k=3))[0] == 0
    assert (out / "states_state_avg_corr_S4.csv").exists()
    assert (out / "sectors_state_avg_corr_S3.csv").exists()
    code, manifest = run_pipeline(cfg)
    assert code == 0
    assert run_pipeline(demo_config(fresh))[0] == 0
    assert tree_diff(out, fresh, skip={"manifest.json"}) == []
    # the manifest lists every file of the tree but the inputs and itself
    listed = {rel for entry in manifest["stages"].values() for rel in entry["outputs"]}
    tree = {p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file()}
    assert listed == {rel for rel in tree - {"manifest.json"} if not rel.startswith("demo_data/")}


@pytest.mark.parametrize("text", ["[]", '{"stages": []}', '{"stages": {"ingest": 3}}',
                                  '{"stages": {"ingest": {"outputs": ["panel.npz"]}}}',
                                  '{"stages": {"ingest": {"inputs": ["prices.csv"]}}}',
                                  '{"stages": {"ingest": {"status": "ok", "params": 3}}}'],
                         ids=["list", "stages_list", "entry_number", "outputs_list",
                              "inputs_list", "params_number"])
def test_a_manifest_that_is_not_an_object_of_stage_objects_asks_for_force(market, tmp_path,
                                                                          monkeypatch, text):
    import marketstates.pipeline as pipeline

    hashed = []
    monkeypatch.setattr(pipeline, "sha256_file", lambda path: hashed.append(path) or "")
    out = tmp_path / "out"
    out.mkdir()
    (out / "manifest.json").write_text(text)
    cfg = market_config(market, out)
    for workers in (1, 2):
        with pytest.raises(DataError, match=r"manifest\.json is not a manifest of stage objects; "
                                            "rerun with --force"):
            run_pipeline(cfg, workers=workers)
    assert hashed == []
    monkeypatch.undo()
    assert [p.name for p in out.iterdir()] == ["manifest.json"]
    assert run_pipeline(cfg, force=True)[0] == 0


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


def test_run_demo_rejects_a_worker_count_below_one_before_writing(tmp_path):
    from marketstates.demo import run_demo

    with pytest.raises(ValueError, match="workers must be >= 1, got 0"):
        run_demo(tmp_path, workers=0)
    assert list(tmp_path.iterdir()) == []


def test_demo_keeps_its_pinned_states_choice_and_classifications(tmp_path):
    # recorded from the demo before the grid's and the fits' 3-axis maps of its
    # 300 epochs moved from a full eigendecomposition to Lanczos; a numerical
    # change that moves any of these is a change of results, not of digits
    import hashlib
    import json

    from marketstates.demo import run_demo

    code, _ = run_demo(tmp_path)
    assert code == 0
    assert read_json(tmp_path / "selected.json") == {
        "fitted": {"epsilon": 0.5, "k": 2, "pinned": True},
        "grid_optimum": {"epsilon": 0.0, "k": 2, "k_min": 2}}
    states = "2f4ea3e1a49e3fc8998ce74f2d63ecfc365139c10949153276724fa98af3ada0"
    for name in ("model.json", "sector_model.json"):
        state_of = read_json(tmp_path / name)["state_of"]
        assert len(state_of) == 300
        assert hashlib.sha256(json.dumps(state_of).encode()).hexdigest() == states
    report = read_json(tmp_path / "trajectory_report.json")
    assert [(e["name"], e["classification"]) for e in report["events"]] == [
        ("planted crash", "CRITICAL"), ("quiet stretch", "NORMAL")]
    assert report["failures"] == {}


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
    for name in STAGES[1:]:
        assert manifest["stages"][name]["status"] == "halted"
    assert (out / "manifest.json").exists()  # manifest still written


def test_an_output_that_cannot_be_written_is_a_data_error(market, tmp_path, capsys):
    out = tmp_path / "out"
    (out / "corr_raw.npz").mkdir(parents=True)  # the corr stage's output path
    code, manifest = run_pipeline(market_config(market, out))
    assert code == 2
    assert "Traceback" not in capsys.readouterr().err
    stages = manifest["stages"]
    assert stages["ingest"]["status"] == "ok"
    assert stages["corr"]["status"] == "failed"
    assert stages["corr"]["error"].startswith("[Errno ")  # str(exc), no type prefix
    assert "corr_raw.npz" in stages["corr"]["error"]
    for name in STAGES[2:]:
        assert stages[name]["status"] == "halted"


@pytest.mark.parametrize("key, value, stage, first_output, message", [
    ("k_range", [2, 3, 500], "states", "map_coords.csv", "k must be in 1..100"),
    ("k", 500, "states", "map_coords.csv", "k must be in 1..100"),
    ("mds_dim", 100, "states", "map_coords.csv", "map dimension D must be in 1..99"),
    ("sector_k", 400, "sectors", "sector_model.json", "k must be in 1..100"),
], ids=["k_range", "k", "mds_dim", "sector_k"])
def test_a_config_value_the_epoch_archive_cannot_take_is_a_data_error(
        market, tmp_path, capsys, key, value, stage, first_output, message):
    # only the archive's epoch count can tell: the stage checks it before its first write
    out = tmp_path / "out"
    code, manifest = run_pipeline(replace(market_config(market, out), **{key: value}))
    assert code == 2
    assert "Traceback" not in capsys.readouterr().err
    stages = manifest["stages"]
    got = value[-1] if isinstance(value, list) else value
    assert stages[stage] == {"status": "failed",
                             "error": f"config {key}: {message} for 100 epochs, got {got}"}
    assert not (out / first_output).exists()
    later = STAGES[STAGES.index(stage) + 1:]
    assert {stages[name]["status"] for name in later} == {"halted"}


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
    for name in STAGES[1:]:
        assert manifest["stages"][name]["status"] == "halted"
    assert not (out / "corr_raw.npz").exists()


@pytest.mark.parametrize("bad, message", [
    pytest.param({"window": 1}, "config window/shift: window must be >= 2, got 1", id="window"),
    pytest.param({"shift": 0}, "config window/shift: shift must be >= 1, got 0", id="shift"),
    pytest.param({"mds_dim": 0}, "config mds_dim: must be >= 1, got 0", id="mds_dim"),
    pytest.param({"k_range": [0, 2]}, "config k_range: must be >= 1, got 0", id="k_range"),
    pytest.param({"epsilon_grid": [-0.5, 0.0]},
                 "config epsilon_grid: epsilon must be >= 0, got -0.5", id="epsilon_grid"),
    pytest.param({"rmt_bins": 0}, "config rmt_bins: must be >= 1, got 0", id="rmt_bins"),
    pytest.param({"rmt_realizations": 0}, "config rmt_realizations: must be >= 1, got 0",
                 id="rmt_realizations"),
    pytest.param({"seed": -1}, "config seed: must be >= 0, got -1", id="seed"),
    pytest.param({"max_gap": -1},
                 "config max_gap: the longest allowed gap must be >= 0, got -1", id="max_gap"),
    pytest.param({"width_days": 44},
                 "config width_days: width must be an odd number of price days >= 3, got 44",
                 id="width_days"),
    pytest.param({"width_days": 1}, "config width_days: width must be an odd number",
                 id="width_days_short"),
    pytest.param({"trajectory_epsilon": -0.5},
                 "config trajectory_epsilon: epsilon must be >= 0, got -0.5",
                 id="trajectory_epsilon"),
    pytest.param({"epsilon_grid": [0.0, math.nan]},
                 "config epsilon_grid: epsilon must be finite, got nan", id="epsilon_grid_nan"),
    pytest.param({"epsilon": math.nan}, "config epsilon: must be finite, got nan",
                 id="epsilon_nan"),
    pytest.param({"sector_epsilon": math.inf}, "config sector_epsilon: must be finite, got inf",
                 id="sector_epsilon_inf"),
    pytest.param({"threshold": math.nan}, "config threshold: must be finite, got nan",
                 id="threshold_nan"),
    pytest.param({"trajectory_epsilon": math.nan},
                 "config trajectory_epsilon: must be finite, got nan", id="trajectory_epsilon_nan"),
    pytest.param({"k": -3}, "config k: must be >= 0, got -3", id="k"),
    pytest.param({"sector_k": -1}, "config sector_k: must be >= 0, got -1", id="sector_k"),
    pytest.param({"n_inits": 1}, "config n_inits: must be >= 2, got 1", id="n_inits"),
    pytest.param({"k_range": []}, "config k_range: must be non-empty", id="k_range_empty"),
    pytest.param({"epsilon_grid": []}, "config epsilon_grid: must be non-empty",
                 id="epsilon_grid_empty"),
    pytest.param({"k_min": 9}, "config k_min: 9 exceeds every k in k_range [2, 3]",
                 id="k_min"),
    pytest.param({"k_range": [2, 3, 3]}, "config k_range: k_range lists 3 more than once",
                 id="k_range_repeated"),
    pytest.param({"epsilon_grid": [0.0, 0.0]},
                 "config epsilon_grid: epsilon_grid lists 0.0 more than once",
                 id="epsilon_grid_repeated"),
])
def test_config_error_fails_before_any_stage(market, tmp_path, bad, message):
    out = tmp_path / "out"
    with pytest.raises(DataError, match=re.escape(message)):
        run_pipeline(replace(market_config(market, out), **bad))
    assert not out.exists()


def test_unexpected_error_still_writes_manifest(market, tmp_path, monkeypatch, capsys):
    import marketstates.pipeline as pipeline

    def out_of_memory(returns, spec, path):
        raise MemoryError("stack does not fit")

    monkeypatch.setattr(pipeline, "save_epoch_correlations", out_of_memory)
    out = tmp_path / "out"
    code, manifest = run_pipeline(market_config(market, out))
    assert code == 1
    stages = manifest["stages"]
    assert stages["ingest"]["status"] == "ok"
    assert stages["corr"] == {"status": "failed", "error": "MemoryError: stack does not fit"}
    for name in STAGES[STAGES.index("corr") + 1:]:
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


def test_each_stage_records_and_reads_only_its_declared_keys(market, tmp_path):
    import inspect

    import marketstates.pipeline as pipeline

    # every stage runs, each on a mapping that raises KeyError on an undeclared key
    code, manifest = run_pipeline(market_config(market, tmp_path / "out"))
    assert code == 0
    declared = {stage.name: stage.keys for stage in pipeline._STAGES}
    assert tuple(declared) == STAGES
    for name, keys in declared.items():
        assert manifest["stages"][name]["status"] == "ok"
        assert list(manifest["stages"][name]["params"]) == list(keys)
    # every config field is a path or some stage's key, so every one can reach a stage's hash
    assert {f.name for f in fields(PipelineConfig)} == (
        set(PipelineConfig._PATHS) | {key for keys in declared.values() for key in keys})
    stage_functions = [value for name, value in vars(pipeline).items()
                       if name.startswith("_stage_") and inspect.isfunction(value)]
    assert {stage.run for stage in pipeline._STAGES} <= set(stage_functions)
    for function in stage_functions:
        assert "cfg" not in inspect.signature(function).parameters, function.__name__


def test_manifest_names_configured_paths_by_where_they_resolve(market, tmp_path):
    # lexically under out_dir but resolving outside it, and the reverse
    out = tmp_path / "out"
    (out / "sub").mkdir(parents=True)
    (out / "events.csv").write_bytes((market / "events.csv").read_bytes())
    outside = str(out / ".." / ".." / market.parent.name / market.name / "prices.csv")
    cfg = replace(market_config(market, out), prices=outside,
                  events=str(out / "sub" / ".." / "events.csv"))
    code, manifest = run_pipeline(cfg)
    assert code == 0
    assert manifest["config"]["prices"] == outside
    assert manifest["config"]["events"] == "events.csv"
    assert outside in manifest["stages"]["ingest"]["inputs"]
    assert "events.csv" in manifest["stages"]["trajectory"]["inputs"]


def test_rerun_resolves_each_configured_path_once(market, tmp_path, monkeypatch):
    cfg = market_config(market, tmp_path / "out")
    assert run_pipeline(cfg)[0] == 0
    calls = []
    resolve = Path.resolve

    def counting(self, *args, **kwargs):
        calls.append(self)
        return resolve(self, *args, **kwargs)

    monkeypatch.setattr(Path, "resolve", counting)
    assert run_pipeline(cfg)[0] == 0
    # the output dir, then prices, sectors, events and out_dir
    assert calls == [Path(cfg.out_dir)] + [Path(p) for p in
                                           (cfg.prices, cfg.sectors, cfg.events, cfg.out_dir)]


def test_rmt_report_checks_bins_before_sampling(monkeypatch):
    import marketstates.pipeline as pipeline

    def sampling(*args, **kwargs):
        raise AssertionError("sampled the ensemble")

    monkeypatch.setattr(pipeline, "pooled_eigenvalues", sampling)
    with pytest.raises(ValueError, match="bins must be >= 1, got 0"):
        pipeline.rmt_report_payload(WishartSpec(N=200, T=800, ensemble_size=50), bins=0)
