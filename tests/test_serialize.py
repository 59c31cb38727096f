"""Deterministic artifact I/O: byte stability, round trips, error wrapping."""

import io
import json
import zipfile

import numpy as np
import pytest

from marketstates.errors import DataError
from marketstates.serialize import (
    format_float,
    load_arrays,
    load_state_model,
    read_json,
    save_arrays,
    save_state_model,
    sha256_file,
    write_csv,
    write_json,
)
from marketstates.states import StateModel


def test_format_float_survives_round_trip():
    values = [0.1, 1 / 3, 1e-17, -2.5e300, 0.0, float(np.float64(0.30000000000000004))]
    for v in values:
        assert float(format_float(v)) == v


def test_write_json_is_byte_stable_and_sorted(tmp_path):
    payload = {"b": [1, 2], "a": {"z": 0.1, "y": None}}
    p1, p2 = tmp_path / "one.json", tmp_path / "two.json"
    write_json(p1, payload)
    write_json(p2, {"a": {"y": None, "z": 0.1}, "b": [1, 2]})  # same content, other order
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_text().startswith('{\n  "a"')  # keys sorted
    assert read_json(p1) == payload


def test_read_json_wraps_errors(tmp_path):
    with pytest.raises(DataError, match="cannot read"):
        read_json(tmp_path / "absent.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(DataError, match="not valid JSON"):
        read_json(bad)


def test_write_csv_floats_are_lossless(tmp_path):
    path = tmp_path / "rows.csv"
    rows = [(1, "d0001", 0.1 + 0.2), (2, "d0002", np.float64(1 / 3))]
    write_csv(path, ["epoch", "date", "value"], rows)
    lines = path.read_text().splitlines()
    assert lines[0] == "epoch,date,value"
    for line, (_, _, value) in zip(lines[1:], rows):
        assert float(line.split(",")[2]) == float(value)


def test_save_arrays_round_trip_and_byte_identity(tmp_path):
    rng = np.random.default_rng(7)
    arrays = {
        "values": rng.standard_normal((4, 3, 3)),
        "labels": np.array(["aa", "bb", "cc"]),
        "epsilon": np.array(0.5),
    }
    p1, p2 = tmp_path / "one.npz", tmp_path / "two.npz"
    save_arrays(p1, **arrays)
    save_arrays(p2, **arrays)
    assert p1.read_bytes() == p2.read_bytes()  # no timestamps inside

    back = load_arrays(p1)
    assert sorted(back) == sorted(arrays)
    for name in arrays:
        np.testing.assert_array_equal(back[name], np.asarray(arrays[name]))
    assert back["values"].dtype == np.float64


def save_arrays_via_write_array(path, **arrays):
    """The stored-member writer that puts every array through np.lib.format.write_array."""
    with zipfile.ZipFile(path, "w", compression=zipfile.ZIP_STORED) as zf:
        for name in sorted(arrays):
            array = np.asarray(arrays[name])
            info = zipfile.ZipInfo(f"{name}.npy", date_time=(1980, 1, 1, 0, 0, 0))
            zip64 = (array.nbytes + (1 << 16)) * 1.05 > zipfile.ZIP64_LIMIT
            with zf.open(info, "w", force_zip64=zip64) as member:
                np.lib.format.write_array(member, array, allow_pickle=False)


def _member_cases():
    rng = np.random.default_rng(9)
    return {
        "float_stack": rng.standard_normal((5, 4, 4)),
        "float_scalar": np.array(0.25),
        "int64_vector": np.arange(-3, 9, dtype=np.int64),
        "labels": np.array(["a", "bbb", "2020-01-02"]),
        "bools": np.array([[True, False, True], [False, False, True]]),
        "strided_view": rng.standard_normal((6, 8))[::2, 1:6],
        "fortran_order": np.asfortranarray(rng.standard_normal((3, 7))),
        "empty_stack": np.empty((0, 3, 3)),
    }


@pytest.mark.parametrize("case", sorted(_member_cases()))
def test_save_arrays_bytes_match_the_write_array_writer(tmp_path, case):
    array = _member_cases()[case]
    got, want = tmp_path / "got.npz", tmp_path / "want.npz"
    save_arrays(got, values=array)
    save_arrays_via_write_array(want, values=array)
    assert got.read_bytes() == want.read_bytes()
    assert load_arrays(got)["values"].tobytes() == np.ascontiguousarray(array).tobytes()


def test_save_arrays_archive_of_mixed_members_matches_the_write_array_writer(tmp_path):
    arrays = _member_cases()
    save_arrays(tmp_path / "got.npz", **arrays)
    save_arrays_via_write_array(tmp_path / "want.npz", **arrays)
    assert (tmp_path / "got.npz").read_bytes() == (tmp_path / "want.npz").read_bytes()


def test_save_arrays_writes_a_stack_from_its_own_buffer(tmp_path, peak_bytes):
    stack = np.random.default_rng(10).standard_normal((40, 60, 60))
    # write_array would copy the whole 1.15 MB stack through tobytes
    assert peak_bytes(lambda: save_arrays(tmp_path / "s.npz", values=stack)) < 0.1 * stack.nbytes
    assert load_arrays(tmp_path / "s.npz")["values"].tobytes() == stack.tobytes()


def save_arrays_deflated(path, **arrays):
    """The earlier archive writer: deflated members, fixed timestamps."""
    with zipfile.ZipFile(path, "w", compression=zipfile.ZIP_DEFLATED) as zf:
        for name in sorted(arrays):
            buffer = io.BytesIO()
            np.lib.format.write_array(buffer, np.asarray(arrays[name]), allow_pickle=False)
            info = zipfile.ZipInfo(f"{name}.npy", date_time=(1980, 1, 1, 0, 0, 0))
            info.compress_type = zipfile.ZIP_DEFLATED
            zf.writestr(info, buffer.getvalue())


def sample_arrays():
    rng = np.random.default_rng(5)
    return {
        "values": rng.standard_normal((6, 4, 4)),
        "labels": np.array(["a", "bb", "ccc", "dddd"]),
        "start_dates": np.array([f"2020-01-{d + 1:02d}" for d in range(6)]),
        "epsilon": np.array(0.25),
        "counts": np.arange(12, dtype=np.int32).reshape(3, 4),
    }


def test_save_arrays_stores_members_uncompressed(tmp_path):
    arrays = sample_arrays()
    path = tmp_path / "stack.npz"
    save_arrays(path, **arrays)
    with zipfile.ZipFile(path) as zf:
        infos = zf.infolist()
    assert [info.filename for info in infos] == [f"{name}.npy" for name in sorted(arrays)]
    for info in infos:
        assert info.compress_type == zipfile.ZIP_STORED
        assert info.compress_size == info.file_size
        assert info.date_time == (1980, 1, 1, 0, 0, 0)
    again = tmp_path / "again.npz"
    save_arrays(again, **load_arrays(path))
    assert again.read_bytes() == path.read_bytes()  # write -> read -> write is byte-stable


def test_load_arrays_reads_deflated_archives(tmp_path):
    arrays = sample_arrays()
    path = tmp_path / "old.npz"
    save_arrays_deflated(path, **arrays)
    with zipfile.ZipFile(path) as zf:
        assert {info.compress_type for info in zf.infolist()} == {zipfile.ZIP_DEFLATED}
    back = load_arrays(path)
    assert sorted(back) == sorted(arrays)
    for name, want in arrays.items():
        assert back[name].dtype == want.dtype
        assert back[name].tobytes() == want.tobytes()


def test_save_arrays_marks_large_members_zip64(tmp_path, monkeypatch):
    # a member past zipfile's 2 GiB limit needs zip64 headers, which a streamed
    # member only gets when asked up front; shrink the limit to test that path
    monkeypatch.setattr(zipfile, "ZIP64_LIMIT", 4096)
    big = np.arange(1024.0)
    path = tmp_path / "big.npz"
    save_arrays(path, big=big, small=np.array(1.5))
    back = load_arrays(path)
    assert back["big"].tobytes() == big.tobytes() and float(back["small"]) == 1.5


def test_load_arrays_wraps_errors(tmp_path):
    with pytest.raises(DataError, match="cannot read"):
        load_arrays(tmp_path / "absent.npz")
    junk = tmp_path / "junk.npz"
    junk.write_bytes(b"this is not a zip archive")
    with pytest.raises(DataError):
        load_arrays(junk)


def test_load_arrays_reads_only_the_named_members(tmp_path):
    path = tmp_path / "a.npz"
    save_arrays(path, **sample_arrays())
    back = load_arrays(path, names=["labels"])
    assert list(back) == ["labels"]
    assert back["labels"].tobytes() == sample_arrays()["labels"].tobytes()
    with pytest.raises(DataError, match="absent"):
        load_arrays(path, names=["absent"])


def test_write_csv_bytes_match_per_cell_formatting(tmp_path):
    rows = [
        (1, "a", 0.1 + 0.2, np.float64(1 / 3), np.float32(0.1), True),
        (np.int64(2), "b", 1e300, np.float64(-0.0), np.float32(2.5), None),
        [3, "c"] + np.array([1e-300, 2.0]).tolist() + [np.float16(0.5), 7],
    ]
    path = tmp_path / "rows.csv"
    write_csv(path, ["i", "s", "x", "y", "z", "w"], rows)
    want = ["i,s,x,y,z,w"] + [
        ",".join(format_float(c) if isinstance(c, (float, np.floating)) else str(c)
                 for c in row)
        for row in rows
    ]
    assert path.read_text() == "\n".join(want) + "\n"


def test_sha256_file_matches_content_not_name(tmp_path):
    a, b = tmp_path / "a.bin", tmp_path / "b.bin"
    a.write_bytes(b"payload")
    b.write_bytes(b"payload")
    assert sha256_file(a) == sha256_file(b)
    b.write_bytes(b"payload!")
    assert sha256_file(a) != sha256_file(b)


def toy_model(k=2, n_epochs=5, with_averages=True):
    rng = np.random.default_rng(3)
    averages = [rng.standard_normal((3, 3)) for _ in range(k)] if with_averages else []
    return StateModel(
        k=k,
        epsilon=0.5,
        state_of=np.array([1, 1, 2, 2, 1]),
        state_mean_corr=[0.2, 0.8],
        avg_corr_matrix=averages,
        transition_counts=np.array([[1, 1], [1, 1]]),
        labels=["x", "y", "z"],
        epoch_dates=[f"d{i}" for i in range(n_epochs)],
    )


def test_state_model_round_trip(tmp_path):
    model = toy_model()
    path = tmp_path / "model.json"
    save_state_model(model, path)
    assert (tmp_path / "model_avg_corr.npz").exists()
    back = load_state_model(path)
    assert back.k == model.k and back.epsilon == model.epsilon
    np.testing.assert_array_equal(back.state_of, model.state_of)
    assert back.state_mean_corr == model.state_mean_corr
    np.testing.assert_array_equal(back.transition_counts, model.transition_counts)
    assert back.labels == model.labels and back.epoch_dates == model.epoch_dates
    for got, want in zip(back.avg_corr_matrix, model.avg_corr_matrix):
        np.testing.assert_array_equal(got, want)


def test_state_model_without_sidecar(tmp_path):
    path = tmp_path / "model.json"
    save_state_model(toy_model(with_averages=False), path)
    assert not (tmp_path / "model_avg_corr.npz").exists()
    assert load_state_model(path).avg_corr_matrix == []


def test_state_model_missing_field_is_data_error(tmp_path):
    path = tmp_path / "model.json"
    save_state_model(toy_model(), path)
    raw = json.loads(path.read_text())
    del raw["transition_counts"]
    path.write_text(json.dumps(raw))
    with pytest.raises(DataError, match="missing state-model field"):
        load_state_model(path)
