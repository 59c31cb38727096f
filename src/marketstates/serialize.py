"""Deterministic artifact I/O: JSON, CSV, npz archives, and content hashes.

Every writer here is byte-stable: identical in-memory objects produce
identical files regardless of when or where they are written (np.savez is
avoided because it embeds zip timestamps).  Floats go through repr, so a
read-back is bit-exact.
"""

from __future__ import annotations

import hashlib
import json
import zipfile
from pathlib import Path

import numpy as np

from .errors import DataError

_EPOCH_STAMP = (1980, 1, 1, 0, 0, 0)  # fixed zip timestamp


def format_float(value) -> str:
    return repr(float(value))


def sha256_file(path: str | Path) -> str:
    digest = hashlib.sha256()
    with Path(path).open("rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def write_json(path: str | Path, payload) -> None:
    with Path(path).open("w", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_json(path: str | Path):
    path = Path(path)
    try:
        return json.loads(path.read_text())
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"{path} is not valid JSON: {exc}") from exc


def _cell(value) -> str:
    if type(value) is float:  # the common case: repr without a float() round trip
        return repr(value)
    if type(value) is str:  # a cell formatted already
        return value
    if isinstance(value, (float, np.floating)):
        return format_float(value)
    return str(value)


def write_csv(path: str | Path, header: list[str], rows) -> None:
    """Plain CSV with a header row; floats via repr, everything else via str."""
    with Path(path).open("w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(map(_cell, row)) + "\n")


def save_arrays(path: str | Path, **arrays) -> None:
    """npz-compatible archive with fixed timestamps (byte-stable across runs).

    Members are stored, not deflated: correlation stacks barely compress, and
    deflate cost far more than the bytes it saved.  Each array streams into
    its member without an in-memory copy of the file, and a C-contiguous
    array of plain numbers, strings or bools is written from its own buffer,
    with the bytes ``np.lib.format.write_array`` would write.
    """
    with zipfile.ZipFile(Path(path), "w", compression=zipfile.ZIP_STORED) as zf:
        for name in sorted(arrays):
            array = np.asarray(arrays[name])
            info = zipfile.ZipInfo(f"{name}.npy", date_time=_EPOCH_STAMP)
            # zipfile's own rule for a member whose size it knows up front; the
            # .npy header adds well under 64 KiB
            zip64 = (array.nbytes + (1 << 16)) * 1.05 > zipfile.ZIP64_LIMIT
            with zf.open(info, "w", force_zip64=zip64) as member:
                _write_npy(member, array)


def _write_npy(member, array: np.ndarray) -> None:
    """One .npy file into an open archive member.

    ``write_array`` copies the data through ``tobytes`` chunks of up to
    16 MiB, so a whole epoch stack of that size; an array whose buffer is
    already the file's data layout is written as it is.  Such a dtype's
    header always fits format 1.0, the version write_array tries first.
    """
    if array.flags.c_contiguous and array.dtype.kind in "?biufcSU":
        np.lib.format.write_array_header_1_0(
            member, np.lib.format.header_data_from_array_1_0(array))
        member.write(array.reshape(-1).view(np.uint8))
    else:
        np.lib.format.write_array(member, array, allow_pickle=False)


def load_arrays(path: str | Path, names: list[str] | None = None) -> dict[str, np.ndarray]:
    """Every array of an archive, or only the members ``names``, which are all that is read."""
    path = Path(path)
    try:
        with np.load(path, allow_pickle=False) as archive:
            return {name: archive[name] for name in (archive.files if names is None else names)}
    except KeyError as exc:  # a name not in the archive
        raise DataError(f"{path}: {exc.args[0]}") from exc
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    except (ValueError, zipfile.BadZipFile) as exc:
        raise DataError(f"{path} is not a readable array archive: {exc}") from exc


def _avg_corr_sidecar(path: Path) -> Path:
    return path.with_name(path.stem + "_avg_corr.npz")


def save_state_model(model, path: str | Path) -> list[Path]:
    """State model as JSON plus an array sidecar for the average matrices.

    The JSON holds everything scalar or label-like; the per-state average
    correlation matrices go to ``<stem>_avg_corr.npz`` next to it.  Returns
    the paths written.
    """
    path = Path(path)
    write_json(
        path,
        {
            "k": model.k,
            "epsilon": model.epsilon,
            "state_of": [int(s) for s in model.state_of],
            "state_mean_corr": [float(v) for v in model.state_mean_corr],
            "transition_counts": [[int(c) for c in row] for row in model.transition_counts],
            "labels": list(model.labels),
            "epoch_dates": list(model.epoch_dates),
        },
    )
    if not model.avg_corr_matrix:
        return [path]
    sidecar = _avg_corr_sidecar(path)
    save_arrays(sidecar, avg_corr=np.stack(model.avg_corr_matrix))
    return [path, sidecar]


def load_state_model(path: str | Path):
    from .states import StateModel

    path = Path(path)
    raw = read_json(path)
    try:
        sidecar = _avg_corr_sidecar(path)
        averages = []
        if sidecar.exists():
            averages = list(load_arrays(sidecar)["avg_corr"])
        return StateModel(
            k=int(raw["k"]),
            epsilon=float(raw["epsilon"]),
            state_of=np.array(raw["state_of"], dtype=int),
            state_mean_corr=[float(v) for v in raw["state_mean_corr"]],
            avg_corr_matrix=averages,
            transition_counts=np.array(raw["transition_counts"], dtype=int),
            labels=list(raw["labels"]),
            epoch_dates=list(raw["epoch_dates"]),
        )
    except KeyError as exc:
        raise DataError(f"{path} is missing state-model field {exc}") from exc
