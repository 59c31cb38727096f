"""Deterministic artifact I/O: JSON, CSV, npz archives, and content hashes.

Every writer here is byte-stable: identical in-memory objects produce
identical files regardless of when or where they are written (np.savez is
avoided because it embeds zip timestamps).  Floats go through repr, so a
read-back is bit-exact.  This module knows formats, not domain types: the
files of a fitted state model are written by ``pipeline.write_fit`` and its
``model.json`` is read by ``pipeline.read_state_of``.
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
    """Hex sha256 of a file, read through one reused 256 KB buffer."""
    digest = hashlib.sha256()
    buffer = bytearray(1 << 18)
    view = memoryview(buffer)
    with Path(path).open("rb", buffering=0) as fh:
        while size := fh.readinto(buffer):
            digest.update(view[:size])
    return digest.hexdigest()


def write_json(path: str | Path, payload) -> None:
    """Strict JSON: a NaN or infinite float raises ValueError before the file is opened."""
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    with Path(path).open("w", newline="\n") as fh:
        fh.write(text + "\n")


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


def check_csv_names(names, kind: str, source) -> None:
    """DataError naming the first name with a comma, quote or line break; CSVs here are unquoted."""
    for name in names:
        if any(c in name for c in ',"\r\n'):
            raise DataError(f"{source}: {kind} {name!r} contains a comma, quote or line break")


def write_csv(path: str | Path, header: list[str], rows) -> None:
    """Plain CSV with a header row, nothing quoted; floats via repr, everything else via str."""
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
    with the bytes ``np.lib.format.write_array`` would write.  If a member
    fails to write, the file is removed.
    """
    path = Path(path)
    zf = zipfile.ZipFile(path, "w", compression=zipfile.ZIP_STORED)
    try:
        with zf:
            for name in sorted(arrays):
                array = np.asarray(arrays[name])
                info = zipfile.ZipInfo(f"{name}.npy", date_time=_EPOCH_STAMP)
                # zipfile's own rule for a member whose size it knows up front;
                # the .npy header adds well under 64 KiB
                zip64 = (array.nbytes + (1 << 16)) * 1.05 > zipfile.ZIP64_LIMIT
                with zf.open(info, "w", force_zip64=zip64) as member:
                    _write_npy(member, array)
    except BaseException:  # a member that fails leaves no truncated archive
        path.unlink(missing_ok=True)
        raise


def _write_npy(member, array) -> None:
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
        archive = np.load(path, allow_pickle=False)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    except (ValueError, EOFError, zipfile.BadZipFile) as exc:  # text, empty or truncated
        raise DataError(f"{path} is not an array archive") from exc
    if not isinstance(archive, np.lib.npyio.NpzFile):
        raise DataError(f"{path} is a single .npy array, not an array archive")
    try:
        with archive:
            return {name: archive[name] for name in (archive.files if names is None else names)}
    except KeyError as exc:  # a name not in the archive
        raise DataError(f"{path}: {exc.args[0]}") from exc
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    except (ValueError, zipfile.BadZipFile) as exc:
        raise DataError(f"{path} is not a readable array archive: {exc}") from exc

