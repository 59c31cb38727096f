"""Deterministic artifact I/O: JSON, CSV, npz archives, and content hashes.

Every writer here is byte-stable: identical in-memory objects produce
identical files regardless of when or where they are written (np.savez is
avoided because it embeds zip timestamps).  Floats go through repr, so a
read-back is bit-exact.  An archive is written under a temporary name and
renamed into place once complete, and a member given as a ``ChunkedArray``
is written one chunk at a time, so that no writer needs the whole array.
This module knows formats, not domain types: the files of a fitted state
model are written by ``pipeline.write_fit`` and its ``model.json`` is read
by ``pipeline.read_state_of``.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
import zipfile
from collections.abc import Iterable
from dataclasses import dataclass
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
    with Path(path).open("w", newline="\n", encoding="utf-8") as fh:
        fh.write(text + "\n")


def read_json(path: str | Path):
    """The JSON value of a UTF-8 file; a file that cannot be read or decoded is a DataError."""
    path = Path(path)
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as exc:
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
    """Plain UTF-8 CSV with a header row, nothing quoted; floats via repr, the rest via str."""
    with Path(path).open("w", newline="\n", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(map(_cell, row)) + "\n")


@dataclass(frozen=True)
class ChunkedArray:
    """An array that ``save_arrays`` writes chunk by chunk, never whole.

    ``chunks`` yields arrays of ``dtype`` whose bytes, one after the
    other, are the array's of ``shape`` in C order; each is written before
    the next is asked for, so a chunk may reuse the buffer of the last.
    """

    dtype: np.dtype
    shape: tuple[int, ...]
    chunks: Iterable[np.ndarray]

    @property
    def nbytes(self) -> int:
        return math.prod(self.shape) * np.dtype(self.dtype).itemsize


def save_arrays(path: str | Path, **arrays) -> None:
    """npz-compatible archive with fixed timestamps (byte-stable across runs).

    Members are stored, not deflated: correlation stacks barely compress, and
    deflate cost far more than the bytes it saved.  Each array streams into
    its member without an in-memory copy of the file, and a C-contiguous
    array of plain numbers, strings or bools is written from its own buffer,
    with the bytes ``np.lib.format.write_array`` would write; a
    ``ChunkedArray`` gets the same bytes one chunk at a time.  The archive
    is written under ``<name>.tmp`` beside ``path`` and renamed over it once
    complete: if a member fails to write, the temporary file is removed and
    a file already at ``path`` keeps its bytes.
    """
    path = Path(path)
    partial = path.with_name(path.name + ".tmp")
    zf = zipfile.ZipFile(partial, "w", compression=zipfile.ZIP_STORED)
    try:
        with zf:
            for name in sorted(arrays):
                array = arrays[name]
                if not isinstance(array, ChunkedArray):
                    array = np.asarray(array)
                info = zipfile.ZipInfo(f"{name}.npy", date_time=_EPOCH_STAMP)
                # zipfile's own rule for a member whose size it knows up front;
                # the .npy header adds well under 64 KiB
                zip64 = (array.nbytes + (1 << 16)) * 1.05 > zipfile.ZIP64_LIMIT
                with zf.open(info, "w", force_zip64=zip64) as member:
                    _write_npy(member, array)
        partial.replace(path)
    except BaseException:  # a member that fails leaves no truncated archive
        partial.unlink(missing_ok=True)
        raise


def _write_npy(member, array) -> None:
    """One .npy file into an open archive member.

    ``write_array`` copies the data through ``tobytes`` chunks of up to
    16 MiB, so a whole epoch stack of that size; an array whose buffer is
    already the file's data layout is written as it is, and so is each
    chunk of a ChunkedArray, whose total must be its shape's bytes.  Such a
    dtype's header always fits format 1.0, the version write_array tries
    first.
    """
    if isinstance(array, ChunkedArray):
        np.lib.format.write_array_header_1_0(member, {
            "descr": np.lib.format.dtype_to_descr(np.dtype(array.dtype)),
            "fortran_order": False, "shape": tuple(map(int, array.shape))})
        written = 0
        for chunk in array.chunks:
            chunk = np.ascontiguousarray(chunk, dtype=array.dtype)
            written += member.write(chunk.reshape(-1).view(np.uint8))
        if written != array.nbytes:
            raise ValueError(f"chunks of {written} bytes for an array of {array.nbytes}")
    elif array.flags.c_contiguous and array.dtype.kind in "?biufcSU":
        np.lib.format.write_array_header_1_0(
            member, np.lib.format.header_data_from_array_1_0(array))
        member.write(array.reshape(-1).view(np.uint8))
    else:
        np.lib.format.write_array(member, array, allow_pickle=False)


@dataclass(frozen=True)
class StoredArray:
    """An archive's stored .npy member left in its file: its data's offset and its header."""

    path: Path
    offset: int
    dtype: np.dtype
    fortran_order: bool
    shape: tuple[int, ...]


_HEADER_READERS = {(1, 0): np.lib.format.read_array_header_1_0,
                   (2, 0): np.lib.format.read_array_header_2_0}


def _stored_member(path: Path, zf: zipfile.ZipFile, name: str) -> StoredArray | None:
    """Member ``name`` of the open archive ``zf`` as a StoredArray; None if it is deflated.

    Only the member's .npy header and its zip local header are read.  A
    header whose data would not fill the member exactly is a DataError.
    """
    info = zf.getinfo(f"{name}.npy")
    if info.compress_type != zipfile.ZIP_STORED:
        return None
    with zf.open(info) as member:
        version = np.lib.format.read_magic(member)
        if version not in _HEADER_READERS:  # a 3.0 header: read the member whole
            return None
        shape, fortran_order, dtype = _HEADER_READERS[version](member)
        header = member.tell()
    need = header + math.prod(shape) * dtype.itemsize
    if info.file_size != need:
        raise DataError(f"{path}: member {name!r} holds {info.file_size} bytes "
                        f"but its header needs {need}")
    with path.open("rb") as fh:  # the local header: 30 bytes, then the name and extra field
        fh.seek(info.header_offset)
        local = fh.read(30)
    if len(local) < 30 or local[:4] != b"PK\x03\x04":
        raise DataError(f"{path}: member {name!r} has no local header")
    skip = 30 + sum(struct.unpack("<HH", local[26:30]))
    return StoredArray(path, info.header_offset + skip + header, dtype, fortran_order, shape)


def load_arrays(path: str | Path, names: list[str] | None = None,
                in_place: tuple[str, ...] = ()) -> dict[str, np.ndarray | StoredArray]:
    """Every array of an archive, or only the members ``names``, which are all that is read.

    A member named in ``in_place`` that is stored, not deflated, stays in
    the file: only its header is read, and it comes back as a StoredArray.
    """
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
            arrays = {}
            for name in archive.files if names is None else names:
                stored = _stored_member(path, archive.zip, name) if name in in_place else None
                arrays[name] = archive[name] if stored is None else stored
            return arrays
    except KeyError as exc:  # a name not in the archive
        raise DataError(f"{path}: {exc.args[0]}") from exc
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    except (ValueError, zipfile.BadZipFile) as exc:
        raise DataError(f"{path} is not a readable array archive: {exc}") from exc
