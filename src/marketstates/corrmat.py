"""Rolling-epoch Pearson correlation matrices and the noise-suppression power map.

An epoch is a window of ``window`` consecutive return days advanced by
``shift`` days at a time.  Epoch tau (1-based) covers return columns
``(tau-1)*shift .. (tau-1)*shift + window - 1``, so a panel of L return days
yields ``floor((L - window)/shift) + 1`` epochs.  Every message names an
epoch by this 1-based index.

A panel's epochs are computed about 512 KB at a time.  ``epoch_correlations``
packs them into an in-memory series; ``save_epoch_correlations``, the
pipeline's writer of corr_raw.npz, writes each chunk to the archive as it
is computed, so no stage holds the stack.  ``load_series`` reads the
archive back into a series whose packed rows stay in the file, and
``save_series`` streams any series' rows into the same member layout.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError, NumericError
from .ingest import ReturnPanel
from .serialize import ChunkedArray, StoredArray, load_arrays, save_arrays


@dataclass(frozen=True)
class EpochSpec:
    window: int = 20
    shift: int = 1

    def __post_init__(self) -> None:
        if self.window < 2:
            raise ValueError(f"window must be >= 2, got {self.window}")
        if self.shift < 1:
            raise ValueError(f"shift must be >= 1, got {self.shift}")


def epoch_count(n_returns: int, spec: EpochSpec) -> int:
    if n_returns < spec.window:
        raise NumericError(
            f"window needs {spec.window} return days but only {n_returns} are available"
        )
    return (n_returns - spec.window) // spec.shift + 1


class CorrelationMatrix:
    """One epoch of a series: its first and last return day, and its matrix as a new array."""

    def __init__(self, series: EpochCorrelationSeries, index: int):
        self._series, self._index = series, index

    @property
    def start_date(self) -> str:
        return self._series.start_dates[self._index]

    @property
    def end_date(self) -> str:
        return self._series.end_dates[self._index]

    @property
    def values(self) -> np.ndarray:
        return self._series.values_stack(self._index, self._index + 1)[0]


class EpochCorrelationSeries:
    """Ordered raw correlation matrices of every epoch, one row and column per label.

    The one epoch-stack type: stock-level series carry tickers as labels,
    sector-averaged ones sector names.  It holds the epochs' ``start_dates``
    and ``end_dates`` and their packed (epochs, N(N+1)/2) rows (the layout
    is below).  ``epochs`` given as such rows in memory is kept as it is,
    read-only; given as the StoredArray of an archive member, as by
    ``load_series``, it stays in the file, which each pass over the rows
    reopens.  Only ``_read`` and ``_chunks`` read either.  ``matrices`` are
    records made on access, ``values_stack()`` a dense copy.  The
    dissimilarity, not the series, applies the power map.
    """

    def __init__(self, labels, epochs: np.ndarray | StoredArray, start_dates, end_dates):
        self.labels = list(labels)
        n, shape = len(self.labels), epochs.shape
        if len(shape) != 2 or shape[1] != _packed_width(n) or n == 0:
            raise ValueError(f"packed epochs of shape {shape} for {n} labels")
        self.start_dates, self.end_dates = list(start_dates), list(end_dates)
        if not shape[0] == len(self.start_dates) == len(self.end_dates):
            raise ValueError(f"{shape[0]} packed epochs for {len(self.start_dates)} start "
                             f"and {len(self.end_dates)} end dates")
        if isinstance(epochs, np.ndarray):  # a view, so that the caller's array stays writeable
            epochs = np.asarray(epochs, dtype=float).view()
            epochs.flags.writeable = False
        self._rows = epochs
        self._range = None  # the column ranges, from one pass on the first access

    @property
    def n_epochs(self) -> int:
        return len(self.start_dates)

    @property
    def n_labels(self) -> int:
        return len(self.labels)

    @property
    def matrices(self) -> list[CorrelationMatrix]:
        """A new record of each epoch."""
        return [CorrelationMatrix(self, e) for e in range(self.n_epochs)]

    @property
    def packed_width(self) -> int:
        """Entries of one packed epoch: N(N+1)/2."""
        return _packed_width(self.n_labels)

    def _read(self, start: int, stop: int | None) -> np.ndarray:
        """The read-only packed rows of epochs ``start`` to ``stop``: a view, or read anew."""
        if isinstance(self._rows, np.ndarray):
            return self._rows[start:stop]
        start, stop, _ = slice(start, stop).indices(self.n_epochs)
        rows = np.empty((max(stop - start, 0), self.packed_width))
        with self._rows.path.open("rb", buffering=0) as fh:
            fh.seek(self._rows.offset + start * rows.itemsize * self.packed_width)
            _read_rows(fh, rows, self._rows.path)
        rows.flags.writeable = False
        return rows

    def _chunks(self, step: int, writable: bool = False):
        """Yield (first epoch, packed rows) for ``step`` epochs at a time, in epoch order.

        A chunk is valid until the next one is asked for, and is the
        caller's to overwrite only if ``writable``: rows in memory are then
        copied into one reused buffer.  Rows in a file are read into such a
        buffer, in one pass that opens the file once.
        """
        n, source = self.n_epochs, self._rows
        if isinstance(source, np.ndarray):
            buffer = np.empty((min(step, n), self.packed_width)) if writable else None
            for e0 in range(0, n, step):
                rows = source[e0:e0 + step]
                if writable:
                    buffer[:len(rows)] = rows
                    rows = buffer[:len(rows)]
                yield e0, rows
            return
        buffer = np.empty((min(step, n), self.packed_width))
        with source.path.open("rb", buffering=0) as fh:
            fh.seek(source.offset)
            for e0 in range(0, n, step):
                rows = buffer[:min(step, n - e0)]
                _read_rows(fh, rows, source.path)
                yield e0, rows

    def values_stack(self, start: int = 0, stop: int | None = None) -> np.ndarray:
        """A new dense (epochs, N, N) copy of epochs ``start`` to ``stop``, by default all."""
        return _unpack_epochs(self._read(start, stop), self.n_labels)

    def label_means(self, labels: np.ndarray, k: int) -> list[np.ndarray]:
        """New dense means of the epochs labelled 1 .. ``k``, from one pass over the rows.

        Each mean has the bits of values_stack()[labels == c].mean(axis=0):
        each label's rows are added in epoch order onto -0.0, which leaves
        the first of them as it is.  A label no epoch carries is a ValueError.
        """
        labels = np.asarray(labels)
        counts = np.bincount(labels, minlength=k + 1)
        if (len(labels) != self.n_epochs or len(counts) != k + 1 or counts[0]
                or not counts[1:].all()):
            raise ValueError(f"{len(labels)} labels for {self.n_epochs} epochs "
                             f"must use each of 1..{k} and no other")
        sums = np.full((k, self.packed_width), -0.0)
        for e0, rows in self._chunks(_epochs_per_chunk(sums[0].nbytes)):
            for label, row in zip(labels[e0:e0 + len(rows)], rows):
                sums[label - 1] += row
        sums /= counts[1:, None]
        return list(_unpack_epochs(sums, self.n_labels))

    def block_sums(self, groups: np.ndarray, self_pairs: bool) -> tuple[np.ndarray, np.ndarray]:
        """Each epoch's sums of C_ij over the label pairs of each two groups, and the pair counts.

        ``groups`` numbers each label's group from 0; both come back packed for
        the G groups, the sums as new (epochs, G(G+1)/2) rows.  Pairs i == j
        count only with ``self_pairs``.  Each chunk's packed columns are weighted
        in place (1 across two groups, 2 inside one for C_ij and C_ji, 1 or 0 on
        the diagonal) and one bincount adds each entry's columns in column
        order: the bits depend on neither the chunking nor the BLAS.
        """
        n = int(groups.max()) + 1
        upper, width = np.triu_indices(n, 1), _packed_width(n)
        where = np.empty((n, n), dtype=np.intp)  # each pair of groups' packed column
        where[upper] = where[upper[::-1]] = np.arange(len(upper[0]))
        where[np.diag_indices(n)] = np.arange(len(upper[0]), width)
        a, b = (groups[side] for side in np.triu_indices(self.n_labels, 1))
        columns = np.concatenate([where[a, b], where[groups, groups]])
        weights = np.concatenate([np.where(a == b, 2.0, 1.0),
                                  np.full(self.n_labels, float(self_pairs))])
        sums = np.empty((self.n_epochs, width))
        step = _epochs_per_chunk(16 * self.packed_width)  # 256 KB of rows, 256 KB of bins
        bins = columns + width * np.arange(min(step, self.n_epochs))[:, None]
        for e0, rows in self._chunks(step, writable=True):
            rows *= weights
            m = len(rows)
            sums[e0:e0 + m] = np.bincount(bins[:m].ravel(), rows.ravel(),
                                          minlength=m * width).reshape(m, width)
        return sums, np.bincount(columns, weights, minlength=width)

    @property
    def _column_range(self) -> np.ndarray:
        """The read-only (2, width) minima and maxima of the packed columns.

        One pass over the rows, about 512 KB at a time, on the first access;
        the series keeps the result for every later one.  The cache is the
        instance's own, so a pass over one series never holds up another's
        (functools.cached_property locks per class before Python 3.12).
        """
        if self._range is None:
            lo, hi = np.full(self.packed_width, np.inf), np.full(self.packed_width, -np.inf)
            for _, rows in self._chunks(_epochs_per_chunk(8 * self.packed_width)):
                np.minimum(lo, rows.min(axis=0), out=lo)
                np.maximum(hi, rows.max(axis=0), out=hi)
            bounds = np.stack([lo, hi])
            bounds.flags.writeable = False
            self._range = bounds
        return self._range


def _read_rows(fh, rows: np.ndarray, path: Path) -> None:
    """Fill C-contiguous ``rows`` from the open file ``fh``; a short file is a DataError."""
    view = memoryview(rows).cast("B")
    done = 0
    while done < len(view):
        size = fh.readinto(view[done:])
        if not size:
            raise DataError(f"{path} ended inside its packed member; "
                            "rerun corr (run --force) to rewrite it")
        done += size


def _epochs_per_chunk(epoch_bytes: int) -> int:
    """Epochs of ``epoch_bytes`` bytes each that make a chunk of about 512 KB."""
    return max(1, (512 << 10) // max(epoch_bytes, 1))


# The packed layout of an epoch stack: one row per epoch, its strict upper
# triangle in np.triu_indices(N, 1) order, then its N diagonal entries.  A
# series holds it, save_series stores it as the archive member ``packed``,
# and _kernel_copy maps it for the dissimilarity kernel.


def _packed_width(n_labels: int) -> int:
    """Entries of one packed epoch of ``n_labels`` labels: N(N+1)/2."""
    return n_labels * (n_labels + 1) // 2


@functools.lru_cache(maxsize=4)
def _triangle(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Where the strict upper triangle and its mirror sit in a flattened N x N epoch."""
    row, col = np.triu_indices(n, 1)
    upper_at, lower_at = row * n + col, col * n + row
    upper_at.flags.writeable = lower_at.flags.writeable = False
    return upper_at, lower_at


def _pack_chunk(chunk: np.ndarray, out: np.ndarray, first: int) -> None:
    """Pack exactly symmetric (epochs, N, N) ``chunk`` into the rows ``out``.

    Only the upper triangle is read.  Raises NumericError naming the first
    epoch, 1-based, that is non-finite; the chunk's epoch 0 is epoch ``first``.
    """
    m, n = chunk.shape[:2]
    upper_at = _triangle(n)[0]
    flat = chunk.reshape(m, n * n)
    np.take(flat, upper_at, axis=1, out=out[:, :upper_at.size], mode="clip")
    out[:, upper_at.size:] = flat[:, ::n + 1]
    finite = np.isfinite(out).all(axis=1)
    if not finite.all():
        raise NumericError(f"epoch {first + int(np.argmin(finite)) + 1} has a non-finite entry")


def _unpack_epochs(packed: np.ndarray, n: int) -> np.ndarray:
    """The new (epochs, n, n) stack whose packed layout is ``packed``, mirrored bit for bit."""
    if packed.ndim != 2 or packed.shape[1] != _packed_width(n) or n == 0:
        raise ValueError(f"packed epochs of shape {packed.shape} for {n} labels")
    upper_at, lower_at = _triangle(n)
    k = upper_at.size
    stack = np.empty((len(packed), n, n))
    flat = stack.reshape(len(packed), n * n)
    flat[:, upper_at] = packed[:, :k]
    flat[:, lower_at] = packed[:, :k]
    flat[:, ::n + 1] = packed[:, k:]
    return stack


def save_series(series: EpochCorrelationSeries, path: str | Path) -> None:
    """Write a series to a correlation archive, as the pipeline's corr_raw.npz.

    Its members are ``packed``, the series' packed rows as they are, and
    ``labels``, ``start_dates`` and ``end_dates``.  The rows are written
    about 512 KB at a time, as ``save_epoch_correlations`` writes them: a
    series on an archive is copied without reading its stack.
    """
    chunks = (rows for _, rows in series._chunks(_epochs_per_chunk(8 * series.packed_width)))
    _save_members(path, (series.n_epochs, series.packed_width), chunks, series.labels,
                  series.start_dates, series.end_dates)


def _save_members(path, shape, rows, labels, start_dates, end_dates) -> None:
    """Write an archive whose ``packed`` member of ``shape`` is the chunks ``rows`` yields."""
    save_arrays(path, packed=ChunkedArray(np.dtype(float), shape, rows), labels=np.array(labels),
                start_dates=np.array(start_dates), end_dates=np.array(end_dates))


def load_series(path: str | Path) -> EpochCorrelationSeries:
    """The series ``save_series`` wrote to ``path``, reading the labels and dates only.

    A stored ``packed`` member, as ``save_series`` writes it, stays in the
    file: the series reads its rows on each pass over them.  A deflated one,
    as other tools such as ``np.savez_compressed`` write it, is read whole.
    Raises DataError naming the file and the first member it lacks, as an
    archive of earlier versions lacks ``packed``, and one for packed rows
    that are not <f8 in C order, that do not match the labels or dates, or
    whose stored member does not hold the bytes its header announces.
    """
    path = Path(path)
    arrays = load_arrays(path, in_place=("packed",))
    for name in ("packed", "labels", "start_dates", "end_dates"):
        if name not in arrays:
            raise DataError(f"{path} has no {name!r} member; "
                            "rerun corr (run --force) to rewrite it")
    labels = [str(s) for s in arrays["labels"]]
    dates = [str(s) for s in arrays["start_dates"]], [str(s) for s in arrays["end_dates"]]
    packed = arrays["packed"]
    stored = isinstance(packed, StoredArray)
    fortran = packed.fortran_order if stored else not packed.flags.c_contiguous
    if packed.dtype != np.dtype("<f8") or fortran:
        order = "Fortran" if fortran else "C"
        raise DataError(f"{path}: packed rows of dtype {packed.dtype.str} in {order} order; "
                        "rerun corr (run --force) to rewrite them as <f8 in C order")
    try:
        return EpochCorrelationSeries(labels, packed, *dates)
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from exc


def _zero_variance(rows: np.ndarray) -> str:
    return (f"zero variance in rows {np.flatnonzero(rows).tolist()}; "
            "their correlations are set to 0")


def _pearson_blocks(windows: np.ndarray, cov: np.ndarray) -> np.ndarray:
    """Pearson correlation of each (N, T) block of ``windows`` into ``cov``.

    ``windows`` is (blocks, N, T) with any strides, ``cov`` a C-contiguous
    (blocks, N, N) array; epoch_correlations passes about 2^16 float64
    (512 KB) of output at a time.  One batched product serves every block,
    and every step is the 2-D computation done slice by slice, so each
    block gets the bits it would get alone.  X X^T is exactly symmetric:
    numpy hands a product with its own transpose to BLAS syrk, which fills
    one triangle and mirrors it, and every later step keeps it so.  Beyond
    ``cov`` it holds the C-contiguous window copy, then one scratch chunk
    of ``cov``'s size for the sd_i sd_j divisor.  Returns the (blocks, N)
    mask of zero-variance rows.
    """
    T = windows.shape[2]
    diagonal = np.arange(windows.shape[1])
    # a C-contiguous copy: each row mean is then one pairwise sum over T
    X = np.array(windows, dtype=float)
    # relative floor catches constant rows whose centering left rounding dust
    scale = (X * X).mean(axis=2)
    X -= X.mean(axis=2, keepdims=True)
    np.matmul(X, X.transpose(0, 2, 1), out=cov)
    cov /= T
    var = cov[:, diagonal, diagonal]
    rows = var <= 1e-24 * np.maximum(scale, 1e-300)
    var[rows] = 1.0
    sd = np.sqrt(var)
    del X  # freed before the scratch chunk takes its place
    scratch = np.empty_like(cov)
    cov /= np.einsum("bi,bj->bij", sd, sd, out=scratch)
    cov[rows] = 0.0
    cov.transpose(0, 2, 1)[rows] = 0.0
    np.clip(cov, -1.0, 1.0, out=cov)
    cov[:, diagonal, diagonal] = 1.0
    return rows


def _epoch_rows(panel: ReturnPanel, spec: EpochSpec, stacklevel: int,
                packed: np.ndarray | None = None):
    """Yield the packed rows of a return panel's epochs, about 512 KB of epochs at a time.

    Each chunk is built in one reused dense buffer and packed into the
    chunk's rows of ``packed`` when it is given, else into one reused
    buffer of rows, valid until the next chunk is asked for; no dense stack
    of every epoch exists.  Each epoch with a zero-variance row warns once,
    naming its 1-based index; ``stacklevel`` counts frames from this one,
    as warnings.warn does.
    """
    n = epoch_count(panel.n_returns, spec)
    windows = np.lib.stride_tricks.sliding_window_view(panel.returns, spec.window, axis=1)
    windows = windows[:, ::spec.shift].transpose(1, 0, 2)  # (epochs, N, window) views
    N = windows.shape[1]
    step = _epochs_per_chunk(N * N * 8)
    buffer = np.empty((min(step, n), N, N))
    whole = packed is not None
    if not whole:
        packed = np.empty((min(step, n), _packed_width(N)))
    for e0 in range(0, n, step):
        chunk = buffer[:min(step, n - e0)]
        flat = _pearson_blocks(windows[e0:e0 + step], chunk)
        for index in np.flatnonzero(flat.any(axis=1)):
            warnings.warn(f"epoch {e0 + index + 1}: {_zero_variance(flat[index])}",
                          RuntimeWarning, stacklevel=stacklevel)
        rows = packed[e0:e0 + len(chunk)] if whole else packed[:len(chunk)]
        _pack_chunk(chunk, rows, e0)  # exactly symmetric: see _pearson_blocks
        yield rows


def _epoch_dates(panel: ReturnPanel, spec: EpochSpec) -> tuple[list[str], list[str]]:
    """The first and last return day of each epoch of a panel."""
    n = epoch_count(panel.n_returns, spec)
    return panel.dates[::spec.shift][:n], panel.dates[spec.window - 1::spec.shift][:n]


def epoch_correlations(panel: ReturnPanel, spec: EpochSpec = EpochSpec()) -> EpochCorrelationSeries:
    """Correlation matrix of every epoch of a return panel, in the packed layout.

    Each chunk of about 512 KB of epochs is built in one reused dense buffer
    and packed into the series' rows, so no dense stack of every epoch
    exists.  Each epoch with a zero-variance row warns once, naming its
    1-based index.
    """
    packed = np.empty((epoch_count(panel.n_returns, spec), _packed_width(panel.n_stocks)))
    for _ in _epoch_rows(panel, spec, 3, packed):  # the warnings name the caller
        pass
    return EpochCorrelationSeries(panel.tickers, packed, *_epoch_dates(panel, spec))


def save_epoch_correlations(panel: ReturnPanel, spec: EpochSpec, path: str | Path) -> None:
    """Write the archive ``save_series(epoch_correlations(panel, spec), path)`` writes.

    The pipeline's writer of corr_raw.npz.  The archive's bytes are the
    same, but each chunk of about 512 KB of epochs is written to the
    ``packed`` member as it is computed, so no stack of every epoch exists.
    An epoch count the panel cannot give is raised before the file is
    opened; a NumericError or a warning raised as an error mid-stream
    leaves an earlier file at ``path`` as it was (see ``save_arrays``).
    """
    shape = (epoch_count(panel.n_returns, spec), _packed_width(panel.n_stocks))
    # save_arrays asks for the chunks, and the warnings name the caller
    _save_members(path, shape, _epoch_rows(panel, spec, 6), panel.tickers,
                  *_epoch_dates(panel, spec))


def _power(values: np.ndarray, epsilon: float, out: np.ndarray | None = None) -> np.ndarray:
    """sign(x) |x|^(1+epsilon) of ``values``, into ``out`` when epsilon > 0 and it is given."""
    # epsilon 0 must be a bit-for-bit no-op, so short-circuit before pow
    if epsilon == 0.0:
        return values.copy()
    # one temporary besides the output; np.copysign would keep -0.0 where
    # np.sign gives +0.0
    dtype = np.result_type(values, 1.0)  # integer input maps to float
    magnitude = np.abs(values, dtype=dtype)
    magnitude **= 1.0 + epsilon
    out = np.sign(values, out=out, dtype=dtype)
    out *= magnitude
    return out


# The fewest rounding steps per half-range that _kernel_copy accepts: int32
# row sums leave (2^31 - 1) // width, which passes it up to N = 4 103 labels.
QMAX_FLOOR = 255


def _kernel_copy(epochs: EpochCorrelationSeries, out: np.ndarray, epsilon: float) -> float:
    """Fill int16 ``out`` with the kernel's rows of a series and return their scale.

    Each packed column is power-mapped at ``epsilon`` and centred on the
    midrange of its values over the epochs, which no L1 distance sees.  The
    strict triangle is weighted 2, since an off-diagonal entry is twice in a
    full matrix.  One scale rounds the widest weighted column onto -qmax ..
    qmax, qmax = min(32767, (2^31 - 1) // width), so that a sum over a row
    fits in int32.  Two rows are then ``scale`` times as far apart in L1 as
    the full mapped matrices, within half a unit per entry.  A column that
    never changes, such as the diagonal of raw correlations, is all 0.
    ``out`` is the one packed copy the kernel holds beyond the series.  The
    rows are read about 512 KB at a time: each call makes one pass to map
    and round them in the chunk's buffer, so beyond ``out`` the copy holds
    one chunk (two at epsilon > 0), and no stack of a series on an archive.
    The raw column ranges take one more pass, on a series' first call only:
    the series keeps them, and each epsilon maps them.
    qmax falls as 1/N^2 past N = 361; below QMAX_FLOOR (N above 4 103) a
    distance's bound would pass about 1/255 of the widest half-range, and
    the call is a NumericError before any work.  NumericError also names the first epoch
    that is non-finite after the map, at any epsilon: the map takes NaN and
    +-inf to themselves, and is monotone, so a non-finite mapped entry shows
    in its column's mapped min or max.
    """
    width = _packed_width(epochs.n_labels)
    k = width - epochs.n_labels  # the strict triangle comes first
    qmax = min(32767, (2**31 - 1) // width)
    if qmax < QMAX_FLOOR:
        raise NumericError(f"{epochs.n_labels} labels leave the int16 kernel {qmax} steps "
                           f"per half-range, fewer than {QMAX_FLOOR}")
    step = _epochs_per_chunk(8 * width)
    # the map is monotone: it takes each column's range to the mapped range
    lo, hi = _power(epochs._column_range, epsilon)
    if not np.isfinite(lo).all() or not np.isfinite(hi).all():
        for e0, rows in epochs._chunks(step):  # which epoch: only on the way to the error
            finite = np.isfinite(_power(rows, epsilon)).all(axis=1)
            if not finite.all():
                raise NumericError(f"epoch {e0 + np.argmin(finite) + 1} has a non-finite entry")
    centre, half = lo / 2 + hi / 2, hi / 2 - lo / 2  # no overflow near the float limit
    peak = max(half[:k].max(initial=0.0), half[k:].max() / 2)  # the widest weighted half-range / 2
    # a range under 1e-290 reads as 0, which keeps scale * N^2 finite
    scale = qmax / 2 / max(peak, 1e-290)
    weight = np.full(width, scale)
    weight[:k] *= 2.0
    for e0, mapped in epochs._chunks(step, writable=True):
        if epsilon:
            _power(mapped, epsilon, out=mapped)
        mapped -= centre
        mapped *= weight
        np.rint(mapped, out=mapped)
        np.clip(mapped, -qmax, qmax, out=mapped)
        out[e0:e0 + len(mapped)] = mapped
    return scale


def _check_epsilon(epsilon: float) -> None:
    if not math.isfinite(epsilon):
        raise ValueError(f"epsilon must be finite, got {epsilon}")
    if epsilon < 0:
        raise ValueError(f"epsilon must be >= 0, got {epsilon}")


def power_map(values: np.ndarray, epsilon: float) -> np.ndarray:
    """Element-wise x -> sign(x) |x|^(1+epsilon), diagonal included, into a new array.

    Shrinks small (mostly noise) correlations toward zero faster than strong
    ones, which also breaks the rank degeneracy of short-window correlation
    matrices.  ``similarity_matrix`` applies it to the epochs it compares, so
    no series or archive holds mapped matrices.
    """
    _check_epsilon(epsilon)
    if not isinstance(values, np.ndarray):
        raise TypeError(f"cannot power-map a {type(values).__name__}")
    return _power(values, epsilon)
