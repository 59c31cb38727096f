"""Rolling-epoch Pearson correlation matrices and the noise-suppression power map.

An epoch is a window of ``window`` consecutive return days advanced by
``shift`` days at a time.  Epoch tau (1-based) covers return columns
``(tau-1)*shift .. (tau-1)*shift + window - 1``, so a panel of L return days
yields ``floor((L - window)/shift) + 1`` epochs.
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
from .serialize import load_arrays, save_arrays


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


def epoch_bounds(epoch_index: int, spec: EpochSpec) -> tuple[int, int]:
    """Half-open return-column range covered by a 1-based epoch index."""
    if epoch_index < 1:
        raise ValueError(f"epoch indices are 1-based, got {epoch_index}")
    start = (epoch_index - 1) * spec.shift
    return start, start + spec.window


@dataclass
class CorrelationMatrix:
    """One epoch's correlation matrix and the first and last return day it covers.

    ``packed`` is the epoch's row of the packed layout; ``values`` unpacks
    it into a new N x N array on each access.
    """

    packed: np.ndarray
    start_date: str
    end_date: str

    @property
    def values(self) -> np.ndarray:
        n = (math.isqrt(8 * self.packed.size + 1) - 1) // 2  # size = N(N+1)/2
        return _unpack_epochs(self.packed[None], n)[0]


class EpochCorrelationSeries:
    """Ordered raw correlation matrices of every epoch, one row and column per label.

    The one epoch-stack type: stock-level series carry tickers as labels,
    sector-averaged ones sector names.  It holds only the packed layout, one
    read-only (epochs, N(N+1)/2) array: ``epochs`` given as such rows is kept
    as it is, and a dense (epochs, N, N) stack is packed, a NumericError
    naming its first epoch that is non-finite or not exactly symmetric.
    Records unpack their epoch on access; ``values_stack()`` is a dense copy.
    The power map is no part of a series: the dissimilarity applies it.
    """

    def __init__(self, labels, epochs: np.ndarray, start_dates, end_dates):
        self.labels = list(labels)
        n = len(self.labels)
        if epochs.ndim == 3 and epochs.shape[1:] == (n, n):
            epochs = _pack_epochs(epochs)
        elif epochs.ndim != 2 or epochs.shape[1] != _packed_width(n) or n == 0:
            what = "packed epochs" if epochs.ndim == 2 else "epoch stack"
            raise ValueError(f"{what} of shape {epochs.shape} for {n} labels")
        self.packed = np.asarray(epochs, dtype=float).view()  # the layout is below
        self.packed.flags.writeable = False
        # records hold rows of the array, never the series: no reference cycle
        self.matrices = [CorrelationMatrix(row, start, end) for row, start, end
                         in zip(self.packed, start_dates, end_dates, strict=True)]

    @property
    def n_epochs(self) -> int:
        return len(self.matrices)

    @property
    def n_labels(self) -> int:
        return len(self.labels)

    def values_stack(self, start: int = 0, stop: int | None = None) -> np.ndarray:
        """A new dense (epochs, N, N) copy of epochs ``start`` to ``stop``, by default all."""
        return _unpack_epochs(self.packed[start:stop], self.n_labels)

    def mean_of(self, members) -> np.ndarray:
        """A new dense mean of epochs ``members``, the bits of values_stack()[members].mean(axis=0)."""
        total = self.packed[members[0]].copy()
        for e in members[1:]:
            total += self.packed[e]
        total /= len(members)
        return _unpack_epochs(total[None], self.n_labels)[0]


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


def _pack_chunk(chunk: np.ndarray, out: np.ndarray, first: int, symmetric: bool = False) -> None:
    """Pack (epochs, N, N) ``chunk`` into the rows ``out``; its epoch 0 is epoch ``first``.

    Raises NumericError naming the first epoch that is non-finite or, unless
    ``symmetric`` vouches for the chunk, not exactly symmetric: the triangle
    alone cannot stand for it.
    """
    m, n = chunk.shape[:2]
    upper_at = _triangle(n)[0]
    flat = chunk.reshape(m, n * n).astype(float, copy=False)
    np.take(flat, upper_at, axis=1, out=out[:, :upper_at.size], mode="clip")
    out[:, upper_at.size:] = flat[:, ::n + 1]
    finite = np.isfinite(out).all(axis=1)
    if not symmetric:
        symmetric = (chunk == chunk.transpose(0, 2, 1)).all(axis=(1, 2))
    if not (finite & symmetric).all():
        e = int(np.argmin(finite & symmetric))
        what = "has a non-finite entry" if not finite[e] else "is not exactly symmetric"
        raise NumericError(f"epoch {first + e} {what}")


def _pack_epochs(stack: np.ndarray) -> np.ndarray:
    """A dense (epochs, N, N) stack packed 512 KB of epochs at a time."""
    n, N = stack.shape[:2]
    out = np.empty((n, _packed_width(N)))
    step = _epochs_per_chunk(N * N * 8)
    for e0 in range(0, n, step):
        _pack_chunk(stack[e0:e0 + step], out[e0:e0 + step], e0)
    return out


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
    """Write a series to a correlation archive (the pipeline's corr_raw.npz).

    Its members are ``packed``, the series' packed rows as they are, and
    ``labels``, ``start_dates`` and ``end_dates``.
    """
    save_arrays(
        path,
        packed=series.packed,
        labels=np.array(series.labels),
        start_dates=np.array([m.start_date for m in series.matrices]),
        end_dates=np.array([m.end_date for m in series.matrices]),
    )


def load_series(path: str | Path) -> EpochCorrelationSeries:
    """The series ``save_series`` wrote to ``path``, holding the archive's packed rows.

    Raises DataError naming the file and the first member it lacks, as an
    archive of earlier versions lacks ``packed``, or packed rows that do not
    match the labels or dates.
    """
    arrays = load_arrays(path)
    for name in ("packed", "labels", "start_dates", "end_dates"):
        if name not in arrays:
            raise DataError(f"{path} has no {name!r} member; "
                            "rerun corr (run --force) to rewrite it")
    labels = [str(s) for s in arrays["labels"]]
    packed = arrays["packed"]
    try:
        if packed.ndim != 2:  # a dense stack is no archive's member
            raise ValueError(f"packed epochs of shape {packed.shape} for {len(labels)} labels")
        return EpochCorrelationSeries(labels, packed, [str(s) for s in arrays["start_dates"]],
                                      [str(s) for s in arrays["end_dates"]])
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from exc


def load_series_labels(path: str | Path) -> list[str]:
    """The labels of the series in a correlation archive; its stack is not read."""
    return [str(s) for s in load_arrays(path, ["labels"])["labels"]]


def _zero_variance(rows: np.ndarray) -> str:
    return (f"zero variance in rows {np.flatnonzero(rows).tolist()}; "
            "their correlations are set to 0")


def _pearson_blocks(windows: np.ndarray, cov: np.ndarray) -> np.ndarray:
    """Pearson correlation of each (N, T) block of ``windows`` into ``cov``.

    ``windows`` is (blocks, N, T) with any strides, ``cov`` a C-contiguous
    (blocks, N, N) array; epoch_correlations passes about 2^16 float64
    (512 KB) of output at a time.  One batched product serves every block,
    and every step is the 2-D computation done slice by slice, so each
    block gets the bits it would get alone.  Returns the (blocks, N) mask
    of zero-variance rows.
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
    cov /= sd[:, :, None] * sd[:, None, :]
    cov[rows] = 0.0
    cov.transpose(0, 2, 1)[rows] = 0.0
    symmetric = cov + cov.transpose(0, 2, 1)
    symmetric /= 2.0
    np.clip(symmetric, -1.0, 1.0, out=cov)
    cov[:, diagonal, diagonal] = 1.0
    return rows


def pearson_correlation(X: np.ndarray) -> np.ndarray:
    """Population-normalized Pearson correlation of an N x T sample block.

    C_ij = (<x_i x_j> - <x_i><x_j>) / (sigma_i sigma_j) with all moments
    taken as plain means over the T columns.  A row with zero variance gets
    correlation 0 with every other row and 1 with itself, plus a warning, so
    an isolated degenerate window cannot poison downstream dissimilarities.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] < 2:
        raise NumericError(f"need an N x T block with T >= 2, got shape {X.shape}")
    corr = np.empty((1, X.shape[0], X.shape[0]))
    flat = _pearson_blocks(X[None], corr)[0]
    if flat.any():
        warnings.warn(_zero_variance(flat), RuntimeWarning, stacklevel=2)
    return corr[0]


def epoch_correlations(panel: ReturnPanel, spec: EpochSpec = EpochSpec()) -> EpochCorrelationSeries:
    """Correlation matrix of every epoch of a return panel, in the packed layout.

    Each chunk of about 512 KB of epochs is built in one reused dense buffer
    and packed into the series' rows, so no dense stack of every epoch
    exists.  Each epoch with a zero-variance row warns once, naming its
    1-based index.
    """
    n = epoch_count(panel.n_returns, spec)
    windows = np.lib.stride_tricks.sliding_window_view(panel.returns, spec.window, axis=1)
    windows = windows[:, ::spec.shift].transpose(1, 0, 2)  # (epochs, N, window) views
    N = windows.shape[1]
    packed = np.empty((n, _packed_width(N)))
    step = _epochs_per_chunk(N * N * 8)
    buffer = np.empty((min(step, n), N, N))
    for e0 in range(0, n, step):
        chunk = buffer[:len(packed[e0:e0 + step])]
        flat = _pearson_blocks(windows[e0:e0 + step], chunk)
        for index in np.flatnonzero(flat.any(axis=1)):
            warnings.warn(f"epoch {e0 + index + 1}: {_zero_variance(flat[index])}",
                          RuntimeWarning, stacklevel=2)
        # (C + C^T) / 2 is symmetric bit for bit: the sum commutes
        _pack_chunk(chunk, packed[e0:e0 + step], e0, symmetric=True)
    starts = panel.dates[::spec.shift][:n]
    ends = panel.dates[spec.window - 1::spec.shift][:n]
    return EpochCorrelationSeries(panel.tickers, packed, starts, ends)


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
    ``out`` is the one packed copy the kernel holds beyond the series.
    qmax falls as 1/N^2 past N = 361; below QMAX_FLOOR (N above 4 103) a
    distance's bound would pass about 1/255 of the widest half-range, and
    the call is a NumericError before any work.  NumericError also names the first epoch
    that is non-finite after the map, at any epsilon: the map takes NaN and
    +-inf to themselves, and is monotone, so a non-finite mapped entry shows
    in its column's mapped min or max.
    """
    rows, width = epochs.packed, epochs.packed.shape[1]
    k = width - epochs.n_labels  # the strict triangle comes first
    qmax = min(32767, (2**31 - 1) // width)
    if qmax < QMAX_FLOOR:
        raise NumericError(f"{epochs.n_labels} labels leave the int16 kernel {qmax} steps "
                           f"per half-range, fewer than {QMAX_FLOOR}")
    step = _epochs_per_chunk(8 * width)
    # the map is monotone: it takes each column's range to the mapped range
    lo, hi = _power(np.stack([rows.min(axis=0), rows.max(axis=0)]), epsilon)
    if not np.isfinite(lo).all() or not np.isfinite(hi).all():
        for e0 in range(0, len(rows), step):  # which epoch: only on the way to the error
            finite = np.isfinite(_power(rows[e0:e0 + step], epsilon)).all(axis=1)
            if not finite.all():
                raise NumericError(f"epoch {e0 + int(np.argmin(finite))} has a non-finite entry")
    centre, half = lo / 2 + hi / 2, hi / 2 - lo / 2  # no overflow near the float limit
    peak = max(half[:k].max(initial=0.0), half[k:].max() / 2)  # the widest weighted half-range / 2
    # a range under 1e-290 reads as 0, which keeps scale * N^2 finite
    scale = qmax / 2 / max(peak, 1e-290)
    weight = np.full(width, scale)
    weight[:k] *= 2.0
    stage = np.empty((min(step, len(out)), width))
    for e0 in range(0, len(out), step):
        src = rows[e0:e0 + step]
        mapped = stage[:len(src)]
        if epsilon:
            _power(src, epsilon, out=mapped)
            mapped -= centre
        else:
            np.subtract(src, centre, out=mapped)
        mapped *= weight
        np.rint(mapped, out=mapped)
        np.clip(mapped, -qmax, qmax, out=mapped)
        out[e0:e0 + step] = mapped
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
