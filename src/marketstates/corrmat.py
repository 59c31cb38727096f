"""Rolling-epoch Pearson correlation matrices and the noise-suppression power map.

An epoch is a window of ``window`` consecutive return days advanced by
``shift`` days at a time.  Epoch tau (1-based) covers return columns
``(tau-1)*shift .. (tau-1)*shift + window - 1``, so a panel of L return days
yields ``floor((L - window)/shift) + 1`` epochs.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError, NumericError
from .ingest import ReturnPanel
from .serialize import StreamedArray, load_arrays, save_arrays


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
    """One epoch's correlation matrix and the first and last return day it covers."""

    values: np.ndarray
    start_date: str
    end_date: str


class EpochCorrelationSeries:
    """Ordered raw correlation matrices of every epoch, one row and column per label.

    The one epoch-stack type: stock-level series carry tickers as labels,
    sector-averaged ones sector names.  It holds one (epochs, N, N) array,
    read-only and not copied; its records are views into it and
    ``values_stack()`` is that array.  The power map is no part of a series:
    the dissimilarity applies it as it compares epochs.
    """

    def __init__(self, labels, stack: np.ndarray, start_dates, end_dates):
        self.labels = list(labels)
        n = len(self.labels)
        if stack.ndim != 3 or stack.shape[1:] != (n, n):
            raise ValueError(f"epoch stack of shape {stack.shape} for {n} labels")
        self._stack = stack.view()
        self._stack.flags.writeable = False
        self.matrices = [CorrelationMatrix(values, start, end) for values, start, end
                         in zip(self._stack, start_dates, end_dates, strict=True)]

    @property
    def n_epochs(self) -> int:
        return len(self.matrices)

    @property
    def n_labels(self) -> int:
        return len(self.labels)

    def values_stack(self) -> np.ndarray:
        return self._stack


def _epochs_per_chunk(epoch_size: int) -> int:
    """Epochs of ``epoch_size`` values each that make a chunk of about 2^16 float64 (512 KB)."""
    return max(1, (1 << 16) // max(epoch_size, 1))


# The packed layout of an epoch stack: one row per epoch, its strict upper
# triangle in np.triu_indices(N, 1) order, then its N diagonal entries.
# save_series stores it as the archive member ``packed``; the dissimilarity
# kernel packs the same rows with the triangle doubled.


def _packed_width(n_labels: int) -> int:
    """Entries of one packed epoch of ``n_labels`` labels: N(N+1)/2."""
    return n_labels * (n_labels + 1) // 2


def _packed_chunks(stack: np.ndarray, epsilon: float = 0.0, doubled: bool = False,
                   out: np.ndarray | None = None):
    """Pack an (epochs, N, N) stack about 2^16 float64 (512 KB) of epochs at a time.

    Yields the packed rows of each chunk in epoch order: rows of ``out``
    when it is given, the whole (epochs, N(N+1)/2) result, else one buffer
    reused for every chunk.  Each epoch is power-mapped at ``epsilon`` as
    it is packed, with the bits of mapping the whole stack first, and its
    triangle is doubled when ``doubled`` is set.  Raises NumericError
    naming the first epoch that is non-finite after that or not exactly
    symmetric: the triangle alone cannot stand for it.
    """
    n, rows, cols = stack.shape
    if rows != cols or rows == 0:
        raise NumericError(f"epochs must be non-empty square matrices, got shape {(rows, cols)}")
    row, col = np.triu_indices(rows, 1)
    upper_at = row * rows + col  # the strict upper triangle in a flattened epoch
    k = upper_at.size
    step = _epochs_per_chunk(rows * rows)
    whole = out is not None
    if not whole:
        out = np.empty((min(step, n), k + rows))
    for e0 in range(0, n, step):
        chunk = stack[e0:e0 + step]
        packed = out[e0:e0 + step] if whole else out[:len(chunk)]
        flat = chunk.reshape(len(chunk), rows * rows)
        upper, diag = np.take(flat, upper_at, axis=1), flat[:, ::rows + 1]
        if epsilon:
            upper, diag = _power(upper, epsilon), _power(diag, epsilon)
        np.multiply(upper, 2.0 if doubled else 1.0, out=packed[:, :k])
        packed[:, k:] = diag
        finite = np.isfinite(packed).all(axis=1)
        symmetric = (chunk == chunk.transpose(0, 2, 1)).all(axis=(1, 2))
        if not (finite & symmetric).all():
            e = int(np.argmin(finite & symmetric))
            what = "has a non-finite entry" if not finite[e] else "is not exactly symmetric"
            raise NumericError(f"epoch {e0 + e} {what}")
        yield packed


def _pack_epochs(stack: np.ndarray, epsilon: float = 0.0, doubled: bool = False) -> np.ndarray:
    """The packed layout of a whole stack, one (epochs, N(N+1)/2) array; see _packed_chunks."""
    out = np.empty((stack.shape[0], _packed_width(stack.shape[1])))
    for _ in _packed_chunks(stack, epsilon, doubled, out):
        pass
    return out


def _unpack_epochs(packed: np.ndarray, n_labels: int) -> np.ndarray:
    """The (epochs, N, N) stack whose packed layout is ``packed``, mirrored bit for bit.

    Epochs go through about 512 KB at a time into the one new stack.
    """
    n = n_labels
    if packed.ndim != 2 or packed.shape[1] != _packed_width(n) or n == 0:
        raise ValueError(f"packed epochs of shape {packed.shape} for {n} labels")
    row, col = np.triu_indices(n, 1)
    upper_at, lower_at = row * n + col, col * n + row
    k = upper_at.size
    stack = np.empty((len(packed), n, n))
    flat = stack.reshape(len(packed), n * n)
    step = _epochs_per_chunk(n * n)
    for e0 in range(0, len(packed), step):
        rows, epochs = packed[e0:e0 + step], flat[e0:e0 + step]
        epochs[:, upper_at] = rows[:, :k]
        epochs[:, lower_at] = rows[:, :k]
        epochs[:, ::n + 1] = rows[:, k:]
    return stack


def save_series(series: EpochCorrelationSeries, path: str | Path) -> None:
    """Write a series to a correlation archive (the pipeline's corr_raw.npz).

    Its members are ``packed``, the stack's packed layout streamed about
    512 KB of epochs at a time, and ``labels``, ``start_dates`` and
    ``end_dates``.  Raises NumericError naming the first epoch that is
    non-finite or not exactly symmetric, and then leaves no archive.
    """
    stack = series.values_stack()
    save_arrays(
        path,
        packed=StreamedArray((series.n_epochs, _packed_width(series.n_labels)),
                             np.dtype(np.float64), lambda: _packed_chunks(stack)),
        labels=np.array(series.labels),
        start_dates=np.array([m.start_date for m in series.matrices]),
        end_dates=np.array([m.end_date for m in series.matrices]),
    )


def load_series(path: str | Path) -> EpochCorrelationSeries:
    """The series ``save_series`` wrote to ``path``, its stack unpacked bit for bit.

    Raises DataError naming the file and the first member it lacks, as an
    archive of earlier versions lacks ``packed``, or a stack that does not
    match the labels or dates.
    """
    arrays = load_arrays(path)
    for name in ("packed", "labels", "start_dates", "end_dates"):
        if name not in arrays:
            raise DataError(f"{path} has no {name!r} member; "
                            "rerun corr (run --force) to rewrite it")
    labels = [str(s) for s in arrays["labels"]]
    try:
        return EpochCorrelationSeries(labels, _unpack_epochs(arrays["packed"], len(labels)),
                                      [str(s) for s in arrays["start_dates"]],
                                      [str(s) for s in arrays["end_dates"]])
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from exc


def load_series_labels(path: str | Path) -> list[str]:
    """The labels of the series in a correlation archive; its stack is not read."""
    return [str(s) for s in load_arrays(path, ["labels"])["labels"]]


def _zero_variance(rows: np.ndarray) -> str:
    return (f"zero variance in rows {np.flatnonzero(rows).tolist()}; "
            "their correlations are set to 0")


def _pearson_blocks(windows: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Pearson correlation of each (N, T) block of ``windows`` into ``out``.

    ``windows`` is (blocks, N, T) with any strides, ``out`` a C-contiguous
    (blocks, N, N) array.  Blocks go through in chunks of about 2^16 float64
    (512 KB) of output, one batched product per chunk; every step is the
    2-D computation done slice by slice, so each block gets the bits it
    would get alone.  Returns the (blocks, N) mask of zero-variance rows.
    """
    n_blocks, n, T = windows.shape
    flat = np.empty((n_blocks, n), dtype=bool)
    diagonal = np.arange(n)
    step = _epochs_per_chunk(n * n)
    for b0 in range(0, n_blocks, step):
        # a C-contiguous copy: each row mean is then one pairwise sum over T
        X = np.array(windows[b0:b0 + step], dtype=float)
        cov = out[b0:b0 + step]
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
        flat[b0:b0 + step] = rows
    return flat


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
    """Correlation matrix of every epoch of a return panel, built into one (epochs, N, N) array.

    Each epoch with a zero-variance row warns once, naming its 1-based index.
    """
    n = epoch_count(panel.n_returns, spec)
    windows = np.lib.stride_tricks.sliding_window_view(panel.returns, spec.window, axis=1)
    windows = windows[:, ::spec.shift].transpose(1, 0, 2)  # (epochs, N, window) views
    stack = np.empty((n, windows.shape[1], windows.shape[1]))
    flat = _pearson_blocks(windows, stack)
    for index in np.flatnonzero(flat.any(axis=1)):
        warnings.warn(f"epoch {index + 1}: {_zero_variance(flat[index])}",
                      RuntimeWarning, stacklevel=2)
    starts = panel.dates[::spec.shift][:n]
    ends = panel.dates[spec.window - 1::spec.shift][:n]
    return EpochCorrelationSeries(panel.tickers, stack, starts, ends)


def _power(values: np.ndarray, epsilon: float) -> np.ndarray:
    # epsilon 0 must be a bit-for-bit no-op, so short-circuit before pow
    if epsilon == 0.0:
        return values.copy()
    # sign(x) * |x| ** (1 + epsilon) in one output and one temporary;
    # np.copysign would keep -0.0 where np.sign gives +0.0
    dtype = np.result_type(values, 1.0)  # integer input maps to float
    magnitude = np.abs(values, dtype=dtype)
    magnitude **= 1.0 + epsilon
    out = np.sign(values, dtype=dtype)
    out *= magnitude
    return out


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
