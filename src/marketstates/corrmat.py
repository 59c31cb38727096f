"""Rolling-epoch Pearson correlation matrices and the noise-suppression power map.

An epoch is a window of ``window`` consecutive return days advanced by
``shift`` days at a time.  Epoch tau (1-based) covers return columns
``(tau-1)*shift .. (tau-1)*shift + window - 1``, so a panel of L return days
yields ``floor((L - window)/shift) + 1`` epochs.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericError
from .ingest import ReturnPanel


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


@dataclass
class EpochCorrelationSeries:
    """Ordered correlation matrices of every epoch, one row and column per label.

    The one epoch-stack type: stock-level series carry tickers as labels,
    sector-averaged ones sector names.  ``epsilon`` records the power-map
    exponent already applied to every matrix (0.0 means plain Pearson).
    A series built with ``from_stack`` holds one (epochs, N, N) array: its
    records are read-only views into it and ``values_stack()`` is that
    array.  One built record by record stacks its records on every
    ``values_stack()`` call.
    """

    labels: list[str]
    matrices: list[CorrelationMatrix]
    epsilon: float = 0.0
    _stack: np.ndarray | None = field(default=None, repr=False, compare=False)

    @classmethod
    def from_stack(cls, labels, stack: np.ndarray, start_dates, end_dates,
                   epsilon: float = 0.0) -> "EpochCorrelationSeries":
        """A series over ``stack`` itself, not a copy of it; the series cannot write to it."""
        held = stack.view()
        held.flags.writeable = False
        matrices = [CorrelationMatrix(values, start, end)
                    for values, start, end in zip(held, start_dates, end_dates, strict=True)]
        return cls(list(labels), matrices, epsilon, held)

    @property
    def n_epochs(self) -> int:
        return len(self.matrices)

    @property
    def n_labels(self) -> int:
        return len(self.labels)

    def values_stack(self) -> np.ndarray:
        if self._stack is None:
            return np.stack([m.values for m in self.matrices])
        return self._stack


def _epochs_per_chunk(epoch_size: int) -> int:
    """Epochs of ``epoch_size`` values each that make a chunk of about 2^16 float64 (512 KB)."""
    return max(1, (1 << 16) // max(epoch_size, 1))


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
    return EpochCorrelationSeries.from_stack(panel.tickers, stack, starts, ends)


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
    if epsilon < 0:
        raise ValueError(f"epsilon must be >= 0, got {epsilon}")


def power_map(obj, epsilon: float):
    """Element-wise x -> sign(x) |x|^(1+epsilon), diagonal included.

    Shrinks small (mostly noise) correlations toward zero faster than strong
    ones, which also breaks the rank degeneracy of short-window correlation
    matrices.  Accepts a bare array or a whole series and returns the same
    kind of object; a series keeps its labels and dates.
    """
    _check_epsilon(epsilon)
    if isinstance(obj, np.ndarray):
        return _power(obj, epsilon)
    if isinstance(obj, EpochCorrelationSeries):
        stack = obj.values_stack()
        mapped = np.empty(stack.shape, np.result_type(stack, 1.0))
        # chunk by chunk: the map's temporary stays a chunk, not a second stack
        step = _epochs_per_chunk(int(np.prod(stack.shape[1:])))
        for e0 in range(0, len(stack), step):
            mapped[e0:e0 + step] = _power(stack[e0:e0 + step], epsilon)
        return EpochCorrelationSeries.from_stack(
            obj.labels, mapped, [m.start_date for m in obj.matrices],
            [m.end_date for m in obj.matrices], epsilon)
    raise TypeError(f"cannot power-map a {type(obj).__name__}")
