"""Rolling-epoch Pearson correlation matrices and the noise-suppression power map.

An epoch is a window of ``window`` consecutive return days advanced by
``shift`` days at a time.  Epoch tau (1-based) covers return columns
``(tau-1)*shift .. (tau-1)*shift + window - 1``, so a panel of L return days
yields ``floor((L - window)/shift) + 1`` epochs.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

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
    """

    labels: list[str]
    matrices: list[CorrelationMatrix]
    epsilon: float = 0.0

    @property
    def n_epochs(self) -> int:
        return len(self.matrices)

    @property
    def n_labels(self) -> int:
        return len(self.labels)

    def values_stack(self) -> np.ndarray:
        return np.stack([m.values for m in self.matrices])


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
    centered = X - X.mean(axis=1, keepdims=True)
    cov = centered @ centered.T / X.shape[1]
    var = np.diag(cov).copy()
    # relative floor catches constant rows whose centering left rounding dust
    scale = (X * X).mean(axis=1)
    flat = var <= 1e-24 * np.maximum(scale, 1e-300)
    if flat.any():
        warnings.warn(
            f"zero variance in rows {np.flatnonzero(flat).tolist()}; "
            "their correlations are set to 0",
            RuntimeWarning,
            stacklevel=2,
        )
        var[flat] = 1.0
    sd = np.sqrt(var)
    corr = cov / np.outer(sd, sd)
    corr[flat, :] = 0.0
    corr[:, flat] = 0.0
    corr = (corr + corr.T) / 2.0
    np.clip(corr, -1.0, 1.0, out=corr)
    np.fill_diagonal(corr, 1.0)
    return corr


def epoch_correlations(panel: ReturnPanel, spec: EpochSpec = EpochSpec()) -> EpochCorrelationSeries:
    """Correlation matrix of every epoch of a return panel."""
    n = epoch_count(panel.n_returns, spec)
    matrices = []
    for index in range(1, n + 1):
        lo, hi = epoch_bounds(index, spec)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            values = pearson_correlation(panel.returns[:, lo:hi])
        for w in caught:
            warnings.warn(f"epoch {index}: {w.message}", RuntimeWarning, stacklevel=2)
        matrices.append(CorrelationMatrix(values, panel.dates[lo], panel.dates[hi - 1]))
    return EpochCorrelationSeries(labels=list(panel.tickers), matrices=matrices)


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
        matrices = [replace(m, values=_power(m.values, epsilon)) for m in obj.matrices]
        return EpochCorrelationSeries(list(obj.labels), matrices, epsilon)
    raise TypeError(f"cannot power-map a {type(obj).__name__}")
