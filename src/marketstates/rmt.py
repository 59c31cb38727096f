"""Wishart orthogonal ensemble sampling and the Marchenko-Pastur law.

The ensemble is the null model for correlation matrices of uncorrelated
series: W = (1/T) A A' with A an N x T matrix of i.i.d. real Gaussians.
Eigenvalue histograms of sampled ensembles are compared against the analytic
limiting density, and the same machinery exposes what the power map does to
a pure-noise spectrum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corrmat import power_map
from .errors import NumericError

ZERO_EIGENVALUE_TOL = 1e-10


@dataclass(frozen=True)
class WishartSpec:
    """Parameters of one Wishart orthogonal ensemble.

    ``mean`` is exposed because correlation-like behaviour needs mean 0 while
    some spectral studies use nonzero means; ``demean`` subtracts each row's
    sample mean before forming W, mimicking the Pearson pipeline.
    """

    N: int
    T: int
    sigma2: float = 1.0
    ensemble_size: int = 1
    seed: int = 0
    mean: float = 0.0
    demean: bool = False

    def __post_init__(self) -> None:
        if self.N < 1 or self.T < 1 or self.ensemble_size < 1:
            raise ValueError("N, T and ensemble_size must all be >= 1")
        if self.sigma2 <= 0:
            raise ValueError(f"sigma2 must be > 0, got {self.sigma2}")

    @property
    def Q(self) -> float:
        return self.T / self.N


def sample_realization(spec: WishartSpec, index: int) -> np.ndarray:
    """Realization ``index`` of the ensemble: W = (1/T) A A'.

    Realization i draws from PCG64 seeded with seed XOR i, so any slice of
    the ensemble is reproducible without generating the rest.
    """
    rng = np.random.Generator(np.random.PCG64(spec.seed ^ index))
    A = rng.normal(spec.mean, np.sqrt(spec.sigma2), size=(spec.N, spec.T))
    if spec.demean:
        A -= A.mean(axis=1, keepdims=True)
    W = A @ A.T / spec.T
    return (W + W.T) / 2.0


def pooled_eigenvalues(spec: WishartSpec, epsilon: float = 0.0) -> np.ndarray:
    """Eigenvalues of every realization, concatenated in realization order.

    Realizations are drawn, power-mapped (unless epsilon is 0) and
    diagonalized one after another in a fixed order.
    """
    parts = []
    for index in range(spec.ensemble_size):
        W = sample_realization(spec, index)
        parts.append(np.linalg.eigvalsh(power_map(W, epsilon) if epsilon != 0.0 else W))
    return np.concatenate(parts)


def mp_support(Q: float, sigma2: float = 1.0) -> tuple[float, float]:
    """Analytic bulk support sigma^2 (1 -+ 1/sqrt(Q))^2."""
    if Q <= 0 or sigma2 <= 0:
        raise ValueError("Q and sigma2 must be > 0")
    root = 1.0 / np.sqrt(Q)
    return sigma2 * (1.0 - root) ** 2, sigma2 * (1.0 + root) ** 2


def mp_zero_weight(Q: float) -> float:
    """Weight of the point mass at zero: 1 - Q for Q < 1, else 0."""
    return max(0.0, 1.0 - Q)


def mp_density(lam, Q: float, sigma2: float = 1.0):
    """Marchenko-Pastur bulk density at lam; 0 outside the support.

    The Q <= 1 point mass at zero is never part of the density; query it via
    mp_zero_weight.  The bulk integrates to 1 for Q >= 1 and to Q otherwise.
    """
    lo, hi = mp_support(Q, sigma2)
    lam_arr = np.asarray(lam, dtype=float)
    out = np.zeros_like(lam_arr)
    inside = (lam_arr > lo) & (lam_arr < hi) & (lam_arr > 0)
    x = lam_arr[inside]
    out[inside] = Q / (2.0 * np.pi * sigma2) * np.sqrt((hi - x) * (x - lo)) / x
    if out.ndim == 0:
        return float(out)
    return out


@dataclass
class SpectralDensity:
    """Histogram estimate of an eigenvalue density.

    ``density`` is normalized against the full pooled count while near-zero
    modes (|lam| < 1e-10) are excluded from the bins, so the integral is 1
    when there is no zero degeneracy and about Q when a (1-Q) fraction of
    modes sits at zero.  ``Q``/``lambda_min``/``lambda_max`` are the analytic
    context when known, else NaN.
    """

    bin_edges: np.ndarray
    density: np.ndarray
    Q: float
    lambda_min: float
    lambda_max: float
    zero_fraction: float
    n_pooled: int

    @property
    def bin_centers(self) -> np.ndarray:
        return (self.bin_edges[:-1] + self.bin_edges[1:]) / 2.0

    @property
    def bin_width(self) -> float:
        return float(self.bin_edges[1] - self.bin_edges[0])

    def integral(self) -> float:
        return float(self.density.sum() * self.bin_width)


def spectrum_from_eigenvalues(eigenvalues: np.ndarray, bins: int = 100,
                              Q: float = float("nan"), sigma2: float = 1.0) -> SpectralDensity:
    """Pooled-eigenvalue histogram over [0, max], density-normalized."""
    eigenvalues = np.asarray(eigenvalues, dtype=float)
    if eigenvalues.size == 0:
        raise NumericError("no eigenvalues to bin")
    if bins < 1:
        raise ValueError(f"bins must be >= 1, got {bins}")
    nonzero = eigenvalues[np.abs(eigenvalues) >= ZERO_EIGENVALUE_TOL]
    zero_fraction = 1.0 - nonzero.size / eigenvalues.size
    top = float(eigenvalues.max())
    if top <= 0:
        raise NumericError("spectrum has no positive eigenvalues to histogram")
    counts, edges = np.histogram(np.clip(nonzero, 0.0, None), bins=bins, range=(0.0, top))
    width = edges[1] - edges[0]
    density = counts / (eigenvalues.size * width)
    if np.isnan(Q):
        lo = hi = float("nan")
    else:
        lo, hi = mp_support(Q, sigma2)
    return SpectralDensity(
        bin_edges=edges,
        density=density,
        Q=Q,
        lambda_min=lo,
        lambda_max=hi,
        zero_fraction=zero_fraction,
        n_pooled=int(eigenvalues.size),
    )


def empirical_spectrum(matrices, bins: int = 100,
                       Q: float = float("nan"), sigma2: float = 1.0) -> SpectralDensity:
    """Pooled spectral density of a list of symmetric matrices."""
    pool = []
    for k, M in enumerate(matrices):
        M = np.asarray(M, dtype=float)
        if M.ndim != 2 or M.shape[0] != M.shape[1]:
            raise NumericError(f"matrix {k} is not square: shape {M.shape}")
        scale = max(1.0, float(np.abs(M).max()))
        if np.abs(M - M.T).max() > 1e-10 * scale:
            raise NumericError(f"matrix {k} is not symmetric")
        pool.append(np.linalg.eigvalsh(M))
    if not pool:
        raise NumericError("empty matrix list")
    return spectrum_from_eigenvalues(np.concatenate(pool), bins=bins, Q=Q, sigma2=sigma2)


def wishart_spectrum(spec: WishartSpec, bins: int = 100) -> SpectralDensity:
    """Spectral density of a raw sampled ensemble."""
    eigs = pooled_eigenvalues(spec)
    return spectrum_from_eigenvalues(eigs, bins=bins, Q=spec.Q, sigma2=spec.sigma2)


def powermapped_spectrum(spec: WishartSpec, epsilon: float, bins: int = 100) -> SpectralDensity:
    """Spectral density after the power map hits every realization.

    With small T the raw matrices are singular; even a tiny epsilon frees
    the degenerate zero modes into an emerging bulk near zero.
    """
    if epsilon < 0:
        raise ValueError(f"epsilon must be >= 0, got {epsilon}")
    eigs = pooled_eigenvalues(spec, epsilon=epsilon)
    return spectrum_from_eigenvalues(eigs, bins=bins, Q=spec.Q, sigma2=spec.sigma2)


def l1_to_analytic(sd: SpectralDensity, sigma2: float = 1.0) -> float:
    """L1 distance between a histogram density and the analytic bulk law.

    Evaluated at bin centers: sum_i |rho_hat_i - rho(c_i)| * width.
    """
    if np.isnan(sd.Q):
        raise NumericError("spectral density has no Q; cannot compare to the analytic law")
    analytic = mp_density(sd.bin_centers, sd.Q, sigma2)
    return float(np.abs(sd.density - analytic).sum() * sd.bin_width)


def spectral_variance(sd: SpectralDensity) -> float:
    """Variance of the binned bulk (zero modes excluded by construction)."""
    weights = sd.density * sd.bin_width
    total = weights.sum()
    if total <= 0:
        raise NumericError("empty spectral density")
    centers = sd.bin_centers
    mean = float((weights * centers).sum() / total)
    return float((weights * (centers - mean) ** 2).sum() / total)


def outside_support_fraction(eigenvalues: np.ndarray, Q: float, sigma2: float = 1.0) -> float:
    """Fraction of eigenvalues outside the analytic support (zero modes excluded)."""
    lo, hi = mp_support(Q, sigma2)
    eigenvalues = np.asarray(eigenvalues, dtype=float)
    nonzero = eigenvalues[np.abs(eigenvalues) >= ZERO_EIGENVALUE_TOL]
    if nonzero.size == 0:
        raise NumericError("no nonzero eigenvalues")
    outside = (nonzero < lo) | (nonzero > hi)
    return float(outside.mean())
