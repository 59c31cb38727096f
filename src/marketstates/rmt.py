"""Wishart orthogonal ensemble sampling and the Marchenko-Pastur law.

The ensemble is the null model for correlation matrices of uncorrelated
series: W = (1/T) A A' with A an N x T matrix of i.i.d. real Gaussians.
Eigenvalue histograms of sampled ensembles are compared against the analytic
limiting density, and the same machinery exposes what the power map does to
a pure-noise spectrum.  A histogram carries no law: each comparison takes the
law's Q and sigma^2, both finite and > 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .corrmat import power_map
from .errors import NumericError

ZERO_EIGENVALUE_TOL = 1e-10
SPECTRUM_BINS = 100  # histogram bins of a pooled spectrum


@dataclass(frozen=True)
class WishartSpec:
    """Parameters of one Wishart orthogonal ensemble: N x T Gaussians of mean 0, variance sigma2."""

    N: int
    T: int
    sigma2: float = 1.0
    ensemble_size: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.N < 1 or self.T < 1 or self.ensemble_size < 1:
            raise ValueError("N, T and ensemble_size must all be >= 1")
        if not 0 < self.sigma2 < math.inf:
            raise ValueError(f"sigma2 must be finite and > 0, got {self.sigma2}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

    @property
    def Q(self) -> float:
        return self.T / self.N


def _draw(spec: WishartSpec, index: int) -> np.ndarray:
    """The N x T matrix A of realization ``index``.

    Realization i draws from PCG64 seeded with seed XOR i, so any slice of
    the ensemble is reproducible without generating the rest.
    """
    rng = np.random.Generator(np.random.PCG64(spec.seed ^ index))
    return rng.normal(0.0, np.sqrt(spec.sigma2), size=(spec.N, spec.T))


def sample_realization(spec: WishartSpec, index: int) -> np.ndarray:
    """Realization ``index`` of the ensemble: W = (1/T) A A'."""
    A = _draw(spec, index)
    W = A @ A.T / spec.T
    return (W + W.T) / 2.0


def pooled_eigenvalues(spec: WishartSpec, epsilon: float = 0.0) -> np.ndarray:
    """Eigenvalues of every realization, concatenated in realization order.

    Realizations are drawn, power-mapped (unless epsilon is 0) and
    diagonalized one after another in a fixed order.  Raw realizations with
    T < N diagonalize the T x T Gram matrix (1/T) A'A instead of W: it has
    W's nonzero spectrum, and W's other N - T eigenvalues are zero, so they
    are inserted as exact zeros.  Each realization's eigenvalues stay ascending.
    """
    parts = []
    for index in range(spec.ensemble_size):
        if epsilon == 0.0 and spec.T < spec.N:
            A = _draw(spec, index)
            eigs = np.linalg.eigvalsh(A.T @ A / spec.T)
            at = np.searchsorted(eigs, 0.0)
            parts += [eigs[:at], np.zeros(spec.N - spec.T), eigs[at:]]
        else:
            W = sample_realization(spec, index)
            parts.append(np.linalg.eigvalsh(power_map(W, epsilon) if epsilon != 0.0 else W))
    return np.concatenate(parts)


def mp_support(Q: float, sigma2: float = 1.0) -> tuple[float, float]:
    """Analytic bulk support sigma^2 (1 -+ 1/sqrt(Q))^2; Q and sigma2 finite and > 0."""
    if not (0 < Q < math.inf and 0 < sigma2 < math.inf):
        raise ValueError(f"Q and sigma2 must be finite and > 0, got {Q} and {sigma2}")
    root = 1.0 / np.sqrt(Q)
    return sigma2 * (1.0 - root) ** 2, sigma2 * (1.0 + root) ** 2


def mp_density(lam, Q: float, sigma2: float = 1.0):
    """Marchenko-Pastur bulk density at lam; 0 outside the support.

    The point mass 1 - Q at zero for Q < 1 is never part of the density:
    the bulk integrates to 1 for Q >= 1 and to Q otherwise.
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
    """Histogram estimate of an eigenvalue density, with no analytic law attached.

    ``density`` is normalized against the full pooled count while near-zero
    modes (|lam| < 1e-10) are excluded from the bins, so the integral is 1
    when there is no zero degeneracy and about Q when a (1-Q) fraction of
    modes sits at zero.  ``l1_to_analytic`` takes the law's Q and sigma^2.
    """

    bin_edges: np.ndarray
    density: np.ndarray
    zero_fraction: float

    @property
    def bin_centers(self) -> np.ndarray:
        return (self.bin_edges[:-1] + self.bin_edges[1:]) / 2.0

    @property
    def bin_width(self) -> float:
        return float(self.bin_edges[1] - self.bin_edges[0])


def _check_bins(bins: int) -> None:
    if bins < 1:
        raise ValueError(f"bins must be >= 1, got {bins}")


def spectrum_from_eigenvalues(eigenvalues: np.ndarray,
                              bins: int = SPECTRUM_BINS) -> SpectralDensity:
    """Pooled-eigenvalue histogram over [0, max], density-normalized."""
    eigenvalues = np.asarray(eigenvalues, dtype=float)
    if eigenvalues.size == 0:
        raise NumericError("no eigenvalues to bin")
    _check_bins(bins)
    nonzero = eigenvalues[np.abs(eigenvalues) >= ZERO_EIGENVALUE_TOL]
    zero_fraction = 1.0 - nonzero.size / eigenvalues.size
    top = float(eigenvalues.max())
    if top <= 0:
        raise NumericError("spectrum has no positive eigenvalues to histogram")
    counts, edges = np.histogram(np.clip(nonzero, 0.0, None), bins=bins, range=(0.0, top))
    width = edges[1] - edges[0]
    density = counts / (eigenvalues.size * width)
    return SpectralDensity(
        bin_edges=edges,
        density=density,
        zero_fraction=zero_fraction,
    )


def l1_to_analytic(sd: SpectralDensity, Q: float, sigma2: float = 1.0) -> float:
    """L1 distance between a histogram density and the analytic bulk law at Q, sigma2.

    Evaluated at bin centers: sum_i |rho_hat_i - rho(c_i)| * width.
    """
    analytic = mp_density(sd.bin_centers, Q, sigma2)
    return float(np.abs(sd.density - analytic).sum() * sd.bin_width)


def outside_support_fraction(eigenvalues: np.ndarray, Q: float, sigma2: float = 1.0) -> float:
    """Fraction of eigenvalues outside the analytic support (zero modes excluded)."""
    lo, hi = mp_support(Q, sigma2)
    eigenvalues = np.asarray(eigenvalues, dtype=float)
    nonzero = eigenvalues[np.abs(eigenvalues) >= ZERO_EIGENVALUE_TOL]
    if nonzero.size == 0:
        raise NumericError("no nonzero eigenvalues")
    outside = (nonzero < lo) | (nonzero > hi)
    return float(outside.mean())
