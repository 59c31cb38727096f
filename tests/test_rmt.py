import numpy as np
import pytest
from scipy import integrate

from marketstates import rmt
from marketstates.errors import NumericError
from marketstates.rmt import WishartSpec


def test_spec_validation():
    with pytest.raises(ValueError):
        WishartSpec(N=0, T=10)
    with pytest.raises(ValueError):
        WishartSpec(N=10, T=10, sigma2=0.0)
    with pytest.raises(ValueError):
        WishartSpec(N=10, T=10, ensemble_size=0)
    assert WishartSpec(N=200, T=800).Q == 4.0


def test_sampling_is_deterministic_and_subseeded_by_xor():
    spec = WishartSpec(N=8, T=30, ensemble_size=3, seed=99)
    a = rmt.sample_realization(spec, 2)
    b = rmt.sample_realization(spec, 2)
    np.testing.assert_array_equal(a, b)
    # realization i under seed s equals realization 0 under seed s XOR i
    alt = WishartSpec(N=8, T=30, ensemble_size=1, seed=99 ^ 2)
    np.testing.assert_array_equal(a, rmt.sample_realization(alt, 0))
    assert not np.array_equal(a, rmt.sample_realization(spec, 1))


def test_realizations_are_symmetric_psd():
    spec = WishartSpec(N=30, T=25, ensemble_size=4, seed=1)
    for W in (rmt.sample_realization(spec, i) for i in range(spec.ensemble_size)):
        np.testing.assert_array_equal(W, W.T)
        assert np.linalg.eigvalsh(W).min() > -1e-8


def test_scalar_wishart_estimates_variance():
    spec = WishartSpec(N=1, T=40000, sigma2=2.5, seed=5)
    W = rmt.sample_realization(spec, 0)
    assert W.shape == (1, 1)
    assert abs(W[0, 0] - 2.5) < 0.1


def test_independent_series_have_tiny_cross_term():
    spec = WishartSpec(N=2, T=1_000_000, seed=12)
    W = rmt.sample_realization(spec, 0)
    assert abs(W[0, 1]) < 0.01


def test_large_t_diagonal_near_one():
    spec = WishartSpec(N=5, T=100_000, seed=3)
    W = rmt.sample_realization(spec, 0)
    assert np.abs(np.diag(W) - 1.0).max() < 0.05


def test_mean_parameter_shifts_moments_and_demean_removes_them():
    raw = rmt.sample_realization(WishartSpec(N=3, T=20000, mean=5.0, seed=8), 0)
    assert np.abs(np.diag(raw) - 26.0).max() < 0.5  # E[a^2] = mean^2 + sigma2
    centered = rmt.sample_realization(WishartSpec(N=3, T=20000, mean=5.0, seed=8, demean=True), 0)
    assert np.abs(np.diag(centered) - 1.0).max() < 0.05


def test_mp_support_q4():
    assert rmt.mp_support(4.0, 1.0) == (0.25, 2.25)
    lo, hi = rmt.mp_support(2.0, 3.0)
    assert lo == pytest.approx(3.0 * (1 - 1 / np.sqrt(2)) ** 2)
    assert hi == pytest.approx(3.0 * (1 + 1 / np.sqrt(2)) ** 2)


def test_mp_density_basic_shape():
    assert rmt.mp_density(0.1, 4.0) == 0.0
    assert rmt.mp_density(3.0, 4.0) == 0.0
    assert rmt.mp_density(-1.0, 4.0) == 0.0
    grid = np.linspace(0, 3, 400)
    vals = rmt.mp_density(grid, 4.0)
    assert vals.shape == grid.shape
    assert np.all(vals >= 0)
    assert np.all(vals[(grid < 0.25) | (grid > 2.25)] == 0)
    # square case has the closed form (1/2pi) sqrt((4-x)/x)
    assert rmt.mp_density(2.0, 1.0) == pytest.approx(1.0 / (2.0 * np.pi), rel=1e-12)
    with pytest.raises(ValueError):
        rmt.mp_density(1.0, 0.0)


def test_mp_density_integrates_to_one_or_q():
    for q, expected in [(4.0, 1.0), (2.0, 1.0), (1.0, 1.0), (0.5, 0.5), (0.25, 0.25)]:
        lo, hi = rmt.mp_support(q, 1.0)
        total, err = integrate.quad(lambda x: rmt.mp_density(x, q), lo, hi, limit=200)
        assert err < 1e-7
        assert total == pytest.approx(expected, abs=1e-6)
    # scale invariance of the total mass under sigma2
    lo, hi = rmt.mp_support(4.0, 2.5)
    total, _ = integrate.quad(lambda x: rmt.mp_density(x, 4.0, 2.5), lo, hi, limit=200)
    assert total == pytest.approx(1.0, abs=1e-6)


def test_mp_zero_weight():
    assert rmt.mp_zero_weight(4.0) == 0.0
    assert rmt.mp_zero_weight(1.0) == 0.0
    assert rmt.mp_zero_weight(0.25) == 0.75


def test_empirical_spectrum_identity_matrices():
    sd = rmt.empirical_spectrum([np.eye(4)] * 3, bins=10)
    nonzero_bins = np.flatnonzero(sd.density)
    assert nonzero_bins.size == 1
    left, right = sd.bin_edges[nonzero_bins[0]], sd.bin_edges[nonzero_bins[0] + 1]
    assert left < 1.0 <= right
    assert sd.integral() == pytest.approx(1.0, abs=1e-12)
    assert sd.zero_fraction == 0.0
    assert sd.n_pooled == 12


def test_empirical_spectrum_rejects_bad_input():
    with pytest.raises(NumericError, match="not symmetric"):
        rmt.empirical_spectrum([np.array([[1.0, 0.5], [0.2, 1.0]])])
    with pytest.raises(NumericError, match="not square"):
        rmt.empirical_spectrum([np.ones((2, 3))])
    with pytest.raises(NumericError):
        rmt.empirical_spectrum([])


def test_spectrum_mass_accounting_across_q():
    # Q > 1: no zero modes, bulk mass exactly 1
    rich = rmt.wishart_spectrum(WishartSpec(N=40, T=200, ensemble_size=3, seed=2), bins=50)
    assert rich.zero_fraction == 0.0
    assert rich.integral() == pytest.approx(1.0, abs=1e-12)
    # Q < 1: rank N*Q, so a (1-Q) fraction of exact zeros
    poor = rmt.wishart_spectrum(WishartSpec(N=50, T=20, ensemble_size=3, seed=2), bins=50)
    assert poor.zero_fraction == pytest.approx(0.6, abs=1e-12)
    assert poor.integral() == pytest.approx(0.4, abs=1e-12)
    assert poor.Q == pytest.approx(0.4)


def test_zero_mode_counts_raw_and_demeaned():
    raw = rmt.sample_realization(WishartSpec(N=50, T=20, seed=4), 0)
    n_zero = int(np.sum(np.abs(np.linalg.eigvalsh(raw)) < 1e-10))
    assert n_zero >= 30  # N - T
    centered = rmt.sample_realization(WishartSpec(N=50, T=20, seed=4, demean=True), 0)
    n_zero_centered = int(np.sum(np.abs(np.linalg.eigvalsh(centered)) < 1e-10))
    assert n_zero_centered >= 31  # N - T + 1


def test_marchenko_pastur_agreement_at_reference_ensemble():
    spec = WishartSpec(N=200, T=800, ensemble_size=50, seed=42)
    eigs = rmt.pooled_eigenvalues(spec)
    sd = rmt.spectrum_from_eigenvalues(eigs, bins=100, Q=spec.Q)
    assert rmt.l1_to_analytic(sd) < 0.08
    assert rmt.outside_support_fraction(eigs, spec.Q) < 0.02
    assert (sd.lambda_min, sd.lambda_max) == (0.25, 2.25)


def test_powermapped_spectrum_eps0_matches_raw_exactly():
    spec = WishartSpec(N=30, T=60, ensemble_size=4, seed=6)
    raw = rmt.wishart_spectrum(spec, bins=40)
    mapped = rmt.powermapped_spectrum(spec, 0.0, bins=40)
    np.testing.assert_array_equal(raw.density, mapped.density)
    np.testing.assert_array_equal(raw.bin_edges, mapped.bin_edges)
    with pytest.raises(ValueError):
        rmt.powermapped_spectrum(spec, -0.5)


def test_powermap_frees_zero_modes_into_emerging_bulk():
    spec = WishartSpec(N=100, T=20, ensemble_size=5, seed=10)
    raw = rmt.wishart_spectrum(spec, bins=60)
    assert raw.zero_fraction == pytest.approx(0.8, abs=1e-12)
    lifted = rmt.powermapped_spectrum(spec, 0.01, bins=60)
    assert lifted.zero_fraction < raw.zero_fraction
    assert lifted.integral() > raw.integral()


def test_powermap_narrows_noise_spectrum():
    spec = WishartSpec(N=150, T=300, ensemble_size=4, seed=11)
    raw = rmt.pooled_eigenvalues(spec, epsilon=0.0)
    mapped = rmt.pooled_eigenvalues(spec, epsilon=0.63)
    assert mapped.max() - mapped.min() < raw.max() - raw.min()
    raw_sd = rmt.spectrum_from_eigenvalues(raw, bins=80, Q=spec.Q)
    mapped_sd = rmt.spectrum_from_eigenvalues(mapped, bins=80, Q=spec.Q)
    assert rmt.spectral_variance(mapped_sd) < rmt.spectral_variance(raw_sd)


def test_powermap_can_match_longer_window_variance():
    # noise suppression on short windows stands in for longer observation:
    # some eps brings the T=1000 spectrum variance to the raw T=5000 level
    target = rmt.spectral_variance(
        rmt.wishart_spectrum(WishartSpec(N=500, T=5000, ensemble_size=2, seed=7), bins=100)
    )
    base = WishartSpec(N=500, T=1000, ensemble_size=2, seed=7)
    ratios = {}
    for eps in [0.15, 0.20, 0.25, 0.265, 0.30, 0.35]:
        var = rmt.spectral_variance(rmt.powermapped_spectrum(base, eps, bins=100))
        ratios[eps] = var / target
    best = min(ratios, key=lambda e: abs(ratios[e] - 1.0))
    assert abs(ratios[best] - 1.0) < 0.10
    assert abs(ratios[0.265] - 1.0) < 0.10
