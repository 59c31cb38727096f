import numpy as np
import pytest
from scipy import integrate

from marketstates import rmt
from marketstates.corrmat import power_map
from marketstates.errors import NumericError
from marketstates.pipeline import rmt_report_payload
from marketstates.rmt import ZERO_EIGENVALUE_TOL, WishartSpec


def spectrum(spec, bins, epsilon=0.0):
    """The binned density of the ensemble's pooled eigenvalues, power-mapped at ``epsilon``."""
    return rmt.spectrum_from_eigenvalues(rmt.pooled_eigenvalues(spec, epsilon), bins)


def mass(density):
    """The binned density's total: 1, less the share of zero modes, which no bin counts."""
    return density.density.sum() * density.bin_width


def nonzero_variance(eigenvalues):
    """Variance of the bulk: the pooled eigenvalues without the zero modes."""
    return eigenvalues[np.abs(eigenvalues) >= ZERO_EIGENVALUE_TOL].var()


def test_spec_validation():
    with pytest.raises(ValueError):
        WishartSpec(N=0, T=10)
    with pytest.raises(ValueError):
        WishartSpec(N=10, T=10, sigma2=0.0)
    with pytest.raises(ValueError):
        WishartSpec(N=10, T=10, ensemble_size=0)
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        WishartSpec(N=10, T=10, seed=-1)
    for sigma2 in (np.nan, np.inf):
        with pytest.raises(ValueError, match=f"sigma2 must be finite and > 0, got {sigma2}"):
            WishartSpec(N=10, T=10, sigma2=sigma2)
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


def test_empirical_spectrum_identity_matrices():
    eigenvalues = np.concatenate([np.linalg.eigvalsh(np.eye(4))] * 3)
    sd = rmt.spectrum_from_eigenvalues(eigenvalues, bins=10)
    nonzero_bins = np.flatnonzero(sd.density)
    assert nonzero_bins.size == 1
    left, right = sd.bin_edges[nonzero_bins[0]], sd.bin_edges[nonzero_bins[0] + 1]
    assert left < 1.0 <= right
    assert mass(sd) == pytest.approx(1.0, abs=1e-12)
    assert sd.zero_fraction == 0.0


def test_empirical_spectrum_rejects_bad_input():
    with pytest.raises(NumericError, match="no eigenvalues to bin"):
        rmt.spectrum_from_eigenvalues(np.array([]))
    with pytest.raises(NumericError, match="no positive eigenvalues"):
        rmt.spectrum_from_eigenvalues(np.array([0.0, -1.0]))
    with pytest.raises(ValueError, match="bins must be >= 1, got 0"):
        rmt.spectrum_from_eigenvalues(np.ones(3), bins=0)


def test_spectrum_mass_accounting_across_q():
    # Q > 1: no zero modes, bulk mass exactly 1
    rich = spectrum(WishartSpec(N=40, T=200, ensemble_size=3, seed=2), bins=50)
    assert rich.zero_fraction == 0.0
    assert mass(rich) == pytest.approx(1.0, abs=1e-12)
    # Q < 1: rank N*Q, so a (1-Q) fraction of exact zeros
    poor = spectrum(WishartSpec(N=50, T=20, ensemble_size=3, seed=2), bins=50)
    assert poor.zero_fraction == pytest.approx(0.6, abs=1e-12)
    assert mass(poor) == pytest.approx(0.4, abs=1e-12)


def test_zero_mode_counts_raw_and_demeaned():
    raw = rmt.sample_realization(WishartSpec(N=50, T=20, seed=4), 0)
    n_zero = int(np.sum(np.abs(np.linalg.eigvalsh(raw)) < 1e-10))
    assert n_zero >= 30  # N - T


def test_marchenko_pastur_agreement_at_reference_ensemble():
    spec = WishartSpec(N=200, T=800, ensemble_size=50, seed=42)
    eigs = rmt.pooled_eigenvalues(spec)
    sd = rmt.spectrum_from_eigenvalues(eigs, bins=100)
    assert rmt.l1_to_analytic(sd, spec.Q) < 0.08
    assert rmt.outside_support_fraction(eigs, spec.Q) < 0.02
    assert rmt.mp_support(spec.Q) == (0.25, 2.25)


def test_histogram_is_compared_against_the_law_it_is_given():
    # the density carries no law: a sigma2 = 2.5 ensemble matches the sigma2 = 2.5
    # law and not the default sigma2 = 1 one
    spec = WishartSpec(N=100, T=400, ensemble_size=20, seed=3, sigma2=2.5)
    sd = spectrum(spec, bins=60)
    assert rmt.l1_to_analytic(sd, spec.Q, spec.sigma2) < 0.08
    assert rmt.l1_to_analytic(sd, spec.Q) > 0.5


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("param", ["Q", "sigma2"])
@pytest.mark.parametrize("call", [
    lambda Q, sigma2: rmt.mp_support(Q, sigma2),
    lambda Q, sigma2: rmt.mp_density([0.5, 1.0, 2.0], Q, sigma2),
    lambda Q, sigma2: rmt.outside_support_fraction([0.5, 1.0, 9.0], Q, sigma2),
], ids=["mp_support", "mp_density", "outside_support_fraction"])
def test_the_law_rejects_a_non_finite_q_or_sigma2(call, param, bad):
    args = {"Q": 4.0, "sigma2": 1.0, param: bad}
    with pytest.raises(ValueError, match="must be finite and > 0"):
        call(**args)


def test_powermapped_spectrum_eps0_matches_raw_exactly():
    spec = WishartSpec(N=30, T=60, ensemble_size=4, seed=6)
    raw = spectrum(spec, bins=40)
    mapped = spectrum(spec, bins=40, epsilon=0.0)
    np.testing.assert_array_equal(raw.density, mapped.density)
    np.testing.assert_array_equal(raw.bin_edges, mapped.bin_edges)
    with pytest.raises(ValueError, match="epsilon"):
        rmt.pooled_eigenvalues(spec, epsilon=-0.5)


def test_powermap_frees_zero_modes_into_emerging_bulk():
    spec = WishartSpec(N=100, T=20, ensemble_size=5, seed=10)
    raw = spectrum(spec, bins=60)
    assert raw.zero_fraction == pytest.approx(0.8, abs=1e-12)
    lifted = spectrum(spec, bins=60, epsilon=0.01)
    assert lifted.zero_fraction < raw.zero_fraction
    assert mass(lifted) > mass(raw)


def test_powermap_narrows_noise_spectrum():
    spec = WishartSpec(N=150, T=300, ensemble_size=4, seed=11)
    raw = rmt.pooled_eigenvalues(spec, epsilon=0.0)
    mapped = rmt.pooled_eigenvalues(spec, epsilon=0.63)
    assert mapped.max() - mapped.min() < raw.max() - raw.min()
    assert nonzero_variance(mapped) < nonzero_variance(raw)


def test_powermap_can_match_longer_window_variance():
    # noise suppression on short windows stands in for longer observation:
    # some eps brings the T=1000 spectrum variance to the raw T=5000 level
    target = nonzero_variance(
        rmt.pooled_eigenvalues(WishartSpec(N=500, T=5000, ensemble_size=2, seed=7)))
    base = WishartSpec(N=500, T=1000, ensemble_size=2, seed=7)
    ratios = {}
    for eps in [0.15, 0.20, 0.25, 0.265, 0.30, 0.35]:
        ratios[eps] = nonzero_variance(rmt.pooled_eigenvalues(base, epsilon=eps)) / target
    best = min(ratios, key=lambda e: abs(ratios[e] - 1.0))
    assert abs(ratios[best] - 1.0) < 0.10
    assert abs(ratios[0.265] - 1.0) < 0.10


def dense_pooled_eigenvalues(spec, epsilon=0.0):
    """The reference: every realization's N x N matrix W, power-mapped and diagonalized."""
    parts = []
    for index in range(spec.ensemble_size):
        W = rmt.sample_realization(spec, index)
        parts.append(np.linalg.eigvalsh(power_map(W, epsilon) if epsilon != 0.0 else W))
    return np.concatenate(parts)


@pytest.mark.parametrize("N, T", [(200, 20), (40, 20), (21, 20)])
def test_short_window_spectrum_matches_the_dense_reference(N, T):
    spec = WishartSpec(N=N, T=T, ensemble_size=3, seed=5, sigma2=2.5)
    got = rmt.pooled_eigenvalues(spec)
    want = dense_pooled_eigenvalues(spec)
    assert got.shape == want.shape
    for g, w in zip(got.reshape(-1, N), want.reshape(-1, N)):
        assert np.all(np.diff(g) >= 0)  # ascending within each realization
        g_zero, w_zero = np.abs(g) < ZERO_EIGENVALUE_TOL, np.abs(w) < ZERO_EIGENVALUE_TOL
        assert g_zero.sum() == w_zero.sum() >= N - T
        # eigvalsh is accurate to rounding of the largest eigenvalue, on either path
        np.testing.assert_allclose(g[~g_zero], w[~w_zero], rtol=0, atol=1e-12 * w.max())


@pytest.mark.parametrize("N, T, epsilon", [
    (20, 20, 0.0), (15, 40, 0.0), (40, 20, 0.3), (15, 40, 0.3),
])
def test_spectrum_is_the_dense_one_bit_for_bit_unless_the_window_is_short(N, T, epsilon):
    spec = WishartSpec(N=N, T=T, ensemble_size=3, seed=9, sigma2=2.5)
    np.testing.assert_array_equal(rmt.pooled_eigenvalues(spec, epsilon=epsilon),
                                  dense_pooled_eigenvalues(spec, epsilon=epsilon))


def test_short_window_spectrum_diagonalizes_no_n_by_n_matrix(monkeypatch):
    shapes = []
    eigvalsh = np.linalg.eigvalsh

    def recording(M):
        shapes.append(M.shape)
        return eigvalsh(M)

    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    rmt.pooled_eigenvalues(WishartSpec(N=50, T=20, ensemble_size=4))
    assert shapes == [(20, 20)] * 4
    shapes.clear()
    rmt.pooled_eigenvalues(WishartSpec(N=50, T=20, ensemble_size=4), epsilon=0.5)
    assert shapes == [(50, 50)] * 4  # the power map needs W's entries


def test_short_window_report_matches_the_dense_reference(monkeypatch):
    import marketstates.pipeline as pipeline

    spec = WishartSpec(N=200, T=20, ensemble_size=50, seed=0)
    got = rmt_report_payload(spec, bins=100)
    monkeypatch.setattr(pipeline, "pooled_eigenvalues", dense_pooled_eigenvalues)
    want = rmt_report_payload(spec, bins=100)
    assert got.pop("l1_to_analytic") == pytest.approx(want.pop("l1_to_analytic"), rel=1e-12, abs=0)
    assert got == want

