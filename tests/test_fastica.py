"""Tests for the FastICA fixed-point estimator."""
import numpy as np
import pytest

from ebiunmix.errors import DimensionError, InvalidInputError, NonWhiteInputError
from ebiunmix.fastica import (
    GAUSSIAN_LOGCOSH_MEAN,
    ConvergenceReport,
    IcaConfig,
    IcaModel,
    contrast_eval,
    fit_fastica,
    separate,
)
from ebiunmix.metrics import amari_index, match_components
from ebiunmix.pca import fit_pca, whiten

from oracles import gauss_logcosh_mean

KNOWN_MIXING = np.array([[1.0, 0.5], [0.3, 1.0]])


def uniform_sources(n, seed, k=2):
    rng = np.random.default_rng(seed)
    return rng.uniform(-np.sqrt(3.0), np.sqrt(3.0), size=(n, k))


def whitened_mixture(sources, mixing):
    x = sources @ mixing.T
    model = fit_pca(x, retained=x.shape[1])
    white, whitening, dewhitening = whiten(model, x, x.shape[1])
    return white, whitening, dewhitening


class TestContrastEval:
    def test_logcosh_at_zero(self):
        g, gp = contrast_eval("logcosh", 0.0)
        assert g == 0.0
        assert gp == 1.0

    def test_pow3_at_two(self):
        g, gp = contrast_eval("pow3", 2.0)
        assert g == 8.0
        assert gp == 12.0

    @pytest.mark.parametrize("contrast", ["logcosh", "pow3"])
    def test_g_odd_g_prime_even(self, contrast):
        grid = np.linspace(0.1, 4.0, 25)
        g_pos, gp_pos = contrast_eval(contrast, grid)
        g_neg, gp_neg = contrast_eval(contrast, -grid)
        assert np.abs(g_pos + g_neg).max() < 1e-12
        assert np.abs(gp_pos - gp_neg).max() < 1e-12

    def test_gaussian_logcosh_constant_matches_quadrature(self):
        assert GAUSSIAN_LOGCOSH_MEAN == pytest.approx(gauss_logcosh_mean(), abs=1e-12)


class TestFitFastica:
    def test_recovers_known_mixing(self):
        sources = uniform_sources(10000, seed=42)
        white, whitening, dewhitening = whitened_mixture(sources, KNOWN_MIXING)
        model = fit_fastica(white, IcaConfig(seed=0), dewhitening=dewhitening)
        assert model.convergence.converged

        estimated = separate(model, white)
        report = match_components(estimated, sources)
        assert report.min_abs_correlation() >= 0.99

        # unmixing from channel space composed with the true mixing
        w_total = model.unmixing @ whitening.T
        assert amari_index(w_total, KNOWN_MIXING) < 0.05

    def test_white_independent_input_gives_permutation(self):
        sources = uniform_sources(20000, seed=7)
        # symmetric (ZCA) whitening keeps the source axes while making the
        # sample covariance exactly identity, so there is nothing to unmix
        from ebiunmix.linalg import covariance, sym_eigen

        centered = sources - sources.mean(axis=0)
        eig = sym_eigen(covariance(centered))
        inv_sqrt = (eig.eigenvectors / np.sqrt(eig.eigenvalues)) @ eig.eigenvectors.T
        white = centered @ inv_sqrt
        model = fit_fastica(white, IcaConfig(seed=1))
        w = np.abs(model.unmixing)
        best = np.zeros_like(w)
        for i in range(2):
            best[i, np.argmax(w[i])] = 1.0
        assert np.abs(w - best).max() < 0.05

    def test_gaussian_sources_flagged_not_fatal(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((5000, 2))
        model_pca = fit_pca(x, retained=2)
        white, _, _ = whiten(model_pca, x, 2)
        model = fit_fastica(white, IcaConfig(seed=2, max_iterations=50))
        # Gaussian sources are unidentifiable: any rotation is a fixed point,
        # so we only require a well-formed flagged model, not convergence
        assert isinstance(model.convergence.converged, bool)
        k = model.n_components
        assert np.abs(model.unmixing @ model.unmixing.T - np.eye(k)).max() < 1e-6

    def test_non_white_input_rejected(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-2.0, 2.0, size=(500, 2))  # raw, not whitened
        with pytest.raises(NonWhiteInputError):
            fit_fastica(x)

    def test_rejects_nan_in_white(self):
        white, _, _ = whitened_mixture(uniform_sources(1000, seed=19), KNOWN_MIXING)
        white[10, 1] = np.nan
        with pytest.raises(InvalidInputError):
            fit_fastica(white)

    def test_convergence_report_invariant(self):
        sources = uniform_sources(5000, seed=5)
        white, _, _ = whitened_mixture(sources, KNOWN_MIXING)
        full = fit_fastica(white, IcaConfig(seed=0))
        assert full.convergence.converged == (
            full.convergence.final_delta < IcaConfig().tolerance
        )
        capped = fit_fastica(white, IcaConfig(seed=0, max_iterations=1))
        assert capped.convergence.iterations_used == 1
        assert capped.convergence.converged == (capped.convergence.final_delta < 1e-6)

    def test_deterministic_for_fixed_seed(self):
        sources = uniform_sources(4000, seed=9)
        white, _, _ = whitened_mixture(sources, KNOWN_MIXING)
        a = fit_fastica(white, IcaConfig(seed=123))
        b = fit_fastica(white, IcaConfig(seed=123))
        assert np.array_equal(a.unmixing, b.unmixing)
        assert a.convergence.per_iteration_deltas == b.convergence.per_iteration_deltas

    def test_unmixing_rows_orthonormal(self):
        sources = uniform_sources(4000, seed=10)
        white, _, _ = whitened_mixture(sources, KNOWN_MIXING)
        model = fit_fastica(white, IcaConfig(seed=4))
        k = model.n_components
        assert np.abs(model.unmixing @ model.unmixing.T - np.eye(k)).max() < 1e-8

    def test_deflation_also_recovers_sources(self):
        sources = uniform_sources(10000, seed=11)
        white, _, _ = whitened_mixture(sources, KNOWN_MIXING)
        model = fit_fastica(white, IcaConfig(seed=0, orthogonalization="deflation"))
        report = match_components(separate(model, white), sources)
        assert report.min_abs_correlation() >= 0.99

    def test_pow3_contrast_works(self):
        sources = uniform_sources(10000, seed=12)
        white, _, _ = whitened_mixture(sources, KNOWN_MIXING)
        model = fit_fastica(white, IcaConfig(seed=0, contrast="pow3"))
        report = match_components(separate(model, white), sources)
        assert report.min_abs_correlation() >= 0.99

    def test_canonical_sign_nonnegative_skewness(self):
        rng = np.random.default_rng(13)
        # strongly skewed independent sources
        sources = np.column_stack(
            [rng.exponential(1.0, 8000) - 1.0, rng.uniform(-np.sqrt(3), np.sqrt(3), 8000)]
        )
        white, _, _ = whitened_mixture(sources, KNOWN_MIXING)
        model = fit_fastica(white, IcaConfig(seed=0))
        s = separate(model, white)
        for i in range(2):
            col = s[:, i]
            skew = np.mean(col**3) / np.mean(col**2) ** 1.5
            if abs(skew) >= 1e-3:
                assert skew >= 0.0
            else:
                assert col[np.argmax(np.abs(col))] >= 0.0

    def test_amari_improves_with_sample_count(self):
        medians = []
        for n in (1000, 10000, 100000):
            scores = []
            for seed in range(20):
                sources = uniform_sources(n, seed=100 + seed)
                white, whitening, _ = whitened_mixture(sources, KNOWN_MIXING)
                model = fit_fastica(white, IcaConfig(seed=seed))
                w_total = model.unmixing @ whitening.T
                scores.append(amari_index(w_total, KNOWN_MIXING))
            medians.append(float(np.median(scores)))
        assert medians[0] > medians[1] > medians[2]

    def test_bad_config_rejected(self):
        with pytest.raises(InvalidInputError):
            IcaConfig(contrast="cosh")
        with pytest.raises(InvalidInputError):
            IcaConfig(tolerance=0.0)
        with pytest.raises(InvalidInputError):
            IcaConfig(max_iterations=0)
        with pytest.raises(InvalidInputError):
            IcaConfig(orthogonalization="qr")


class TestSeparate:
    def test_identity_unmixing(self, rng):
        x = rng.standard_normal((100, 2))
        model = IcaModel(
            unmixing=np.eye(2),
            mixing_estimate=np.eye(2),
            convergence=ConvergenceReport(1, 0.0, True),
        )
        assert np.array_equal(separate(model, x), x)

    def test_algebraic_round_trip_with_true_inverse(self, rng):
        # orthogonal mixing in whitened space; unmixing with its transpose is exact
        theta = 0.9
        q = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        s_true = rng.standard_normal((200, 2))
        white = s_true @ q
        model = IcaModel(
            unmixing=q,
            mixing_estimate=q.T,
            convergence=ConvergenceReport(1, 0.0, True),
        )
        assert np.abs(separate(model, white) - s_true).max() < 1e-10

    def test_components_have_unit_variance(self):
        sources = uniform_sources(20000, seed=14)
        white, _, _ = whitened_mixture(sources, KNOWN_MIXING)
        model = fit_fastica(white, IcaConfig(seed=0))
        s = separate(model, white)
        assert np.abs(s.var(axis=0, ddof=1) - 1.0).max() < 1e-3

    def test_shape_mismatch_rejected(self):
        model = IcaModel(
            unmixing=np.eye(2),
            mixing_estimate=np.eye(2),
            convergence=ConvergenceReport(1, 0.0, True),
        )
        with pytest.raises(DimensionError):
            separate(model, np.zeros((10, 3)))


class TestReconstructMixing:
    """IcaModel.mixing_estimate: the estimated mixing back in channel space."""

    def test_full_rank_round_trip(self, rng):
        x = rng.standard_normal((2000, 3)) @ rng.standard_normal((3, 3))
        model_pca = fit_pca(x, retained=3)
        white, _, dewhitening = whiten(model_pca, x, 3)
        model = fit_fastica(white, IcaConfig(seed=6), dewhitening=dewhitening)
        s = separate(model, white)
        a_est = model.mixing_estimate
        assert np.array_equal(a_est, dewhitening.T @ model.unmixing.T)
        centered = x - x.mean(axis=0)
        assert np.abs(s @ a_est.T - centered).max() < 1e-8 * np.abs(centered).max()

    def test_known_mixing_recovered_up_to_scale_and_order(self):
        sources = uniform_sources(20000, seed=15)
        white, _, dewhitening = whitened_mixture(sources, KNOWN_MIXING)
        model = fit_fastica(white, IcaConfig(seed=0), dewhitening=dewhitening)
        a_est = model.mixing_estimate
        # every true column must align with some estimated column
        for j in range(2):
            true_col = KNOWN_MIXING[:, j]
            cosines = [
                abs(true_col @ a_est[:, i])
                / (np.linalg.norm(true_col) * np.linalg.norm(a_est[:, i]))
                for i in range(2)
            ]
            assert max(cosines) >= 0.99

    def test_rank_reduced_residual_equals_pca_residual(self):
        rng = np.random.default_rng(16)
        sources = uniform_sources(5000, seed=17)
        mixing4 = np.array([[1.0, 0.8], [0.6, 1.0], [0.9, -0.4], [-0.3, 1.1]])
        x = sources @ mixing4.T + 0.01 * rng.standard_normal((5000, 4))
        model_pca = fit_pca(x, retained=2)
        white, _, dewhitening = whiten(model_pca, x, 2)
        model = fit_fastica(white, IcaConfig(seed=0), dewhitening=dewhitening)
        s = separate(model, white)
        a_est = model.mixing_estimate
        centered = x - x.mean(axis=0)
        ica_residual = np.linalg.norm(centered - s @ a_est.T)
        pca_residual = np.linalg.norm(centered - white @ dewhitening)
        assert ica_residual == pytest.approx(pca_residual, rel=1e-8)

    def test_shape_mismatch_rejected(self):
        white, _, _ = whitened_mixture(uniform_sources(1000, seed=18), KNOWN_MIXING)
        with pytest.raises(DimensionError):
            fit_fastica(white, IcaConfig(seed=0), dewhitening=np.zeros((3, 4)))
