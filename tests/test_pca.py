"""Tests for PCA fit, projection, whitening, and explained variance."""
import numpy as np
import pytest

from ebiunmix.dsp import SignalMatrix
from ebiunmix.errors import (
    DegenerateComponentError,
    DimensionError,
    InsufficientDataError,
)
from ebiunmix.linalg import svd
from ebiunmix.pca import explained_variance, fit_pca, project, whiten
from ebiunmix.synth import default_scenario


def collinear_data():
    t = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])
    return np.column_stack([t, 2.0 * t]), t


def data_with_covariance_2_1_1_2():
    """3 x 2 matrix whose exact sample covariance is [[2, 1], [1, 2]]."""
    v1 = np.array([1.0, 1.0]) / np.sqrt(2.0)
    v2 = np.array([1.0, -1.0]) / np.sqrt(2.0)
    a, b = np.sqrt(3.0), 1.0 / np.sqrt(3.0)
    return np.vstack([a * v1 + b * v2, -a * v1 + b * v2, -2.0 * b * v2])


class TestFitPca:
    def test_collinear_channels(self):
        data, t = collinear_data()
        model = fit_pca(data)
        assert model.eigenvalues[0] == pytest.approx(5.0 * t.var(ddof=1), rel=1e-12)
        assert model.eigenvalues[1] == pytest.approx(0.0, abs=1e-12)

    def test_isotropic_noise_has_flat_spectrum(self):
        rng = np.random.default_rng(11)
        model = fit_pca(rng.standard_normal((100000, 2)))
        lam = model.eigenvalues
        assert abs(lam[0] - lam[1]) / lam[0] < 0.05

    @pytest.mark.parametrize("seed", range(5))
    def test_eigenvalues_match_svd_route(self, seed):
        rng = np.random.default_rng(4000 + seed)
        x = rng.standard_normal((500, 4)) @ rng.standard_normal((4, 4))
        model = fit_pca(x)
        centered = x - x.mean(axis=0)
        d = svd(centered).D
        lam_svd = d**2 / (x.shape[0] - 1)
        assert np.abs(model.eigenvalues - lam_svd).max() < 1e-8 * lam_svd[0]

    def test_eigenvalue_equals_score_variance(self, rng):
        x = rng.standard_normal((300, 3)) * [1.0, 2.5, 0.3]
        model = fit_pca(x)
        scores = project(model, x, 3)
        for i in range(3):
            assert scores[:, i].var(ddof=1) == pytest.approx(model.eigenvalues[i], abs=1e-9)

    def test_works_on_signal_matrix(self):
        mixture, _ = default_scenario(n=2000, seed=1)
        model = fit_pca(mixture)
        assert model.n_channels == 4
        assert model.retained == 2

    def test_more_channels_than_samples_rejected(self):
        with pytest.raises(InsufficientDataError):
            fit_pca(np.ones((2, 3)))


class TestProject:
    def test_full_rank_round_trip(self, rng):
        x = rng.standard_normal((100, 4)) @ rng.standard_normal((4, 4)) + [1.0, -2.0, 0.5, 3.0]
        model = fit_pca(x)
        scores = project(model, x, 4)
        back = scores @ model.loadings.T + model.means
        assert np.abs(back - x).max() < 1e-9

    def test_collinear_projection_hand_computed(self):
        data, t = collinear_data()
        model = fit_pca(data)
        scores = project(model, data, 1)
        # loading is (1, 2)/sqrt(5) after sign normalization, so scores are sqrt(5) t
        assert np.allclose(scores[:, 0], np.sqrt(5.0) * t, atol=1e-12)

    def test_zero_variance_channel(self, rng):
        x = np.column_stack([rng.standard_normal(50), np.full(50, 7.0)])
        model = fit_pca(x)
        assert model.eigenvalues[1] == pytest.approx(0.0, abs=1e-12)
        scores = project(model, x, 2)
        assert np.abs(scores[:, 1]).max() < 1e-9

    def test_scores_uncorrelated(self, rng):
        x = rng.standard_normal((2000, 4)) @ rng.standard_normal((4, 4))
        model = fit_pca(x)
        scores = project(model, x, 4)
        cov = scores.T @ scores / (len(scores) - 1)
        off = np.abs(cov - np.diag(np.diag(cov))).max()
        assert off < 1e-6 * cov.diagonal().max()

    def test_variance_ordering(self, rng):
        x = rng.standard_normal((500, 4)) * [0.1, 3.0, 1.0, 0.5]
        model = fit_pca(x)
        scores = project(model, x, 4)
        variances = scores.var(axis=0, ddof=1)
        assert np.all(np.diff(variances) <= 1e-12)

    def test_rotation_invariant_spectrum(self, rng):
        x = rng.standard_normal((400, 3)) * [2.0, 1.0, 0.25]
        theta = 0.7
        rot = np.array(
            [
                [np.cos(theta), -np.sin(theta), 0.0],
                [np.sin(theta), np.cos(theta), 0.0],
                [0.0, 0.0, 1.0],
            ]
        )
        lam_a = fit_pca(x).eigenvalues
        lam_b = fit_pca(x @ rot).eigenvalues
        assert np.abs(lam_a - lam_b).max() < 1e-8 * lam_a[0]

    def test_k_out_of_range(self):
        data, _ = collinear_data()
        model = fit_pca(data)
        with pytest.raises(DimensionError):
            project(model, data, 3)


class TestWhiten:
    def test_whitened_covariance_is_identity(self, rng):
        x = rng.standard_normal((5000, 4)) @ rng.standard_normal((4, 4))
        model = fit_pca(x)
        white, _, _ = whiten(model, x, 4)
        cov = white.T @ white / (len(white) - 1)
        assert np.abs(cov - np.eye(4)).max() < 1e-6

    def test_uses_eigenpair_of_known_covariance(self):
        x = data_with_covariance_2_1_1_2()
        model = fit_pca(x)
        assert np.allclose(model.eigenvalues, [3.0, 1.0], atol=1e-9)
        white, whitening, dewhitening = whiten(model, x, 2)
        expected_whitening = model.loadings @ np.diag([1.0 / np.sqrt(3.0), 1.0])
        assert np.abs(whitening - expected_whitening).max() < 1e-9
        assert np.abs(dewhitening - np.diag([np.sqrt(3.0), 1.0]) @ model.loadings.T).max() < 1e-9
        assert np.abs(white @ dewhitening + model.means - x).max() < 1e-9

    def test_rank_reduction_residual_matches_discarded_variance(self):
        mixture, _ = default_scenario(n=4000, seed=5)
        x = mixture.samples
        model = fit_pca(x)
        white, _, dewhitening = whiten(model, x, 2)
        centered = x - model.means
        residual = np.linalg.norm(centered - white @ dewhitening) ** 2
        expected = model.eigenvalues[2:].sum() * (len(x) - 1)
        assert residual == pytest.approx(expected, rel=1e-6)

    def test_round_trip_on_retained_subspace(self, rng):
        x = rng.standard_normal((1000, 4)) @ rng.standard_normal((4, 4))
        model = fit_pca(x)
        white, whitening, dewhitening = whiten(model, x, 3)
        again = (white @ dewhitening) @ whitening
        assert np.abs(again - white).max() < 1e-8 * np.abs(white).max()

    def test_degenerate_component_rejected(self):
        data, _ = collinear_data()
        model = fit_pca(data)
        with pytest.raises(DegenerateComponentError) as err:
            whiten(model, data, 2)
        assert err.value.component == 1


class TestExplainedVariance:
    def test_full_dimension_is_exactly_one(self, rng):
        model = fit_pca(rng.standard_normal((100, 4)))
        assert explained_variance(model, 4) == 1.0

    def test_collinear_first_component(self):
        data, _ = collinear_data()
        model = fit_pca(data)
        assert explained_variance(model, 1) == pytest.approx(1.0, abs=1e-9)

    def test_monotone_in_k(self, rng):
        model = fit_pca(rng.standard_normal((200, 4)) * [3.0, 2.0, 1.0, 0.5])
        values = [explained_variance(model, k) for k in range(1, 5)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_trace_identity(self, rng):
        x = rng.standard_normal((300, 4)) @ rng.standard_normal((4, 4))
        model = fit_pca(x)
        centered = x - x.mean(axis=0)
        trace = np.trace(centered.T @ centered / (len(x) - 1))
        for k in range(1, 5):
            expected = model.eigenvalues[:k].sum() / trace
            assert explained_variance(model, k) == pytest.approx(expected, abs=1e-10)
