"""Tests for PCA fit, projection, whitening, and explained variance."""
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ebiunmix.dsp import SignalMatrix
from ebiunmix.errors import (
    DegenerateComponentError,
    DimensionError,
    InsufficientDataError,
    InvalidInputError,
)
from ebiunmix import pca
from ebiunmix.linalg import SymEigen, svd
from ebiunmix.pca import explained_variance, fit_pca, project, whiten
from ebiunmix.synth import default_scenario

from oracles import charpoly_eigenvalues, covariance_loops, pca_reference


def collinear_data():
    t = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])
    return np.column_stack([t, 2.0 * t]), t


def assert_fit_invariants(model):
    """What fit_pca guarantees: orthonormal loadings, eigenvalues descending and >= 0."""
    p = model.loadings.shape[1]
    assert np.abs(model.loadings.T @ model.loadings - np.eye(p)).max() < 1e-10
    assert np.all(np.diff(model.eigenvalues) <= 0)
    assert np.all(model.eigenvalues >= 0)


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
        assert_fit_invariants(model)
        # With a third collinear channel the smallest covariance eigenvalue
        # comes out of the eigensolver near -2e-16, and fit_pca clamps it to 0.
        assert_fit_invariants(fit_pca(np.column_stack([t, 2.0 * t, 2.0 * t])))

    @pytest.mark.parametrize("smallest,refused", [(-1e-12, False), (-1.01e-12, True)])
    def test_negative_eigenvalue_floor(self, monkeypatch, rng, smallest, refused):
        # No data found reaches the refusal: the covariance of real samples is
        # positive semidefinite up to rounding, and its least eigenvalue came
        # out at worst -4.3e-16 times max(1, largest) over 300 rank-deficient
        # draws. So a stand-in eigensolver hands fit_pca a value at the floor,
        # -RANK_TOL * max(1, largest), and one just below it.
        def eigen(cov):
            return SymEigen(np.array([1.0, smallest]), np.eye(2))

        monkeypatch.setattr(pca, "sym_eigen", eigen)
        if refused:
            with pytest.raises(InvalidInputError, match="below clamp range"):
                fit_pca(rng.standard_normal((10, 2)))
        else:
            assert fit_pca(rng.standard_normal((10, 2))).eigenvalues.tolist() == [1.0, 0.0]

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
        assert_fit_invariants(model)

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
        assert np.array_equal(model.eigenvalues, fit_pca(mixture.samples).eigenvalues)

    def test_more_channels_than_samples_rejected(self):
        with pytest.raises(InsufficientDataError):
            fit_pca(np.ones((2, 3)))

    @pytest.mark.parametrize("data", [[[1.0]], [[1.0, 2.0]]], ids=["1x1", "1x2"])
    def test_single_row_rejected(self, data):
        with pytest.raises(InsufficientDataError):
            fit_pca(data)

    @pytest.mark.parametrize("data, match", [
        ([[1.0], [np.nan]], "non-finite"),
        (np.zeros((0, 3)), "at least one row"),
        (np.array([[1 + 2j, 3j], [1.0, 2.0], [0.5j, 1.0]]), "two real columns"),
    ], ids=["non_finite", "empty", "complex"])
    def test_malformed_input_rejected(self, data, match):
        with pytest.raises(InvalidInputError, match=match):
            fit_pca(data)

    @pytest.mark.parametrize("data, means", [
        ([[1.0], [2.0], [3.0]], [2.0]),
        ([[1.0, -2.0], [-1.0, 2.0]], [0.0, 0.0]),
    ], ids=["unit_spaced_triple", "already_centered"])
    def test_means(self, data, means):
        model = fit_pca(data)
        assert np.array_equal(model.means, means)
        centered = project(model, data, len(means)) @ model.loadings.T
        assert np.abs(centered - (np.asarray(data) - means)).max() < 1e-12

    @pytest.mark.parametrize("layout", ["C", "rows", "F"])
    @pytest.mark.parametrize("p", [1, 2, 4])
    def test_means_bit_equal_to_axis0_mean(self, rng, p, layout):
        # a frame of DC baselines and unit noise; rows: decimate's strided view
        x = rng.standard_normal((10_000, p)) + 10.0 * np.arange(1, p + 1)
        x = {"C": x[:1000], "rows": x[::10], "F": np.asfortranarray(x[:1000])}[layout]
        assert np.array_equal(fit_pca(x).means, x.mean(axis=0))

    def test_frame_sized_input_scores_centered(self, rng):
        x = rng.standard_normal((10000, 4))
        model = fit_pca(x)
        assert model.means.shape == (4,)
        assert np.abs(project(model, x, 4).sum(axis=0)).max() < 1e-9 * 10000

    def test_unit_variance_triple(self):
        assert fit_pca([[-1.0], [0.0], [1.0]]).eigenvalues[0] == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("shape", ["random_200x4", "product_50x3x4"])
    def test_eigenvalues_match_double_loop_oracle(self, rng, shape):
        if shape == "random_200x4":
            x = rng.standard_normal((200, 4))
        else:
            x = rng.standard_normal((50, 3)) @ rng.standard_normal((3, 4))
        model = fit_pca(x)
        expected = charpoly_eigenvalues(covariance_loops(x - x.mean(axis=0)))
        scale = max(1.0, np.abs(expected).max())
        assert np.abs(model.eigenvalues - expected).max() < 1e-8 * scale
        assert_fit_invariants(model)


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

    @pytest.mark.parametrize("k", [0, 3])
    def test_every_k_taker_rejects_k_out_of_range(self, k):
        data, _ = collinear_data()
        model = fit_pca(data)
        for call in (lambda: project(model, data, k), lambda: whiten(model, data, k),
                     lambda: explained_variance(model, k)):
            with pytest.raises(DimensionError, match=f"k must be in \\[1, 2\\], got {k}"):
                call()

    def test_channel_mismatch_rejected(self, rng):
        model = fit_pca(rng.standard_normal((50, 3)))
        for call in (project, whiten):
            with pytest.raises(DimensionError, match="data has 2 channels, model has 3"):
                call(model, rng.standard_normal((50, 2)), 2)


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

    @pytest.mark.parametrize("n,k", [(4, 4), (3, 3), (2, 2), (1, 1), (3, 4)])
    def test_k_or_fewer_samples_rejected(self, rng, n, k):
        # centred, n samples span n - 1 directions at most, fewer than k
        x = rng.standard_normal((10, 4))
        with pytest.raises(InsufficientDataError, match=f"fewer than the {k + 1} that whitening"):
            whiten(fit_pca(x), x[:n], k)

    def test_degenerate_component_rejected(self):
        data, _ = collinear_data()
        model = fit_pca(data)
        with pytest.raises(DegenerateComponentError) as err:
            whiten(model, data, 2)
        assert err.value.component == 1


class TestMatchesNumpyForm:
    @given(
        p=st.integers(1, 8),
        n=st.integers(9, 40),
        copies=st.integers(0, 7),
        zeros=st.integers(0, 7),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_eigenvalues_and_explained_variance(self, p, n, copies, zeros, seed):
        # copied and all-zero channels leave eigenvalues at or next to zero,
        # some below it, for the clamp; from p = 8 on numpy's sums are pairwise
        x = np.random.default_rng(seed).standard_normal((n, p))
        x[:, p - min(copies, p - 1):] = x[:, :1]
        x[:, p - min(zeros, p - 1):] = 0.0
        model = fit_pca(x)
        eigenvalues, explained = pca_reference(x)
        assert model.eigenvalues.tobytes() == eigenvalues.tobytes()
        assert [explained_variance(model, k) for k in range(1, p + 1)] == explained


class TestExplainedVariance:
    def test_full_dimension_is_exactly_one(self, rng):
        model = fit_pca(rng.standard_normal((100, 4)))
        assert explained_variance(model, 4) == 1.0

    def test_all_zero_spectrum_is_one(self):
        model = fit_pca(np.full((10, 3), 5.0))  # constant channels: every eigenvalue is 0
        assert model.eigenvalues.tolist() == [0.0, 0.0, 0.0]
        assert [explained_variance(model, k) for k in (1, 2, 3)] == [1.0, 1.0, 1.0]

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
