"""Tests for the FastICA fixed-point estimator."""
import itertools
import json
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ebiunmix import fastica
from ebiunmix.errors import DimensionError, InvalidInputError, NonWhiteInputError
from ebiunmix.fastica import (
    CONTRASTS,
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

from oracles import (
    canonical_unmixing,
    canonicalize_reference,
    fastica_reference,
    gauss_logcosh_mean,
    newton_schulz_polar,
)

KNOWN_MIXING = np.array([[1.0, 0.5], [0.3, 1.0]])
# Four sources into four channels: the full-rank shape of ica_only mode.
FULL_RANK_MIXING = np.array([
    [1.0, 0.5, 0.2, -0.3],
    [0.3, 1.0, -0.4, 0.1],
    [-0.2, 0.6, 1.0, 0.4],
    [0.5, -0.1, 0.3, 1.0],
])


def refusing_on_call(n):
    """_symmetric_decorrelate that refuses its n-th call (1-based) by returning None."""
    real = fastica._symmetric_decorrelate
    calls = itertools.count(1)

    def decorrelate(w):
        return None if next(calls) == n else real(w)

    return decorrelate


def matrix_with_cond_f(rng, k, cond_f, scale=1.0):
    """Q1 diag(s) Q2 with |s| |1/s| = cond_f: k - 1 singular values drawn
    log-uniform from [cond_f^(-1/2), 1] times scale, the last one solved for."""
    q1, q2 = (np.linalg.qr(rng.standard_normal((k, k)))[0] for _ in range(2))
    others = 10.0 ** rng.uniform(-0.5 * np.log10(cond_f), 0.0, k - 1)
    a, b = np.sum(others**2), np.sum(others**-2.0)
    # (a + u)(b + 1/u) = cond_f^2 for u = t^2, the smaller root
    m = cond_f**2 - a * b - 1.0
    t = np.sqrt(2.0 * a / (m + np.sqrt(m * m - 4.0 * a * b)))
    return scale * q1 @ np.diag(np.append(others, t)) @ q2


def refused_updates():
    """Updates _symmetric_decorrelate must refuse: not finite, or cond_F(W) > 1e8."""
    rng = np.random.default_rng(20240817)
    q1, q2 = (np.linalg.qr(rng.standard_normal((4, 4)))[0] for _ in range(2))
    dependent = rng.standard_normal((3, 3))
    dependent[2] = dependent[0] - dependent[1]
    cases = {
        "4x4-s0": q1 @ np.diag([1.0, 0.5, 0.2, 0.0]) @ q2,
        "4x4-s1e-9": q1 @ np.diag([1.0, 0.5, 0.2, 1e-9]) @ q2,
        "3x3-rows-dependent": dependent,
        # rows 0 and 1 differ by 1e-10, so each lies that close to the span of the others
        "near-span-3x3": 5.0 * np.array(
            [[1.0, 2.0, 3.0], [1.0, 2.0, 3.0 + 1e-10], [0.0, 1.0, 0.0]]
        ),
        "tiny-row-3x3": np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1e-9, 1e-9, 1e-9]]),
        "zero-2x2": np.zeros((2, 2)),
        "nan-2x2": np.array([[1.0, np.nan], [0.0, 1.0]]),
        "det0-2x2": np.array([[1.0, 2.0], [0.5, 1.0]]),
        "cond1e12-2x2": np.array([[1.0, 0.0], [0.0, 1e-12]]) @ np.array([[0.6, 0.8], [-0.8, 0.6]]),
        "inf-2x2": np.array([[np.inf, 0.0], [0.0, 1.0]]),
        "zero-3x3": np.zeros((3, 3)),
        "nan-3x3": np.diag([1.0, np.nan, 1.0]),
        "inf-3x3": np.diag([np.inf, 1.0, 1.0]),
        "underflow-3x3": 1e-170 * np.eye(3),  # |W|_F^2 underflows to 0
        "nan-5x5": np.diag([1.0, 1.0, 1.0, 1.0, np.nan]),
        "inf-5x5": np.diag([1.0, 1.0, -np.inf, 1.0, 1.0]),
    }
    for k in range(2, 7):  # just above the threshold; test_one_rank_rule_at_every_k has both sides
        cases[f"condF-1.01e8-{k}x{k}"] = matrix_with_cond_f(rng, k, 1.01e8)
    return [pytest.param(w, id=name) for name, w in cases.items()]


def uniform_sources(n, seed, k=2):
    rng = np.random.default_rng(seed)
    return rng.uniform(-np.sqrt(3.0), np.sqrt(3.0), size=(n, k))


def whitened_mixture(sources, mixing):
    x = sources @ mixing.T
    model = fit_pca(x)
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
        assert min(map(abs, report.correlations)) >= 0.99

        # unmixing from channel space composed with the true mixing
        w_total = model.unmixing @ whitening.T
        assert amari_index(w_total, KNOWN_MIXING) < 0.05

    def test_white_independent_input_gives_permutation(self):
        sources = uniform_sources(20000, seed=7)
        # symmetric (ZCA) whitening keeps the source axes while making the
        # sample covariance exactly identity, so there is nothing to unmix
        from ebiunmix.linalg import sym_eigen

        centered = sources - sources.mean(axis=0)
        eig = sym_eigen(centered.T @ centered / (len(centered) - 1))
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
        model_pca = fit_pca(x)
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

    def test_one_row_rejected(self):
        with pytest.raises(NonWhiteInputError, match="need at least 2 samples"):
            fit_fastica(np.ones((1, 2)))

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

    @pytest.mark.parametrize("mixing", [KNOWN_MIXING, FULL_RANK_MIXING], ids=["2x2", "4x4"])
    def test_unmixing_rows_orthonormal(self, mixing):
        sources = uniform_sources(4000, seed=10, k=mixing.shape[1])
        white, _, _ = whitened_mixture(sources, mixing)
        model = fit_fastica(white, IcaConfig(seed=4))
        k = model.n_components
        assert k == mixing.shape[1]
        assert np.abs(model.unmixing @ model.unmixing.T - np.eye(k)).max() < 1e-8

    @pytest.mark.parametrize("failing_call", [1, 2, 3, 4])
    def test_rank_deficient_update_flagged_not_raised(self, monkeypatch, failing_call):
        # the random start is orthonormal as drawn; call n decorrelates update n
        sources = uniform_sources(4000, seed=10)
        white, _, _ = whitened_mixture(sources, KNOWN_MIXING)
        reference = fit_fastica(white, IcaConfig(seed=4))
        # the failing update exists, so the fit had not converged before it
        assert reference.convergence.iterations_used >= failing_call
        monkeypatch.setattr(fastica, "_symmetric_decorrelate", refusing_on_call(failing_call))
        model = fit_fastica(white, IcaConfig(seed=4))
        conv = model.convergence
        done = failing_call - 1
        assert conv.iterations_used == done
        assert conv.per_iteration_deltas == reference.convergence.per_iteration_deltas[:done]
        assert conv.final_delta == (conv.per_iteration_deltas[-1] if done else 1.0)
        assert not conv.converged and conv.converged == (conv.final_delta < 1e-6)
        json.dumps(asdict(conv), allow_nan=False)
        assert np.abs(model.unmixing @ model.unmixing.T - np.eye(2)).max() < 1e-12
        if done:
            monkeypatch.undo()
            truncated = fit_fastica(white, IcaConfig(seed=4, max_iterations=done))
            assert np.array_equal(model.unmixing, truncated.unmixing)

    @pytest.mark.parametrize("mixing", [KNOWN_MIXING, FULL_RANK_MIXING], ids=["2x2", "4x4"])
    @pytest.mark.parametrize("seed", range(10))
    def test_random_start_rows_orthonormal(self, monkeypatch, mixing, seed):
        # with the first update refused, the fit returns its start, reordered and re-signed
        k = mixing.shape[1]
        white, _, _ = whitened_mixture(uniform_sources(2000, seed=10, k=k), mixing)
        monkeypatch.setattr(fastica, "_symmetric_decorrelate", refusing_on_call(1))
        start = fit_fastica(white, IcaConfig(seed=seed)).unmixing
        assert np.abs(start @ start.T - np.eye(k)).max() <= 1e-14

    def test_pow3_contrast_works(self):
        sources = uniform_sources(10000, seed=12)
        white, _, _ = whitened_mixture(sources, KNOWN_MIXING)
        model = fit_fastica(white, IcaConfig(seed=0, contrast="pow3"))
        report = match_components(separate(model, white), sources)
        assert min(map(abs, report.correlations)) >= 0.99

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

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("symmetric", [False, True])
    def test_canonical_order_and_signs_match_per_column_loop(self, seed, symmetric):
        rng = np.random.default_rng(seed)
        x = np.column_stack([
            rng.exponential(1.0, 4000) - 1.0, rng.uniform(-1.0, 1.0, 4000), rng.standard_normal(4000)
        ])
        if symmetric:  # every component's skewness is 0: the largest-sample rule decides
            x = np.vstack([x, -x])
        w = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        assert np.array_equal(fastica._canonicalize(x, w), canonical_unmixing(x, w))

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
        for tolerance in (1.0, 1.5, float("inf")):  # the delta never exceeds 1
            with pytest.raises(InvalidInputError, match="tolerance"):
                IcaConfig(tolerance=tolerance)
        with pytest.raises(InvalidInputError):
            IcaConfig(max_iterations=0)
        with pytest.raises(InvalidInputError, match="seed"):
            IcaConfig(seed=-1)

    @pytest.mark.parametrize("field,value", [
        ("max_iterations", 200.0), ("max_iterations", True), ("max_iterations", "200"),
        ("seed", 1.0), ("seed", False), ("seed", None),
        ("tolerance", "1e-6"), ("tolerance", True), ("tolerance", None),
    ])
    def test_wrong_type_rejected(self, field, value):
        with pytest.raises(InvalidInputError, match=field):
            IcaConfig(**{field: value})

    def test_numpy_numbers_accepted(self):
        config = IcaConfig(max_iterations=np.int64(50), tolerance=np.float32(1e-4), seed=np.int32(3))
        assert config.max_iterations == 50


class TestMatchesAxis0Reference:
    """fit_fastica's means via einsum and products with C-order operands give
    the bits of numpy's axis-0 means and transposed views (fastica_reference),
    over whole fits: a fit that runs long would carry any rounding drift."""

    @staticmethod
    def assert_bit_identical(white, config, dewhitening):
        model = fit_fastica(white, config, dewhitening=dewhitening)
        unmixing, mixing, deltas = fastica_reference(white, config, dewhitening)
        assert np.array_equal(model.unmixing, unmixing)
        assert np.array_equal(model.mixing_estimate, mixing)
        assert model.convergence.per_iteration_deltas == deltas
        return model

    @pytest.mark.parametrize("contrast", CONTRASTS)
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_converging_fits(self, k, contrast):
        sources = uniform_sources(1000, seed=30 + k, k=k)
        sources[:, 0] = np.random.default_rng(k).exponential(1.0, 1000) - 1.0  # skewed
        white, _, dewhitening = whitened_mixture(sources, FULL_RANK_MIXING[:k, :k])
        model = self.assert_bit_identical(white, IcaConfig(contrast=contrast, seed=k), dewhitening)
        assert model.convergence.converged

    @pytest.mark.parametrize("contrast", CONTRASTS)
    def test_fit_stopped_by_max_iterations(self, contrast):
        x = np.random.default_rng(9).standard_normal((1000, 4))  # runs to the cap in both contrasts
        white, _, dewhitening = whiten(fit_pca(x), x, 4)
        config = IcaConfig(contrast=contrast, seed=5)
        model = self.assert_bit_identical(white, config, dewhitening)
        assert model.convergence.iterations_used == config.max_iterations
        assert not model.convergence.converged


    @given(
        k=st.integers(1, 8),
        contrast=st.sampled_from(CONTRASTS),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_every_k_to_8(self, k, contrast, seed):
        # from k = 8 on numpy's row sums in the step's delta are pairwise
        x = np.random.default_rng(seed).standard_normal((300, k))
        x[:, 0] = np.random.default_rng(seed + 1).exponential(1.0, 300)  # one skewed source
        white, _, dewhitening = whiten(fit_pca(x), x, k)
        self.assert_bit_identical(white, IcaConfig(contrast=contrast, seed=k, max_iterations=30),
                                  dewhitening)

    @given(
        k=st.integers(1, 8),
        n=st.integers(2, 200),
        tied_pair=st.booleans(),
        symmetric=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_canonical_order(self, k, n, tied_pair, symmetric, seed):
        # two unit rows on two equal channels tie in score; symmetric samples
        # have |skew| < 1e-3, where the first largest-magnitude sample sets the sign
        rng = np.random.default_rng(seed)
        x = np.round(rng.standard_normal((n, k)) * rng.exponential(1.0, (n, k)), 2)
        if symmetric:
            x = np.vstack([x, -x])
        w = np.round(rng.standard_normal((k, k)), 1)
        if tied_pair and k >= 2:
            x[:, 1] = x[:, 0]
            w[:2] = np.eye(2, k)
        with np.errstate(invalid="ignore"):  # an all-zero component has a NaN skew in both
            assert fastica._canonicalize(x, w).tobytes() == canonicalize_reference(x, w).tobytes()


class TestSymmetricDecorrelate:
    @given(
        k=st.integers(1, 4),
        log_cond=st.floats(0.0, 5.0),
        log_scale=st.floats(-1.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(k=3, log_cond=5.0, log_scale=1.0, seed=168)
    @example(k=3, log_cond=5.5, log_scale=1.0, seed=211)
    @example(k=4, log_cond=6.0, log_scale=1.0, seed=1082)
    def test_rows_orthonormal_and_polar_factor(self, k, log_cond, log_scale, seed):
        # W = Q1 diag(s) Q2 with cond(W) = 10^log_cond, largest s = 10^log_scale
        rng = np.random.default_rng(seed)
        q1, q2 = (np.linalg.qr(rng.standard_normal((k, k)))[0] for _ in range(2))
        spread = np.concatenate([[0.0, 1.0], rng.uniform(0.0, 1.0, max(k - 2, 0))])[:k]
        s = 10.0 ** (log_scale - log_cond * spread)
        w = q1 @ np.diag(s) @ q2
        out = fastica._symmetric_decorrelate(w)
        assert np.abs(out @ out.T - np.eye(k)).max() <= 1e-14
        if log_cond <= 2.0:  # (W W^T)^(-1/2) W is the polar factor U V^T of W
            u, _, vt = np.linalg.svd(w)
            assert np.abs(out - u @ vt).max() <= 1e-9

    @pytest.mark.parametrize("w", refused_updates())
    def test_refused_update_returns_none(self, w):
        assert fastica._symmetric_decorrelate(w) is None

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("log_scale", [-1.0, 0.0, 1.0])
    def test_one_rank_rule_at_every_k(self, rng, k, log_scale):
        # refused above cond_F(W) = |W|_F |W^-1|_F = 1e8, decorrelated below it
        for _ in range(10):
            w = matrix_with_cond_f(rng, k, 1.01e8, 10.0**log_scale)
            assert fastica._symmetric_decorrelate(w) is None
            w = matrix_with_cond_f(rng, k, 0.99e8, 10.0**log_scale)
            out = fastica._symmetric_decorrelate(w)
            assert np.abs(out @ out.T - np.eye(k)).max() <= 1e-14

    @pytest.mark.parametrize("log_cond", [2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 7.99])
    def test_cost_per_call_pinned(self, monkeypatch, rng, log_cond):
        # one SVD and no inversion per call, whatever the condition number
        calls = []

        def counting(name):
            real = getattr(np.linalg, name)
            return lambda a: calls.append(name) or real(a)

        for name in ("svd", "inv"):
            monkeypatch.setattr(np.linalg, name, counting(name))
        for k in (3, 4, 5, 6):
            for _ in range(5):
                w = matrix_with_cond_f(rng, k, 10.0**log_cond, 10.0 ** rng.uniform(-1.0, 1.0))
                calls.clear()
                out = fastica._symmetric_decorrelate(w)
                assert calls == ["svd"]
                assert np.abs(out @ out.T - np.eye(k)).max() <= 1e-14

    @pytest.mark.parametrize("k", [3, 4, 5, 6])
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_svd_sees_only_finite_input(self, monkeypatch, rng, k, bad):
        # LAPACK's SVD can fail to return on an infinite entry
        real = np.linalg.svd

        def finite_only(a):
            assert np.isfinite(a).all()
            return real(a)

        monkeypatch.setattr(np.linalg, "svd", finite_only)
        w = rng.standard_normal((k, k))
        fastica._symmetric_decorrelate(w)  # a finite W does reach the SVD
        w[rng.integers(k), rng.integers(k)] = bad
        assert fastica._symmetric_decorrelate(w) is None

    @given(
        log_cond=st.floats(0.0, 6.0),
        log_scale=st.floats(-1.0, 1.0),
        reflection=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_2x2_closed_form_matches_newton_schulz(self, log_cond, log_scale, reflection, seed):
        rng = np.random.default_rng(seed)
        q1, q2 = (np.linalg.qr(rng.standard_normal((2, 2)))[0] for _ in range(2))
        w = q1 @ np.diag(10.0 ** (log_scale - np.array([0.0, log_cond]))) @ q2
        if (np.linalg.det(w) < 0) != reflection:
            w[1] = -w[1]
        out = fastica._symmetric_decorrelate(w)
        assert np.abs(out - newton_schulz_polar(w)).max() <= 1e-13
        assert np.abs(out @ out.T - np.eye(2)).max() <= 1e-14
        assert (np.linalg.det(out) < 0) == reflection

    def test_2x2_takes_closed_form(self, monkeypatch, rng):
        monkeypatch.setattr(fastica, "_polar_svd", None)  # never reached at k = 2
        out = fastica._symmetric_decorrelate(rng.standard_normal((2, 2)))
        assert np.abs(out @ out.T - np.eye(2)).max() <= 1e-14

    @given(
        k=st.integers(3, 6),
        log_cond=st.floats(0.0, 4.0),
        log_scale=st.floats(-1.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    # U V^T alone is 5e-13 off at the first; with W V in double, not long
    # double, the correction is 1.3e-13 and 1.6e-13 off
    @example(k=3, log_cond=4.0, log_scale=0.0, seed=408)
    @example(k=3, log_cond=4.0, log_scale=0.0, seed=5284)
    def test_matches_newton_schulz_alone(self, k, log_cond, log_scale, seed):
        rng = np.random.default_rng(seed)
        q1, q2 = (np.linalg.qr(rng.standard_normal((k, k)))[0] for _ in range(2))
        s = 10.0 ** (log_scale - log_cond * np.append([0.0, 1.0], rng.uniform(0.0, 1.0, k - 2)))
        w = q1 @ np.diag(s) @ q2
        assert np.abs(fastica._symmetric_decorrelate(w) - newton_schulz_polar(w)).max() <= 1e-13

    def test_tiny_scale_decorrelates_to_identity(self):
        # perfectly conditioned: the scaling, not an absolute floor, decides
        out = fastica._symmetric_decorrelate(1e-7 * np.eye(3))
        assert np.abs(out - np.eye(3)).max() <= 1e-15

    def test_one_eigendecomposition_per_fit(self, monkeypatch):
        calls = []
        real = fastica.sym_eigen

        def counting(m):
            calls.append(m)
            return real(m)

        monkeypatch.setattr(fastica, "sym_eigen", counting)
        white, _, _ = whitened_mixture(uniform_sources(4000, seed=10, k=4), FULL_RANK_MIXING)
        model = fit_fastica(white, IcaConfig(seed=4))
        # the random start; each update is decorrelated by one SVD
        assert model.convergence.iterations_used > 1
        assert len(calls) == 1


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
        model_pca = fit_pca(x)
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
        model_pca = fit_pca(x)
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
