"""Tests for correlation, component matching, and the Amari index."""
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ebiunmix import metrics
from ebiunmix.errors import DimensionError, InvalidInputError, UndefinedCorrelationError
from ebiunmix.metrics import amari_index, match_components

from oracles import (
    amari_loops,
    amari_reference,
    correlations_reference,
    match_components_loops,
    match_components_reference,
)


def pair_correlation(x, y):
    """Correlation of two series as match_components reports it, one column each."""
    return match_components(np.reshape(x, (-1, 1)), np.reshape(y, (-1, 1))).correlations[0]


class TestPearson:
    """The Pearson correlation of one pair of series, as match_components computes it."""

    def test_self_correlation(self, rng):
        x = rng.standard_normal(100)
        assert pair_correlation(x, x) == 1.0

    def test_negated(self, rng):
        x = rng.standard_normal(100)
        assert pair_correlation(x, -x) == -1.0

    def test_independent_near_zero(self):
        rng = np.random.default_rng(123)
        x = rng.standard_normal(100000)
        y = rng.standard_normal(100000)
        assert abs(pair_correlation(x, y)) < 0.02

    def test_zero_variance_rejected(self):
        with pytest.raises(UndefinedCorrelationError):
            pair_correlation([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_length_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            pair_correlation([1.0, 2.0], [1.0, 2.0, 3.0])

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            pair_correlation([1.0], [2.0])


class TestMatchComponents:
    def test_truth_against_itself(self, rng):
        truth = rng.standard_normal((500, 3))
        report = match_components(truth, truth)
        assert report.assignment == ((0, 0), (1, 1), (2, 2))
        assert all(r == pytest.approx(1.0) for r in report.correlations)
        # leakage against itself is just the cross-correlation of the sources
        for (i, j), leak in zip(report.assignment, report.leakage):
            expected = max(
                abs(np.corrcoef(truth[:, i], truth[:, jj])[0, 1]) for jj in range(3) if jj != j
            )
            assert leak == pytest.approx(expected)

    def test_permuted_and_negated_recovered(self, rng):
        truth = rng.standard_normal((400, 3))
        estimated = np.column_stack([-truth[:, 2], truth[:, 0], -truth[:, 1]])
        report = match_components(estimated, truth)
        assert report.assignment == ((0, 2), (1, 0), (2, 1))
        assert [round(r) for r in report.correlations] == [-1, 1, -1]
        assert report.amari_index < 0.1  # residual source cross-correlation only

    def test_invariant_under_sign_flip_and_reorder(self, rng):
        truth = rng.standard_normal((300, 2))
        estimated = truth + 0.1 * rng.standard_normal((300, 2))
        base = match_components(estimated, truth)
        flipped = match_components(np.column_stack([-estimated[:, 1], estimated[:, 0]]), truth)
        base_pairs = {t: abs(r) for (_, t), r in zip(base.assignment, base.correlations)}
        flip_pairs = {t: abs(r) for (_, t), r in zip(flipped.assignment, flipped.correlations)}
        for t in base_pairs:
            assert flip_pairs[t] == pytest.approx(base_pairs[t], abs=1e-12)

    def test_more_estimates_than_truth(self, rng):
        truth = rng.standard_normal((300, 2))
        noise = rng.standard_normal((300, 2))
        estimated = np.column_stack([noise[:, 0], truth[:, 1], truth[:, 0], noise[:, 1]])
        report = match_components(estimated, truth)
        assert dict(report.assignment) == {1: 1, 2: 0}
        assert all(abs(r) > 0.999 for r in report.correlations)

    def test_single_truth_source_has_zero_leakage(self, rng):
        truth = rng.standard_normal((200, 1))
        estimated = np.column_stack([truth[:, 0] + 0.01 * rng.standard_normal(200)])
        report = match_components(estimated, truth)
        assert report.leakage == (0.0,)

    def test_row_mismatch_rejected(self, rng):
        with pytest.raises(DimensionError):
            match_components(rng.standard_normal((10, 2)), rng.standard_normal((11, 2)))

    def test_zero_variance_component_rejected(self, rng):
        estimated = np.column_stack([rng.standard_normal(50), np.ones(50)])
        with pytest.raises(UndefinedCorrelationError):
            match_components(estimated, rng.standard_normal((50, 2)))

    def test_single_row_rejected(self):
        with pytest.raises(InvalidInputError):
            match_components(np.ones((1, 2)), np.ones((1, 2)))

    @given(
        k_est=st.integers(1, 4),
        k_true=st.integers(1, 4),
        n=st.integers(3, 400),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_per_pair_oracle(self, k_est, k_true, n, seed):
        # estimates are noisy random mixtures of the sources, so every pair
        # carries some correlation and the search has a real choice to make
        rng = np.random.default_rng(seed)
        truth = rng.standard_normal((n, k_true))
        estimated = truth @ rng.standard_normal((k_true, k_est))
        estimated += 0.3 * rng.standard_normal((n, k_est))
        report = match_components(estimated, truth)
        assignment, correlations, leakage, amari = match_components_loops(estimated, truth)
        assert report.assignment == assignment
        assert np.abs(np.subtract(report.correlations, correlations)).max() <= 1e-12
        assert np.abs(np.subtract(report.leakage, leakage)).max() <= 1e-12
        assert report.amari_index == pytest.approx(amari, abs=1e-12)

    @given(
        k_est=st.integers(1, 4),
        k_true=st.integers(1, 4),
        n=st.integers(2, 20_000),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_correlations_bit_equal_to_axis0_mean_centring(self, k_est, k_true, n, seed):
        # DC offsets far above the signal make the centring's rounding show
        rng = np.random.default_rng(seed)
        truth = rng.standard_normal((n, k_true)) + rng.uniform(-1e3, 1e3, k_true)
        estimated = truth @ rng.standard_normal((k_true, k_est)) + rng.standard_normal((n, k_est))
        report = match_components(estimated, truth)
        expected = correlations_reference(estimated, truth)
        assert report.correlations == tuple(float(expected[i, j]) for i, j in report.assignment)


class TestMatchesNumpyForm:
    """match_components and amari_index on Python floats give the bits of the
    numpy form they replaced (match_components_reference, amari_reference)."""

    @given(
        k_small=st.integers(1, 3),
        k_large=st.integers(1, 8),
        estimated_shorter=st.booleans(),
        copies=st.booleans(),
        n=st.integers(2, 60),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_match_components(self, k_small, k_large, estimated_shorter, copies, n, seed):
        # the permutation search stays small: at most 8 * 7 * 6 assignments
        k_est, k_true = (k_small, k_large) if estimated_shorter else (k_large, k_small)
        rng = np.random.default_rng(seed)
        truth = np.round(rng.standard_normal((n, k_true)))  # rounding makes -0.0 and ties
        truth[0] += 0.5  # a half-integer first row: no column is constant
        if copies:  # signed copies of the sources: tied |correlations| of exactly 1
            estimated = truth[:, rng.integers(0, k_true, k_est)] * rng.choice([-1.0, 1.0], k_est)
        else:
            estimated = np.round(truth @ rng.standard_normal((k_true, k_est)), 1)
            estimated += rng.standard_normal((n, k_est))
        report = match_components(estimated, truth)
        assignment, correlations, leakage, amari = match_components_reference(estimated, truth)
        assert report.assignment == assignment
        assert report.correlations == correlations
        assert report.leakage == leakage
        assert np.float64(report.amari_index).tobytes() == np.float64(amari).tobytes()

    @given(
        k=st.integers(1, 10),
        entries=st.lists(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 1e-3, 3.0]) | st.floats(-5, 5),
                         min_size=100, max_size=100),
    )
    def test_amari_index(self, k, entries):
        # from k = 8 on numpy's row sums are pairwise
        p = np.reshape(entries[:k * k], (k, k))
        if not (np.abs(p).max(axis=1).all() and np.abs(p).max(axis=0).all()):
            with pytest.raises(InvalidInputError, match="all-zero row or column"):
                amari_index(p, np.eye(k))
            return
        expected = amari_reference(p @ np.eye(k))
        assert np.float64(amari_index(p, np.eye(k))).tobytes() == np.float64(expected).tobytes()

    def test_correlation_of_tiny_columns(self, rng):
        # the product of the sums of squares underflows; numpy divided by zero there
        truth = rng.standard_normal((100, 2))
        estimated = truth @ rng.standard_normal((2, 2)) + 0.1 * rng.standard_normal((100, 2))
        report = match_components(estimated, truth)
        tiny = match_components(1e-100 * estimated, 1e-100 * truth)
        assert tiny.assignment == report.assignment
        assert np.abs(np.subtract(tiny.correlations, report.correlations)).max() <= 1e-12


class TestAmariIndex:
    def test_perfect_unmixing(self, rng):
        a = rng.standard_normal((3, 3)) + 3.0 * np.eye(3)
        assert amari_index(np.linalg.inv(a), a) < 1e-10

    def test_permutation_times_diagonal_is_zero(self):
        w = np.array([[0.0, -2.5], [7.0, 0.0]])  # permutation x diagonal
        assert amari_index(w, np.eye(2)) < 1e-10

    def test_all_ones_is_one(self):
        # hand evaluation: each row/col sums to 2 with max 1 -> (4 + 4) / (2*2*2)
        assert amari_index(np.ones((2, 2)), np.eye(2)) == pytest.approx(1.0, abs=1e-12)

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            amari_index(np.ones((2, 3)), np.eye(3))

    def test_mismatched_inner_dimensions_rejected(self):
        with pytest.raises(DimensionError, match=r"cannot multiply \(2, 3\) by \(2, 2\)"):
            amari_index(np.ones((2, 3)), np.eye(2))

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_hand_formula(self, seed):
        rng = np.random.default_rng(5000 + seed)
        p = rng.uniform(-1.0, 1.0, size=(4, 4))
        assert amari_index(p, np.eye(4)) == pytest.approx(amari_loops(p), abs=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_invariant_under_permutation_and_scaling(self, seed):
        rng = np.random.default_rng(6000 + seed)
        p = rng.uniform(0.1, 1.0, size=(3, 3))
        base = amari_index(p, np.eye(3))
        scale = float(rng.uniform(0.1, 5.0) * rng.choice([-1.0, 1.0]))
        transformed = scale * p[rng.permutation(3)][:, rng.permutation(3)]
        assert amari_index(transformed, np.eye(3)) == pytest.approx(base, abs=1e-10)

    def test_nan_entry_gives_nan(self):
        # numpy's maxima propagate NaN, so a row of 0 and NaN is not all zero
        # (a NaN correlation comes from sums of squares that overflow)
        p = [[0.0, math.nan], [1.0, 1.0]]
        with np.errstate(invalid="ignore"):
            assert math.isnan(amari_reference(np.array(p)))
        assert math.isnan(metrics._amari_of(p))

    def test_zero_exactly_for_scaled_permutation(self, rng):
        # per-component sign/scale ambiguity must not register as error
        p = np.zeros((3, 3))
        p[0, 1], p[1, 2], p[2, 0] = -2.0, 0.5, 7.0
        assert amari_index(p, np.eye(3)) == 0.0
