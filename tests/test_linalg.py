"""Tests for the dense matrix primitives and the scalar check."""
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import ebiunmix
from ebiunmix import fastica, linalg, pca
from ebiunmix.errors import DimensionError, InvalidInputError, JacobiConvergenceError
from ebiunmix.linalg import sample_mean, svd, sym_eigen

from oracles import (
    charpoly_eigenvalues,
    det_cofactor,
    jacobi_numpy_rotations,
    sym_eigen_reference,
)

# raw_rate_dc-style per-channel baselines, large against the unit-variance signal
DC_BASELINE = 10.0 * np.array([1.0, 2.0, 3.0, 4.0])


NAN = float("nan")


class TestCheckNumber:
    @pytest.mark.parametrize("value, integral, bounds, span", [
        (1, True, {"at_least": 1}, None),
        (0, True, {"at_least": 1}, ">= 1"),
        (0.0, False, {"above": 0}, "> 0"),
        (5e-324, False, {"above": 0}, None),
        (1.0, False, {"above": 0, "below": 1}, "in (0, 1)"),
        (0, False, {"at_least": 0, "below": 1}, None),
        (1, False, {"at_least": 0, "below": 1}, "in [0, 1)"),
        (math.inf, False, {"above": 0, "below": math.inf}, "in (0, inf)"),
        (1e308, False, {"above": 0, "below": math.inf}, None),
        (NAN, False, {}, None),  # no bound, no range test
        (NAN, False, {"at_least": 1}, ">= 1"),
        (NAN, False, {"above": 0}, "> 0"),
        (NAN, False, {"above": 0, "below": 1}, "in (0, 1)"),
        (NAN, False, {"at_least": 0, "below": 1}, "in [0, 1)"),
        (NAN, False, {"above": 0, "below": math.inf}, "in (0, inf)"),
        (np.int64(3), True, {"at_least": 1}, None),
        (np.float64(0.5), False, {"above": 0, "below": 1}, None),
        (Fraction(1, 2), False, {"above": 0, "below": 1}, None),
        (Fraction(3, 2), False, {"above": 0, "below": 1}, "in (0, 1)"),
    ])
    def test_bounds(self, value, integral, bounds, span):
        if span is None:
            linalg.check_number(value, "x", integral, **bounds)
            return
        with pytest.raises(InvalidInputError) as err:
            linalg.check_number(value, "x", integral, **bounds)
        assert str(err.value) == f"x must be {span}, got {value}"

    @pytest.mark.parametrize("value, integral, expected", [
        (True, True, "an integer"),
        (True, False, "a real number"),
        (2.0, True, "an integer"),
        ("5", False, "a real number"),
        (None, False, "a real number"),
        (1 + 0j, False, "a real number"),
    ])
    def test_wrong_type_rejected_before_bounds(self, value, integral, expected):
        with pytest.raises(InvalidInputError) as err:
            linalg.check_number(value, "x", integral, at_least=0, below=math.inf)
        assert str(err.value) == f"x must be {expected}, got {value!r}"


class TestSampleMean:
    """sample_mean gives the bits of x.mean(axis=0) in every layout: einsum's
    sequential sum where the columns are the inner axis, mean itself at k = 1
    and in F order, where mean sums pairwise."""

    @given(
        k=st.integers(1, 8),
        n=st.integers(2, 20_000),
        layout=st.sampled_from(["C", "rows", "F", "column-step", "reversed"]),
        seed=st.integers(0, 2**32 - 1),
    )
    # n·k across einsum's 8192-element buffer, for the row-strided layout it buffers
    @example(k=2, n=4096, layout="rows", seed=0)
    @example(k=2, n=4097, layout="rows", seed=1)
    @example(k=8, n=1025, layout="rows", seed=2)
    @example(k=8, n=20_000, layout="C", seed=3)
    @example(k=1, n=20_000, layout="C", seed=4)
    @example(k=4, n=20_000, layout="F", seed=5)
    def test_bit_equal_to_numpy_axis0_mean(self, k, n, layout, seed):
        rng = np.random.default_rng(seed)
        signs = rng.choice([-1.0, 1.0], size=(3 * n, 2 * k))
        base = signs * 10.0 ** rng.uniform(-5.0, 5.0, (3 * n, 2 * k))
        x = {
            "C": base[:n, :k].copy(),
            "rows": base[::3, :k],
            "F": np.asfortranarray(base[:n, :k]),
            "column-step": base[:n, ::2],
            "reversed": base[::-1][:n, :k],
        }[layout]
        assert x.shape == (n, k)
        m = sample_mean(x)
        assert np.array_equal(m, x.mean(axis=0))
        assert not np.shares_memory(m, base)


class TestSymEigen:
    def test_equal_diagonal_2x2(self):
        eig = sym_eigen([[2.0, 1.0], [1.0, 2.0]])
        assert np.allclose(eig.eigenvalues, [3.0, 1.0], atol=1e-12)
        inv_sqrt2 = 1.0 / np.sqrt(2.0)
        assert np.allclose(eig.eigenvectors[:, 0], [inv_sqrt2, inv_sqrt2], atol=1e-12)
        assert np.allclose(eig.eigenvectors[:, 1], [inv_sqrt2, -inv_sqrt2], atol=1e-12)

    def test_identity(self):
        eig = sym_eigen(np.eye(3))
        assert np.allclose(eig.eigenvalues, 1.0)

    def test_zero_matrix(self):
        eig = sym_eigen(np.zeros((3, 3)))
        assert np.allclose(eig.eigenvalues, 0.0)
        assert np.allclose(eig.eigenvectors, np.eye(3))

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_characteristic_polynomial_roots(self, seed):
        rng = np.random.default_rng(seed)
        m = rng.standard_normal((4, 4))
        m = 0.5 * (m + m.T)
        eig = sym_eigen(m)
        expected = charpoly_eigenvalues(m)
        scale = max(1.0, np.abs(expected).max())
        assert np.abs(eig.eigenvalues - expected).max() < 1e-8 * scale

    @pytest.mark.parametrize("seed", range(10))
    def test_trace_and_determinant_preserved(self, seed):
        rng = np.random.default_rng(1000 + seed)
        m = rng.standard_normal((4, 4))
        m = 0.5 * (m + m.T)
        eig = sym_eigen(m)
        assert abs(eig.eigenvalues.sum() - np.trace(m)) < 1e-9
        det = det_cofactor(m)
        assert abs(np.prod(eig.eigenvalues) - det) < 1e-8 * max(1.0, abs(det))

    @pytest.mark.parametrize("seed", range(10))
    def test_eigenpair_residual_and_orthonormality(self, seed):
        rng = np.random.default_rng(2000 + seed)
        m = rng.standard_normal((5, 5))
        m = 0.5 * (m + m.T)
        eig = sym_eigen(m)
        norm = np.linalg.norm(m)
        for i in range(5):
            resid = m @ eig.eigenvectors[:, i] - eig.eigenvalues[i] * eig.eigenvectors[:, i]
            assert np.abs(resid).max() < 1e-8 * norm
        gram = eig.eigenvectors.T @ eig.eigenvectors
        assert np.abs(gram - np.eye(5)).max() < 1e-10
        assert np.all(np.diff(eig.eigenvalues) <= 1e-12)

    def test_sign_convention_deterministic(self):
        eig = sym_eigen([[2.0, 1.0], [1.0, 2.0]])
        for j in range(2):
            col = eig.eigenvectors[:, j]
            assert col[np.argmax(np.abs(col))] > 0

    @given(
        p=st.integers(1, 6),
        exponent=st.floats(-8.0, 8.0),
        repeated=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_eigh(self, p, exponent, repeated, seed):
        rng = np.random.default_rng(seed)
        if repeated:  # Q^T D Q with integer D: repeated (and zero) eigenvalues
            q, _ = np.linalg.qr(rng.standard_normal((p, p)))
            m = q.T @ np.diag(rng.integers(-2, 3, p).astype(float)) @ q
        else:
            m = rng.standard_normal((p, p))
        m = 0.5 * (m + m.T) * 10.0**exponent
        norm = np.linalg.norm(m)
        eig = sym_eigen(m)
        vals, vecs = eig.eigenvalues, eig.eigenvectors
        assert np.abs(vals - np.linalg.eigh(m)[0][::-1]).max() <= 1e-13 * norm
        assert np.linalg.norm(m @ vecs - vecs * vals) <= 1e-11 * norm
        assert np.linalg.norm(vecs.T @ vecs - np.eye(p)) <= 1e-13
        assert np.all(vecs[np.argmax(np.abs(vecs), axis=0), np.arange(p)] > 0)

    @pytest.mark.parametrize("gain", [1e150, 1e155, -1e155, 1e300, 1e-155])
    def test_matches_eigvalsh_where_the_norm_overflows(self, gain):
        # from ~1e154 up, the squares in ||m||_F overflow; the stopping threshold must not
        m = np.array([[2.0, 1.0], [1.0, 2.0]]) * gain
        eig = sym_eigen(m)
        expected = np.linalg.eigvalsh(m)[::-1]
        assert np.abs(eig.eigenvalues - expected).max() <= 1e-13 * abs(3.0 * gain)

    @pytest.mark.parametrize("cap", [0, 1, 2])
    def test_sweep_cap_reported(self, monkeypatch, cap):
        monkeypatch.setattr(linalg, "JACOBI_MAX_SWEEPS", cap)
        m = np.random.default_rng(7).standard_normal((5, 5))
        with pytest.raises(JacobiConvergenceError) as excinfo:
            sym_eigen(m + m.T)
        assert excinfo.value.sweeps == cap

    def test_asymmetric_rejected(self):
        with pytest.raises(InvalidInputError):
            sym_eigen([[1.0, 2.0], [0.0, 1.0]])

    def test_non_square_rejected(self):
        with pytest.raises(InvalidInputError):
            sym_eigen(np.ones((2, 3)))

    @pytest.mark.parametrize("m", [np.ones(3), np.ones((2, 2, 2))], ids=["1-D", "3-D"])
    def test_not_2d_rejected(self, m):
        with pytest.raises(InvalidInputError, match=f"m must be 2-D, got ndim={m.ndim}"):
            sym_eigen(m)


def _pipeline_sym_eigen_inputs(seed, dc):
    """Every matrix run_pipeline hands sym_eigen over two frames of the default
    scenario: each frame's 4x4 covariance and FastICA's 2x2 W W^T per step.
    With dc, the channels carry DC_BASELINE and filter before decimation."""
    mixture, _ = ebiunmix.default_scenario(n=20000, seed=seed)
    config = ebiunmix.PipelineConfig()
    if dc:
        mixture = ebiunmix.SignalMatrix(mixture.samples + DC_BASELINE, mixture.sample_rate_hz)
        config = ebiunmix.PipelineConfig(filter_position="before_decimate")
    seen = []

    def recording_sym_eigen(m):
        seen.append(np.array(m, dtype=float))
        return sym_eigen(m)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pca, "sym_eigen", recording_sym_eigen)
        mp.setattr(fastica, "sym_eigen", recording_sym_eigen)
        ebiunmix.run_pipeline(mixture, config)
    return seen


class TestSymEigenMatchesNumpyRotations:
    """sym_eigen against the same cyclic Jacobi with numpy 2-column rotations.

    Both take the same rotations in the same order, so only rounding differs:
    eigenvalues agree to 1e-13 of the norm, eigenvector columns to 1e-10 (for
    eigenvalues separated by more than ~1e-6 of the norm; within a repeated
    eigenvalue's eigenspace rounding picks the basis), and the sweep cap
    trips exactly when the reference needs more sweeps than the cap allows.
    """

    @staticmethod
    def check(m):
        vals, vecs, sweeps = jacobi_numpy_rotations(m, linalg.JACOBI_OFF_DIAG_TOL)
        eig = sym_eigen(m)
        assert np.abs(eig.eigenvalues - vals).max() <= 1e-13 * np.linalg.norm(m)
        assert np.abs(eig.eigenvectors - vecs).max() <= 1e-10
        with pytest.MonkeyPatch.context() as mp:
            for cap in range(sweeps + 1):
                mp.setattr(linalg, "JACOBI_MAX_SWEEPS", cap)
                if sweeps > cap:
                    with pytest.raises(JacobiConvergenceError) as excinfo:
                        sym_eigen(m)
                    assert excinfo.value.sweeps == cap
                else:
                    sym_eigen(m)

    @pytest.mark.parametrize("dc", [False, True], ids=["zero_mean", "dc_baseline"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_pipeline_inputs(self, seed, dc):
        matrices = _pipeline_sym_eigen_inputs(seed, dc)
        assert {m.shape for m in matrices} == {(4, 4), (2, 2)}
        for m in matrices:
            self.check(m)

    @pytest.mark.parametrize("kind, seed", [("near_orthonormal", 10), ("random", 20)])
    @pytest.mark.parametrize("k", [2, 4])
    def test_w_wt(self, k, kind, seed):
        rng = np.random.default_rng(seed + k)
        for _ in range(20):
            if kind == "near_orthonormal":
                q, _ = np.linalg.qr(rng.standard_normal((k, k)))
                w = q + 1e-3 * rng.standard_normal((k, k))
            else:
                w = rng.standard_normal((k, k))
            self.check(w @ w.T)

    @given(
        p=st.integers(1, 6),
        exponent=st.floats(-8.0, 8.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_random_symmetric(self, p, exponent, seed):
        m = np.random.default_rng(seed).standard_normal((p, p))
        self.check(0.5 * (m + m.T) * 10.0**exponent)


# small integers make ties: repeated eigenvalues, eigenvector entries of equal
# magnitude, zeros of both signs
_ENTRIES = (st.lists(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0]), min_size=64, max_size=64)
            | st.lists(st.floats(-10.0, 10.0), min_size=64, max_size=64))


class TestSymEigenMatchesNumpyOrder:
    """sym_eigen's set-up, order and signs on Python floats give the bits of
    the numpy form it replaced (sym_eigen_reference), eigenvector layout
    included, from k = 1 to 8."""

    @staticmethod
    def check(m):
        vals, vecs = sym_eigen_reference(m)
        eig = sym_eigen(m)
        assert eig.eigenvalues.tobytes() == vals.tobytes()
        assert eig.eigenvectors.tobytes() == vecs.tobytes()
        assert eig.eigenvectors.strides == vecs.strides

    @given(
        k=st.integers(1, 8),
        entries=_ENTRIES,
        diagonal=st.booleans(),
        skew=st.sampled_from([0.0, 1e-12]),
        scale=st.sampled_from([1.0, 1e-150, 1e155]),
    )
    @example(k=2, entries=[1.0] * 64, diagonal=False, skew=0.0, scale=1.0)  # columns (c, -c)
    @example(k=4, entries=[-0.0] * 64, diagonal=False, skew=0.0, scale=1.0)
    def test_bit_equal_to_numpy_order(self, k, entries, diagonal, skew, scale):
        x = np.reshape(entries[:k * k], (k, k))
        if diagonal:  # every repeated entry is a tied eigenvalue
            x = np.diag(np.diag(x))
        m = np.where(np.tri(k, dtype=bool), x.T, x) * scale  # symmetric; zeros keep their sign
        if skew:  # an asymmetry within the symmetry tolerance
            m = m + np.triu(np.full((k, k), skew * max(1.0, np.abs(m).max())), 1)
        self.check(m)

    @pytest.mark.parametrize("entry", [-0.0, 0.0, -3.0, 5e-324])
    def test_1x1(self, entry):
        self.check(np.array([[entry]]))


class TestSvd:
    def test_diagonal_input(self):
        res = svd(np.diag([3.0, 2.0]))
        assert np.allclose(res.D, [3.0, 2.0], atol=1e-12)
        assert np.allclose(np.abs(res.U), np.eye(2), atol=1e-12)
        assert np.allclose(np.abs(res.V), np.eye(2), atol=1e-12)
        assert np.allclose((res.U * res.D) @ res.V.T, np.diag([3.0, 2.0]), atol=1e-12)

    def test_zero_column_rejected(self):
        y = np.zeros((5, 2))
        y[:, 0] = [1.0, 2.0, 3.0, 4.0, 5.0]
        with pytest.raises(InvalidInputError, match="rank deficient"):
            svd(y)

    def test_all_zero_matrix(self):
        with pytest.raises(InvalidInputError, match="rank deficient"):
            svd(np.zeros((4, 2)))

    @pytest.mark.parametrize("seed", range(10))
    def test_reconstruction_oracle(self, seed):
        rng = np.random.default_rng(3000 + seed)
        y = rng.standard_normal((50, 4))
        res = svd(y)
        err = np.linalg.norm(y - (res.U * res.D) @ res.V.T) / np.linalg.norm(y)
        assert err < 1e-10
        assert np.abs(res.U.T @ res.U - np.eye(4)).max() < 1e-10
        assert np.abs(res.V.T @ res.V - np.eye(4)).max() < 1e-10
        assert np.all(np.diff(res.D) <= 1e-12)
        assert np.all(res.D >= 0)

    def test_wide_matrix_rejected(self):
        with pytest.raises(DimensionError):
            svd(np.ones((2, 3)))

    @pytest.mark.parametrize("ratio", [1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8])
    def test_rank_rule_keeps_u_orthonormal(self, ratio):
        # Y^T Y squares the condition number, so U^T U departs from I by about
        # eps * (D[0] / D[-1])^2. svd refuses every singular-value ratio at or
        # below 1e-6 (a Gram eigenvalue ratio at or below RANK_TOL); at the
        # bound itself rounding decides which side a draw falls on.
        eps = np.finfo(float).eps
        for seed in range(20):
            rng = np.random.default_rng(seed)
            q1 = np.linalg.qr(rng.standard_normal((1000, 4)))[0]
            q2 = np.linalg.qr(rng.standard_normal((4, 4)))[0]
            y = (q1 * [1.0, 0.5, 0.1, ratio]) @ q2.T
            if ratio < 1e-6:
                with pytest.raises(InvalidInputError, match="rank deficient"):
                    svd(y)
                continue
            try:
                res = svd(y)
            except InvalidInputError:
                assert ratio == 1e-6
                continue
            cond = res.D[0] / res.D[-1]
            assert cond < 1e6, f"seed {seed}: returned at a ratio of {1.0 / cond:.3e}"
            dev = np.abs(res.U.T @ res.U - np.eye(4)).max()
            assert dev <= 10.0 * eps * cond**2, f"seed {seed}: |U^T U - I| = {dev:.3e}"
