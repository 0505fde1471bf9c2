"""Separation-quality metrics against known sources.

match_components pairs estimated components with true sources by exhaustive
search over assignments (component counts here are <= 4, so exhaustive is
exactly optimal and trivially cheap). Leakage is the largest absolute
correlation each estimated component keeps with a source it was NOT
assigned to, which turns "the cardiac estimate still contains respiration"
into a number.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, InvalidInputError, UndefinedCorrelationError
from .linalg import check_matrix, sample_mean


@dataclass(frozen=True)
class SeparationReport:
    """Matched component pairs with their correlations, leakage, and Amari index;
    match_components gives one correlation, within [-1, 1], and one leakage per pair."""

    assignment: tuple  # ((estimated_index, true_index), ...)
    correlations: tuple  # signed, one per pair
    amari_index: float
    leakage: tuple  # one per pair


def _correlations(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Sample correlation of every column of x with every column of y, clipped to [-1, 1].

    One Gram matrix of the centred columns of both gives the cross products
    and the sums of squares, so a column correlated with itself is exactly 1.
    """
    if x.shape[0] != y.shape[0]:
        raise DimensionError(f"row count mismatch: {x.shape[0]} vs {y.shape[0]}")
    if x.shape[0] < 2:
        raise InvalidInputError("correlation needs at least 2 samples")
    z = np.hstack([x, y])
    z -= sample_mean(z)
    gram = z.T @ z
    ss = gram.diagonal()
    if not ss.all():
        raise UndefinedCorrelationError("correlation undefined for zero-variance input")
    k = x.shape[1]
    return np.clip(gram[:k, k:] / np.sqrt(np.outer(ss[:k], ss[k:])), -1.0, 1.0)


def _amari_of(p: np.ndarray) -> float:
    p = np.abs(p)
    k = p.shape[0]
    row_max = p.max(axis=1)
    col_max = p.max(axis=0)
    if np.any(row_max == 0.0) or np.any(col_max == 0.0):
        raise InvalidInputError("performance matrix has an all-zero row or column")
    rows = (p.sum(axis=1) / row_max - 1.0).sum()
    cols = (p.sum(axis=0) / col_max - 1.0).sum()
    return float((rows + cols) / (2.0 * k))


def amari_index(w, a) -> float:
    """Amari performance index of P = w @ a; 0 means perfect separation.

    Invariant under row/column permutation and nonzero scaling of P.
    """
    w = check_matrix(w, "w")
    a = check_matrix(a, "a")
    if w.shape[1] != a.shape[0]:
        raise DimensionError(f"cannot multiply {w.shape} by {a.shape}")
    p = w @ a
    if p.shape[0] != p.shape[1]:
        raise DimensionError(f"performance matrix must be square, got {p.shape}")
    return _amari_of(p)


def match_components(estimated, truth) -> SeparationReport:
    """Pair estimated components with true sources, maximizing total |correlation|.

    The assignment is a bijection over min(k_est, k_true) indices found by
    exhaustive search; correlations keep their sign. The Amari index is
    computed on the correlation matrix restricted to the matched components
    (a signed permutation there means perfect separation).
    """
    corr = _correlations(check_matrix(estimated, "estimated"), check_matrix(truth, "truth"))
    k_est, k_true = corr.shape

    # Search over the shorter side, then name each pair (estimated, true).
    flip = k_est > k_true
    a = np.abs(corr.T if flip else corr)
    perm = max(
        itertools.permutations(range(a.shape[1]), a.shape[0]),
        key=lambda p: sum(a[r, p[r]] for r in range(len(p))),
    )
    pairs = tuple(sorted((c, r) if flip else (r, c) for r, c in enumerate(perm)))

    correlations = tuple(float(corr[i, j]) for i, j in pairs)
    leakage = tuple(
        max((abs(float(corr[i, jj])) for jj in range(k_true) if jj != j), default=0.0)
        for i, j in pairs
    )
    amari = _amari_of(corr[np.ix_(*zip(*pairs))])
    return SeparationReport(
        assignment=pairs, correlations=correlations, amari_index=amari, leakage=leakage
    )
