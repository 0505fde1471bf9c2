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
from .linalg import check_matrix


@dataclass(frozen=True)
class SeparationReport:
    """Matched component pairs with their correlations, leakage, and Amari index."""

    assignment: tuple  # ((estimated_index, true_index), ...)
    correlations: tuple  # signed, one per pair
    amari_index: float
    leakage: tuple  # one per pair

    def __post_init__(self):
        if not (len(self.assignment) == len(self.correlations) == len(self.leakage)):
            raise DimensionError("assignment/correlations/leakage lengths differ")
        if any(abs(r) > 1.0 + 1e-12 for r in self.correlations):
            raise InvalidInputError("correlations must lie in [-1, 1]")

    def min_abs_correlation(self) -> float:
        return min(abs(r) for r in self.correlations)


def pearson(x, y) -> float:
    """Sample correlation coefficient, clipped to [-1, 1]."""
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if x.size != y.size:
        raise DimensionError(f"length mismatch: {x.size} vs {y.size}")
    if x.size < 2:
        raise InvalidInputError("correlation needs at least 2 samples")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise InvalidInputError("correlation input must be finite")
    xm = x - x.mean()
    ym = y - y.mean()
    sx = float(xm @ xm)
    sy = float(ym @ ym)
    if sx == 0.0 or sy == 0.0:
        raise UndefinedCorrelationError("correlation undefined for zero-variance input")
    return float(np.clip((xm @ ym) / np.sqrt(sx * sy), -1.0, 1.0))


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
    e = check_matrix(estimated, "estimated")
    t = check_matrix(truth, "truth")
    if e.shape[0] != t.shape[0]:
        raise DimensionError(f"row count mismatch: {e.shape[0]} vs {t.shape[0]}")
    k_est, k_true = e.shape[1], t.shape[1]

    corr = np.empty((k_est, k_true))
    for i in range(k_est):
        for j in range(k_true):
            corr[i, j] = pearson(e[:, i], t[:, j])

    if k_est <= k_true:
        candidates = (
            tuple((i, perm[i]) for i in range(k_est))
            for perm in itertools.permutations(range(k_true), k_est)
        )
    else:
        candidates = (
            tuple((sel[j], j) for j in range(k_true))
            for sel in itertools.permutations(range(k_est), k_true)
        )
    best = max(candidates, key=lambda pairs: sum(abs(corr[i, j]) for i, j in pairs))
    pairs = tuple(sorted(best))

    correlations = tuple(float(corr[i, j]) for i, j in pairs)
    leakage = tuple(
        max((abs(float(corr[i, jj])) for jj in range(k_true) if jj != j), default=0.0)
        for i, j in pairs
    )
    est_sel = [i for i, _ in pairs]
    true_sel = [j for _, j in pairs]
    amari = _amari_of(corr[np.ix_(est_sel, true_sel)])
    return SeparationReport(
        assignment=pairs, correlations=correlations, amari_index=amari, leakage=leakage
    )
