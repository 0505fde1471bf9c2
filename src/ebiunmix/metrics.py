"""Separation-quality metrics against known sources.

match_components pairs estimated components with true sources by exhaustive
search over assignments (component counts here are <= 4, so exhaustive is
exactly optimal and trivially cheap). Leakage is the largest absolute
correlation each estimated component keeps with a source it was NOT
assigned to, which turns "the cardiac estimate still contains respiration"
into a number.

One numpy Gram product of the centred columns gives every correlation; from
there the k x m correlations, the assignment search, the leakage and the
Amari index run on Python floats, with numpy's bits (the linalg module
docstring has the rule, and its limit at 8 terms of a sum).
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, InvalidInputError, UndefinedCorrelationError
from .linalg import check_matrix, sample_mean, short_sum


@dataclass(frozen=True)
class SeparationReport:
    """Matched component pairs with their correlations, leakage, and Amari index;
    match_components gives one correlation, within [-1, 1], and one leakage per pair."""

    assignment: tuple  # ((estimated_index, true_index), ...)
    correlations: tuple  # signed, one per pair
    amari_index: float
    leakage: tuple  # one per pair


def _correlations(x: np.ndarray, y: np.ndarray) -> list:
    """Sample correlation of every column of x with every column of y, clipped
    to [-1, 1], as k_x lists of k_y floats.

    One Gram matrix of the centred columns of both gives the cross products
    and the sums of squares, so a column correlated with itself is exactly 1.
    """
    if x.shape[0] != y.shape[0]:
        raise DimensionError(f"row count mismatch: {x.shape[0]} vs {y.shape[0]}")
    if x.shape[0] < 2:
        raise InvalidInputError("correlation needs at least 2 samples")
    z = np.concatenate((x, y), axis=1)
    z -= sample_mean(z)
    gram = (z.T @ z).tolist()
    ss = [row[i] for i, row in enumerate(gram)]
    if not all(ss):
        raise UndefinedCorrelationError("correlation undefined for zero-variance input")
    k = x.shape[1]
    # below ~1e-323 the product underflows to 0, where numpy divided by zero
    return [[min(max(g / (math.sqrt(si * sj) or math.sqrt(si) * math.sqrt(sj)), -1.0), 1.0)
             for g, sj in zip(row[k:], ss[k:])] for row, si in zip(gram, ss[:k])]


def _amari_of(p: list) -> float:
    """The Amari index of a square performance matrix given as lists of floats."""
    p = [[abs(x) for x in row] for row in p]
    cols = list(zip(*p))
    if not all(map(any, p)) or not all(map(any, cols)):
        raise InvalidInputError("performance matrix has an all-zero row or column")
    if any(math.isnan(x) for row in p for x in row):
        return math.nan  # as numpy's NaN-propagating max and sums give
    # numpy's bits: a row sums as np.sum does, a column in row order
    rows = short_sum([short_sum(row) / max(row) - 1.0 for row in p])
    columns = short_sum([sum(col) / max(col) - 1.0 for col in cols])
    return (rows + columns) / (2.0 * len(p))


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
    return _amari_of(p.tolist())


def match_components(estimated, truth) -> SeparationReport:
    """Pair estimated components with true sources, maximizing total |correlation|.

    The assignment is a bijection over min(k_est, k_true) indices found by
    exhaustive search; correlations keep their sign. The Amari index is
    computed on the correlation matrix restricted to the matched components
    (a signed permutation there means perfect separation).
    """
    corr = _correlations(check_matrix(estimated, "estimated"), check_matrix(truth, "truth"))
    k_est, k_true = len(corr), len(corr[0])

    # Search over the shorter side, then name each pair (estimated, true).
    flip = k_est > k_true
    a = [[abs(c) for c in row] for row in (zip(*corr) if flip else corr)]
    perm = max(
        itertools.permutations(range(len(a[0])), len(a)),
        key=lambda p: sum(row[c] for row, c in zip(a, p)),
    )
    pairs = tuple(sorted((c, r) if flip else (r, c) for r, c in enumerate(perm)))

    correlations = tuple(corr[i][j] for i, j in pairs)
    leakage = tuple(
        max((abs(corr[i][jj]) for jj in range(k_true) if jj != j), default=0.0)
        for i, j in pairs
    )
    rows, cols = zip(*pairs)
    amari = _amari_of([[corr[i][j] for j in cols] for i in rows])
    return SeparationReport(
        assignment=pairs, correlations=correlations, amari_index=amari, leakage=leakage
    )
