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
docstring has the rule, and its limit at 8 terms of a sum). A correlation
does not depend on the scale of either side: where the product of two sums
of squares under- or overflows, its root is taken factor by factor, and a
Gram matrix that itself overflows is refused. Nor does the Amari index: an
Amari product w @ a that under- or overflows, or may have lost bits to
underflow, is formed again from w and a scaled by powers of two.

match_components takes both sides by dsp's one rule for sample data
(dsp._samples): a SignalMatrix as checked when it was built, any other
array through check_matrix; amari_index checks its two matrices.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .dsp import _samples
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
    with np.errstate(over="ignore", invalid="ignore"):  # refused just below
        z -= sample_mean(z)
        gram = z.T @ z
    if not np.isfinite(gram).all():
        raise InvalidInputError("correlation out of range: the sums of squares and cross "
                                "products of the centred columns overflow a float")
    gram = gram.tolist()
    ss = [row[i] for i, row in enumerate(gram)]
    if not all(ss):
        raise UndefinedCorrelationError("correlation undefined for zero-variance input")
    k = x.shape[1]
    return [[min(max(g / _root_product(si, sj), -1.0), 1.0)
             for g, sj in zip(row[k:], ss[k:])] for row, si in zip(gram, ss[:k])]


def _root_product(a: float, b: float) -> float:
    """sqrt(a b) of two positive floats; sqrt(a) sqrt(b) where a b under- or
    overflows (past ~1e-323 or ~1.8e308), so scale leaves the correlation alone."""
    ab = a * b
    return math.sqrt(ab) if 0.0 < ab < math.inf else math.sqrt(a) * math.sqrt(b)


def _amari_of(p: list) -> float:
    """The Amari index of a square performance matrix given as lists of floats."""
    p = [[abs(x) for x in row] for row in p]
    cols = list(zip(*p))
    if not all(map(any, p)) or not all(map(any, cols)):
        raise InvalidInputError("performance matrix has an all-zero row or column")
    # numpy's bits: a row sums as np.sum does, a column in row order
    rows = short_sum([short_sum(row) / max(row) - 1.0 for row in p])
    columns = short_sum([sum(col) / max(col) - 1.0 for col in cols])
    return (rows + columns) / (2.0 * len(p))


# Below this largest |w @ a|, 2**53 times the smallest normal float, a term of
# the product may have lost bits to underflow: a subnormal holds fewer than 53.
_UNDERFLOW_RISK = 2.0**-969


def _unit_scaled(m: np.ndarray) -> np.ndarray:
    """m times the power of two that brings its largest magnitude into [0.5, 1)."""
    return np.ldexp(m, -math.frexp(float(np.abs(m).max()))[1])


def amari_index(w, a) -> float:
    """Amari performance index of P = w @ a; 0 means perfect separation.

    Invariant under row/column permutation and nonzero scaling of P. Where
    w @ a has a non-finite entry or an all-zero row or column, or its largest
    magnitude is below 2**-969, where a term may have underflowed, P is formed
    again from w and a, each scaled by a power of two to a largest magnitude
    in [0.5, 1): exact scaling, so the index is the same, and no entry of
    that product exceeds the inner dimension. A P that is still all-zero in
    a row or column raises InvalidInputError.
    """
    w = check_matrix(w, "w")
    a = check_matrix(a, "a")
    if w.shape[1] != a.shape[0]:
        raise DimensionError(f"cannot multiply {w.shape} by {a.shape}")
    with np.errstate(over="ignore", invalid="ignore"):  # formed again below
        p = w @ a
    if p.shape[0] != p.shape[1]:
        raise DimensionError(f"performance matrix must be square, got {p.shape}")
    if not (np.isfinite(p).all() and p.any(axis=0).all() and p.any(axis=1).all()
            and np.abs(p).max() >= _UNDERFLOW_RISK):
        p = _unit_scaled(w) @ _unit_scaled(a)
    return _amari_of(p.tolist())


def match_components(estimated, truth) -> SeparationReport:
    """Pair estimated components with true sources, maximizing total |correlation|.

    The assignment is a bijection over min(k_est, k_true) indices found by
    exhaustive search; correlations keep their sign. The Amari index is
    computed on the correlation matrix restricted to the matched components
    (a signed permutation there means perfect separation).
    """
    corr = _correlations(_samples(estimated, "estimated"), _samples(truth, "truth"))
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
