"""Independent reference implementations used to check expected values.

These deliberately take a different computational route from the package:
covariance by explicit double loops, eigenvalues from characteristic
polynomial roots, Jacobi rotations as 2-column numpy products, determinants
by cofactor expansion, filter responses from the analog prototype, filter
outputs from the difference equation one sample at a time (and, for a
bit-for-bit check, block by block with a carry loop over whole blocks),
spectra straight from the FFT, CSV text one formatted row at a time, ICA
component signs one column at a time, component matching one correlation
pair at a time, polar factors by plain Newton-Schulz iteration.

fastica_reference, canonicalize_reference, correlations_reference,
match_components_reference, amari_reference, sym_eigen_reference and
pca_reference are of
another kind: each keeps an earlier form of package code, in numpy's own
axis-0 means, products with transposed views, reductions, sorts and clips,
which the package's current form, partly on Python floats, must match bit
for bit. read_csv_reference is of that kind too: the CSV reader that fed
numpy's parser one stripped line at a time, which the streaming reader must
match in samples, labels, rate and every error.
"""

import itertools
import math

import numpy as np


def covariance_loops(centered):
    """Naive O(n p^2) summation definition of the sample covariance."""
    x = np.asarray(centered, dtype=float)
    n, p = x.shape
    out = np.zeros((p, p))
    for i in range(p):
        for j in range(p):
            acc = 0.0
            for t in range(n):
                acc += x[t, i] * x[t, j]
            out[i, j] = acc / (n - 1)
    return out


def det_cofactor(m):
    """Determinant by recursive cofactor expansion (p <= 4 in practice)."""
    m = np.asarray(m, dtype=float)
    k = m.shape[0]
    if k == 1:
        return float(m[0, 0])
    total = 0.0
    for j in range(k):
        minor = np.delete(np.delete(m, 0, axis=0), j, axis=1)
        total += ((-1.0) ** j) * m[0, j] * det_cofactor(minor)
    return total


def charpoly_eigenvalues(m):
    """Eigenvalues as roots of det(m - lambda I), built by cofactor expansion.

    Polynomial coefficients are recovered by evaluating the determinant at
    k+1 sample points and solving the Vandermonde system; roots come from
    numpy's companion-matrix solver. Nothing here touches the Jacobi path.
    """
    m = np.asarray(m, dtype=float)
    k = m.shape[0]
    # char poly has degree k; sample at k+1 points scaled to the matrix size
    scale = max(1.0, np.abs(m).max())
    points = np.linspace(-2.0 * scale * k, 2.0 * scale * k, k + 1)
    values = [det_cofactor(m - lam * np.eye(k)) for lam in points]
    coeffs = np.polyfit(points, values, k)
    roots = np.roots(coeffs)
    return np.sort_complex(roots).real[::-1]


def jacobi_numpy_rotations(m, tol):
    """Cyclic Jacobi with each rotation applied as numpy 2-column products.

    The same pair order, per-pair skip and stopping rule as sym_eigen (stop
    once every off-diagonal magnitude is at most tol * ||m||_F), with no sweep
    cap. Returns (eigenvalues descending, eigenvector columns with their
    largest-magnitude entry positive, sweeps needed).
    """
    a = np.asarray(m, dtype=float)
    a = 0.5 * (a + a.T)
    p = a.shape[0]
    v = np.eye(p)
    thresh = tol * float(np.linalg.norm(a))
    upper = np.triu_indices(p, 1)
    sweeps = 0
    while np.abs(a[upper]).max(initial=0.0) > thresh:
        for i, j in zip(*upper):
            if abs(a[i, j]) <= thresh:
                continue
            theta = (a[j, j] - a[i, i]) / (2.0 * a[i, j])
            t = np.copysign(1.0, theta) / (abs(theta) + np.hypot(theta, 1.0))
            c = 1.0 / np.hypot(t, 1.0)
            s = t * c
            rot = np.array([[c, s], [-s, c]])
            pair = [i, j]
            a[:, pair] = a[:, pair] @ rot
            a[pair] = rot.T @ a[pair]
            v[:, pair] = v[:, pair] @ rot
        sweeps += 1
    vals = np.diag(a)
    order = np.argsort(-vals, kind="stable")
    vecs = v[:, order]
    for col in range(p):
        if vecs[np.argmax(np.abs(vecs[:, col])), col] < 0:
            vecs[:, col] = -vecs[:, col]
    return vals[order], vecs, sweeps


def analog_lp2_response(freqs_hz, cutoff_hz, sample_rate_hz):
    """|H| of the prototype 1/(s^2 + sqrt(2) s + 1) through the prewarped bilinear map."""
    k = np.tan(np.pi * cutoff_hz / sample_rate_hz)
    z = np.exp(2j * np.pi * np.asarray(freqs_hz, dtype=float) / sample_rate_hz)
    s = (z - 1.0) / (z + 1.0) / k
    return np.abs(1.0 / (s * s + np.sqrt(2.0) * s + 1.0))


def biquad_recursion(x, c):
    """Zero-state biquad difference equation, one sample at a time, per column."""
    x = np.asarray(x, dtype=float)
    y = np.empty_like(x)
    p = x.shape[1]
    x1 = np.zeros(p)
    x2 = np.zeros(p)
    y1 = np.zeros(p)
    y2 = np.zeros(p)
    for t in range(x.shape[0]):
        xt = x[t]
        yt = c.b0 * xt + c.b1 * x1 + c.b2 * x2 - c.a1 * y1 - c.a2 * y2
        y[t] = yt
        x2, x1 = x1, xt
        y2, y1 = y1, yt
    return y


def block_biquad_reference(x, c, block):
    """Zero-state biquad by blocks of `block` samples, carried block after block.

    The block route apply_filter took before its carry moved to the block
    boundaries: each block's zero-state response is a matmul with the
    Toeplitz matrix of the first `block` taps h of 1 / (1 + a1 z^-1 + a2 z^-2),
    and a Python loop then adds, to all rows of each block in turn, the
    response h[t + 1] y[-1] - a2 h[t] y[-2] to the previous block's last two
    outputs. apply_filter must match it bit for bit."""
    x = np.asarray(x, dtype=float)
    n, p = x.shape
    m = -(-n // block)
    v = np.zeros((m * block, p))
    v[:n] = c.b0 * x
    v[1:n] += c.b1 * x[:-1]
    v[2:n] += c.b2 * x[:-2]
    h = np.empty(block + 1)
    h[0], h[1] = 1.0, -c.a1
    for i in range(2, block + 1):
        h[i] = -c.a1 * h[i - 1] - c.a2 * h[i - 2]
    toeplitz = np.tril(h[np.subtract.outer(np.arange(block), np.arange(block))])
    y = np.matmul(toeplitz, v.reshape(m, block, p))
    g1, g2 = h[1:, None], -c.a2 * h[:-1, None]
    for k in range(1, m):
        y[k] += g1 * y[k - 1, -1] + g2 * y[k - 1, -2]
    return y.reshape(m * block, p)[:n]


def canonical_unmixing(x, w, skew_tol=1e-3):
    """Rows of w by descending mean log cosh of x @ w.T minus its Gaussian value,
    each negated when its component's skewness is below -skew_tol, or, for
    |skewness| < skew_tol, when its largest-magnitude sample is negative."""
    s = x @ w.T
    score = np.log(np.cosh(s)).mean(axis=0)
    out = []
    for i in np.argsort(-score, kind="stable"):
        col = s[:, i]
        skew = np.mean(col**3) / np.mean(col**2) ** 1.5
        flip = skew < 0 if abs(skew) >= skew_tol else col[np.argmax(np.abs(col))] < 0
        out.append(-w[i] if flip else w[i])
    return np.array(out)


def fastica_reference(x, config, dewhitening=None):
    """fit_fastica's loop and canonical order with x.mean(axis=0) and x @ w.T
    throughout, reusing the package's random start, contrast and polar factor.
    Returns (unmixing, mixing_estimate, per_iteration_deltas)."""
    from ebiunmix.fastica import _symmetric_decorrelate, contrast_eval
    from ebiunmix.linalg import sym_eigen

    n, k = x.shape
    a = np.random.default_rng(config.seed).standard_normal((k, k))
    w = sym_eigen(a + a.T).eigenvectors.T
    deltas = []
    for _ in range(config.max_iterations):
        g, g_prime = contrast_eval(config.contrast, x @ w.T)
        w_new = _symmetric_decorrelate((g.T @ x) / n - g_prime.mean(axis=0)[:, None] * w)
        if w_new is None:
            break
        deltas.append(float(np.abs(1.0 - np.abs(np.sum(w_new * w, axis=1))).max()))
        w = w_new
        if deltas[-1] < config.tolerance:
            break
    w = canonicalize_reference(x, w)
    mixing = w.T if dewhitening is None else dewhitening.T @ w.T
    return w, mixing, tuple(deltas)


def canonicalize_reference(x, w):
    """_canonicalize with numpy's axis-0 means, stable argsort, permuted copy
    of the components and vectorised sign choice."""
    from ebiunmix.fastica import GAUSSIAN_LOGCOSH_MEAN, _logcosh

    s = x @ w.T
    score = _logcosh(s).mean(axis=0) - GAUSSIAN_LOGCOSH_MEAN
    order = np.argsort(-score, kind="stable")
    s = s[:, order]
    s2 = s * s
    skew = np.mean(s2 * s, axis=0) / np.mean(s2, axis=0) ** 1.5
    peak = s[np.argmax(np.abs(s), axis=0), np.arange(s.shape[1])]
    flip = np.where(np.abs(skew) >= 1e-3, skew < 0, peak < 0)
    return np.where(flip[:, None], -w[order], w[order])


def correlations_reference(x, y):
    """Correlation of every column of x with every column of y from one Gram
    matrix of both, centred by z.mean(axis=0), clipped to [-1, 1]."""
    z = np.hstack([x, y])
    z -= z.mean(axis=0)
    gram = z.T @ z
    ss = gram.diagonal()
    k = x.shape[1]
    return np.clip(gram[:k, k:] / np.sqrt(np.outer(ss[:k], ss[k:])), -1.0, 1.0)


def amari_reference(p):
    """The Amari index of a square performance matrix by numpy row and column
    maxima and sums."""
    p = np.abs(p)
    k = p.shape[0]
    row_max = p.max(axis=1)
    col_max = p.max(axis=0)
    if np.any(row_max == 0.0) or np.any(col_max == 0.0):
        raise ValueError("performance matrix has an all-zero row or column")
    rows = (p.sum(axis=1) / row_max - 1.0).sum()
    cols = (p.sum(axis=0) / col_max - 1.0).sum()
    return float((rows + cols) / (2.0 * k))


def match_components_reference(estimated, truth):
    """match_components on numpy arrays: correlations_reference, then the
    assignment search, leakage and amari_reference on numpy scalars.

    Returns (assignment, correlations, leakage, amari_index) in the layout of
    SeparationReport.
    """
    corr = correlations_reference(estimated, truth)
    k_est, k_true = corr.shape
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
    return pairs, correlations, leakage, amari_reference(corr[np.ix_(*zip(*pairs))])


def sym_eigen_reference(m, tol=1e-12):
    """sym_eigen with its set-up and order in numpy: symmetrised as
    0.5 (m + m^T), columns picked by a stable argsort of the negated diagonal
    and signed by a vectorised argmax, the rotations on Python floats as in
    sym_eigen. Returns (eigenvalues, eigenvectors)."""
    a = np.asarray(m, dtype=float)
    p = a.shape[0]
    scale = max(1.0, float(np.abs(a).max()))
    a = 0.5 * (a + a.T)
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(a))
        if norm == math.inf:
            norm = scale * float(np.linalg.norm(a / scale))
    thresh = tol * norm
    upper = [(i, j) for i in range(p) for j in range(i + 1, p)]
    a = a.tolist()
    v = np.eye(p).tolist()
    while max((abs(a[i][j]) for i, j in upper), default=0.0) > thresh:
        for i, j in upper:
            aij = a[i][j]
            if abs(aij) <= thresh:
                continue
            theta = (a[j][j] - a[i][i]) / (2.0 * aij)
            t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(theta, 1.0))
            c = 1.0 / math.hypot(t, 1.0)
            s = t * c
            for row in a + v:
                x, y = row[i], row[j]
                row[i] = x * c - y * s
                row[j] = x * s + y * c
            rows = tuple(zip(a[i], a[j]))
            a[i] = [c * x - s * y for x, y in rows]
            a[j] = [s * x + c * y for x, y in rows]
    vals = np.diag(np.array(a))
    order = np.argsort(-vals, kind="stable")
    v = np.array(v)[:, order]
    peak = v[np.argmax(np.abs(v), axis=0), np.arange(p)]
    return vals[order], v * np.where(peak < 0, -1.0, 1.0)


def pca_reference(x):
    """fit_pca's eigenvalues, clamped by np.clip, and explained_variance at
    every k from numpy sums, after centring by x.mean(axis=0).

    Returns (eigenvalues, [explained variance at k = 1 .. p])."""
    from ebiunmix.linalg import sym_eigen

    centered = x - x.mean(axis=0)
    lam = np.clip(sym_eigen(centered.T @ centered / (len(x) - 1)).eigenvalues, 0.0, None)
    total = float(lam.sum())
    return lam, [1.0 if total <= 0.0 else float(lam[:k].sum()) / total for k in range(1, len(lam) + 1)]


def newton_schulz_polar(w, tol=1e-14, max_steps=50):
    """(W W^T)^(-1/2) W by Newton-Schulz steps alone, from W scaled so its
    singular values lie in (0, 1]: W <- 3/2 W - 1/2 W W^T W until
    max |W W^T - I| <= tol. Linear while a singular value is small (~1.5x
    per step), so it needs ~40 steps at cond(W) = 1e6.

    The steps run in long double and the result is rounded to double: in
    double, rounding in the early steps leaves the result up to 3e-13 from
    the polar factor at cond(W) = 1e4, more than the tolerances it is
    compared at."""
    eye = np.eye(w.shape[0], dtype=np.longdouble)
    w = np.asarray(w, dtype=np.longdouble)
    w = w / np.sqrt(np.abs(w @ w.T).sum(axis=1).max())
    for _ in range(max_steps):
        residual = eye - w @ w.T
        if np.abs(residual).max() <= tol:
            return w.astype(float)
        w = w + 0.5 * residual @ w
    raise AssertionError(f"not orthonormal within {max_steps} Newton-Schulz steps")


def csv_text(header_lines, rows):
    """CSV text built one row at a time: header lines, then %.17g cells joined by commas."""
    lines = [line + "\n" for line in header_lines]
    for row in rows:
        lines.append(",".join(f"{v:.17g}" for v in row) + "\n")
    return "".join(lines)


def periodogram(x, rate_hz):
    """(freqs, power) straight from the FFT of the raw samples."""
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    freqs = np.fft.rfftfreq(n, d=1.0 / rate_hz)
    power = np.abs(np.fft.rfft(x, axis=0)) ** 2 / n
    return freqs, power


def peak_frequency(x, rate_hz):
    """Frequency of the largest non-DC periodogram bin of a 1-D signal."""
    freqs, power = periodogram(np.asarray(x, dtype=float).reshape(-1, 1), rate_hz)
    idx = 1 + int(np.argmax(power[1:, 0]))
    return float(freqs[idx])


def amari_loops(p):
    """Hand transcription of the Amari index formula with explicit loops."""
    p = np.abs(np.asarray(p, dtype=float))
    k = p.shape[0]
    total = 0.0
    for i in range(k):
        row = sum(p[i, j] for j in range(k))
        total += row / max(p[i, j] for j in range(k)) - 1.0
    for j in range(k):
        col = sum(p[i, j] for i in range(k))
        total += col / max(p[i, j] for i in range(k)) - 1.0
    return total / (2.0 * k)


def gauss_logcosh_mean(order=128):
    """E[log cosh X], X ~ N(0,1), by Gauss-Hermite quadrature."""
    nodes, weights = np.polynomial.hermite_e.hermegauss(order)
    return float(np.sum(weights * np.log(np.cosh(nodes))) / np.sqrt(2.0 * np.pi))


def pair_correlation(x, y):
    """Pearson correlation of two 1-D signals from their own centred dot products."""
    xm = x - x.mean()
    ym = y - y.mean()
    return float(np.clip((xm @ ym) / np.sqrt((xm @ xm) * (ym @ ym)), -1.0, 1.0))


def match_components_loops(estimated, truth):
    """Component matching with one correlation per (estimated, true) pair and
    separate assignment searches for each side being shorter.

    Returns (assignment, correlations, leakage, amari_index) in the layout of
    SeparationReport.
    """
    e = np.asarray(estimated, dtype=float)
    t = np.asarray(truth, dtype=float)
    k_est, k_true = e.shape[1], t.shape[1]
    corr = np.empty((k_est, k_true))
    for i in range(k_est):
        for j in range(k_true):
            corr[i, j] = pair_correlation(e[:, i], t[:, j])
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
    matched = corr[np.ix_([i for i, _ in pairs], [j for _, j in pairs])]
    return pairs, correlations, leakage, amari_loops(matched)


def read_csv_reference(path):
    """read_csv as a line scan: every line stripped in Python, `# key=value`
    lines to a dict, blank lines skipped, the rest fed to np.loadtxt one line
    at a time; on a refusal the rows are judged one by one for the error."""
    from ebiunmix.dsp import SignalMatrix
    from ebiunmix.errors import CsvFormatError

    def numbers(text):
        try:
            return np.loadtxt([text], delimiter=",", comments=None, ndmin=1) if text else None
        except ValueError:
            return None

    meta, line_no = {}, 0

    def rows(fh):
        nonlocal line_no
        fh.seek(0)
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if line.startswith("#"):
                key, eq, value = line[1:].partition("=")
                if eq:
                    meta[key.strip()] = (value.strip(), line_no)
            elif line:
                yield line_no, line

    def raise_at_bad_row(fh, n_cols):
        scan = rows(fh)
        next(scan)
        for row_no, line in scan:
            cells = [c.strip() for c in line.split(",")]
            if len(cells) != n_cols:
                raise CsvFormatError(
                    f"expected {n_cols} columns, found {len(cells)}", line_number=row_no
                )
            values = numbers(line)
            if values is not None and np.isfinite(values).all():
                continue
            for cell in cells:
                values = numbers(cell)
                if values is None or not np.isfinite(values).all():
                    kind = "non-numeric" if values is None else "non-finite"
                    raise CsvFormatError(f"{kind} cell {cell!r}", line_number=row_no)

    with open(path, "r", encoding="utf-8-sig") as fh:
        scan = rows(fh)
        header, first = next(scan, None), next(scan, None)
        if header is not None and numbers(header[1]) is not None:
            raise CsvFormatError(
                "expected a header row of channel labels, found numeric data",
                line_number=header[0],
            )
        labels = () if header is None else tuple(c.strip() for c in header[1].split(","))
        if first is not None:
            data = (line for _, line in itertools.chain([first], scan))
            try:
                samples = np.loadtxt(data, delimiter=",", comments=None, ndmin=2)
            except ValueError:
                samples = None
            if samples is None or samples.shape[1] != len(labels) or not np.isfinite(samples).all():
                raise_at_bad_row(fh, len(labels))

    rate_text, rate_line = meta.get("rate_hz", (None, line_no))
    if rate_text is None:
        raise CsvFormatError("missing required '# rate_hz=' comment", line_number=rate_line)
    rate = numbers(rate_text)
    if rate is None or rate.shape != (1,) or not 0 < rate[0] < np.inf:
        raise CsvFormatError(
            f"rate_hz must be a finite number > 0, got {rate_text!r}", line_number=rate_line
        )
    if header is None:
        raise CsvFormatError("missing header row", line_number=line_no)
    if first is None:
        raise CsvFormatError("no data rows", line_number=line_no)
    return SignalMatrix(samples, rate.item(), labels)
