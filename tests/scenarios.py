"""Real-shaped variants of synth.default_scenario, for tests only.

Each builder is a pure function of (seed, n) and its own keyword arguments,
and returns (mixture, truth) as default_scenario does, with the truth
unchanged. They build degenerate inputs that real EBI recordings carry: one
channel at a far larger gain than the others (electrodes differ, and so can
the real and imaginary parts of a complex channel), a dead, constant,
duplicated or near-silent electrode, a DC baseline on every channel,
channels whose noise levels differ, a cardiac pulse that reaches each
electrode at its own delay, and a third source, electrode-contact drift.
"""

import numpy as np

from ebiunmix.dsp import SignalMatrix
from ebiunmix.synth import DEFAULT_MIXING, default_scenario

DEAD_KINDS = ("zeros", "constant", "copy", "noise")


def _replaced(mixture: SignalMatrix, samples: np.ndarray) -> SignalMatrix:
    return SignalMatrix(samples, mixture.sample_rate_hz, mixture.channel_labels)


def scaled_column(seed: int, n: int, *, column: int, gain: float):
    """default_scenario with mixture column `column` multiplied by gain."""
    mixture, truth = default_scenario(n=n, seed=seed)
    x = mixture.samples.copy()
    x[:, column] *= gain
    return _replaced(mixture, x), truth


def dead_column(seed: int, n: int, *, kind: str):
    """default_scenario with mixture column 3 replaced by all zeros, a
    constant 5, a copy of column 2, or noise of SD 1e-9 drawn from seed."""
    mixture, truth = default_scenario(n=n, seed=seed)
    x = mixture.samples.copy()
    x[:, 3] = {
        "zeros": 0.0,
        "constant": 5.0,
        "copy": x[:, 2],
        "noise": 1e-9 * np.random.default_rng(seed).standard_normal(n),
    }[kind]
    return _replaced(mixture, x), truth


def dc_baselines(seed: int, n: int, *, scale: float):
    """default_scenario with scale * (j + 1) added to mixture column j, the
    per-channel baselines of the benchmark's raw_rate_dc workload."""
    mixture, truth = default_scenario(n=n, seed=seed)
    baselines = scale * np.arange(1.0, mixture.n_channels + 1)
    return _replaced(mixture, mixture.samples + baselines), truth


def unequal_noise(seed: int, n: int, *, sigmas):
    """default_scenario without noise, plus channel j's own iid Gaussian noise
    of SD sigmas[j], drawn from seed."""
    mixture, truth = default_scenario(n=n, seed=seed, noise_sigma=0.0)
    noise = np.asarray(sigmas) * np.random.default_rng(seed).standard_normal(mixture.samples.shape)
    return _replaced(mixture, mixture.samples + noise), truth


def delayed_cardiac(seed: int, n: int, *, delays_ms):
    """default_scenario's sources mixed by DEFAULT_MIXING with the cardiac
    source reaching channel j delays_ms[j] later (its first sample held
    until then), plus channel noise of SD 0.05 drawn from 1000 + seed."""
    _, truth = default_scenario(n=n, seed=seed, noise_sigma=0.0)
    cardiac, respiratory = truth.samples.T
    lags = np.rint(np.asarray(delays_ms) * truth.sample_rate_hz / 1000.0).astype(int)
    mixing = np.array(DEFAULT_MIXING)
    x = mixing[:, 0] * cardiac[np.maximum(np.arange(n)[:, None] - lags, 0)]
    x += np.outer(respiratory, mixing[:, 1])
    x += 0.05 * np.random.default_rng(1000 + seed).standard_normal(x.shape)
    return SignalMatrix(x, truth.sample_rate_hz), truth


def contact_drift(seed: int, n: int, *, loading=(0.5, -1.0, 0.7, 0.2), window: int = 5001):
    """default_scenario without noise, plus a third source on channel j times
    loading[j]: a random walk minus its window-sample moving average (numpy's
    "same" convolution), at zero mean and unit variance. Then channel noise of
    SD 0.05; the walk and the noise are drawn, in that order, from 1000 + seed."""
    mixture, truth = default_scenario(n=n, seed=seed, noise_sigma=0.0)
    rng = np.random.default_rng(1000 + seed)
    walk = rng.standard_normal(n).cumsum()
    drift = walk - np.convolve(walk, np.ones(window) / window, mode="same")
    drift = (drift - drift.mean()) / drift.std()
    noise = 0.05 * rng.standard_normal(mixture.samples.shape)
    return _replaced(mixture, mixture.samples + np.outer(drift, loading) + noise), truth
