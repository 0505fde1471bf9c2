"""Real-shaped variants of synth.default_scenario, for tests only.

Each builder is a pure function of (seed, n) and its own keyword arguments,
and returns (mixture, truth) as default_scenario does, with the truth
unchanged. They build degenerate inputs that real EBI recordings carry: one
channel at a far larger gain than the others (electrodes differ, and so can
the real and imaginary parts of a complex channel), a dead, constant,
duplicated or near-silent electrode, a DC baseline on every channel, and
channels whose noise levels differ.
"""

import numpy as np

from ebiunmix.dsp import SignalMatrix
from ebiunmix.synth import default_scenario

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
