import numpy as np
import pytest
from hypothesis import settings

# Same examples on every run, and no per-example time limit on a loaded host.
settings.register_profile("repeatable", derandomize=True, deadline=None)
settings.load_profile("repeatable")


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
