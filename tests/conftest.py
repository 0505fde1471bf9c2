import warnings

import numpy as np
import pytest
from hypothesis import settings

# Same examples on every run, and no per-example time limit on a loaded host.
settings.register_profile("repeatable", derandomize=True, deadline=None)
settings.load_profile("repeatable")

# A failing @given test's report imports hypothesis.extra._patching and with it
# libcst, whose import warns "mypy_extensions.TypedDict is deprecated". A -W
# error on the command line outranks pyproject's ignore of that one warning,
# and the warning would stop pytest before the falsifying example prints; so
# the module is loaded here, with only that warning ignored.
with warnings.catch_warnings():
    warnings.filterwarnings("ignore", "mypy_extensions.TypedDict is deprecated", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # without libcst the report leaves the patch out
        pass


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
