import numpy as np
import pytest
from hypothesis import settings

from warpframe import canonical_example

# `pytest --hypothesis-profile soak`: many more examples of the property
# tests that leave their budget to the profile, drawn from a fixed seed so
# that a run is repeatable. CI runs the expm group test and the gathered
# Gram test of the oracle under it.
settings.register_profile("soak", max_examples=5000, derandomize=True)


@pytest.fixture(scope="session")
def slice17():
    return canonical_example("slice", {"n": 2})


@pytest.fixture(scope="session")
def helix65():
    return canonical_example("helix", {})


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240811)


def _held_forms(data):
    """The cache entries of a dataset shaped like an assembled form: Omega,
    X, Upsilon (*ext, M, M, n) or W (*ext, M, n)."""
    ext, n, M = data.grid.extents, data.spec.n, data.spec.size
    return {key for key, v in data._cache.items()
            if isinstance(v, np.ndarray)
            and v.shape in (ext + (M, M, n), ext + (M, n))}


@pytest.fixture(scope="session")
def held_forms():
    return _held_forms
