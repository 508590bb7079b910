"""Shared fixtures.

The junction builds are the expensive part of the suite, so the standard
transformations are computed once per session and handed out read-only.
Tests that need a different truncation build their own at a small n_max.
"""

import numpy as np
import pytest

from cavityent import blocks

RNG_SEED = 20260814


@pytest.fixture(scope="session")
def boson_junction():
    return blocks.junction("boson", 40)


@pytest.fixture(scope="session")
def fermion_junction():
    return blocks.junction("fermion", 40)


@pytest.fixture(scope="session")
def boson_trip():
    return blocks.one_way_trip("boson", 40, 0.3)


@pytest.fixture(scope="session")
def fermion_trip():
    return blocks.one_way_trip("fermion", 40, 0.3)


@pytest.fixture()
def rng():
    return np.random.default_rng(RNG_SEED)
