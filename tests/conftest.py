"""Shared fixtures.

The junction builds are the expensive part of the suite, so the standard
transformations are computed once per session and handed out read-only.
Tests that need a different truncation build their own at a small n_max
through ``composed_trip``.
"""

import functools

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


@pytest.fixture(scope="session")
def composed_trip():
    """``trip(species, n_max, u)``: the one-way trip J^-1 P(u) J, ``blocks.trip``
    on the ungated junction of ``blocks.build_junction``, where
    ``blocks.one_way_trip`` reads the gated one.

    So it also builds the trips of the truncated-Fock tests, whose n_max lies
    below ``blocks.MIN_N_MAX``, where the gate of ``blocks.junction`` may
    reject the junction.
    """

    junction = functools.cache(blocks.build_junction)

    def trip(species, n_max, u):
        return blocks.trip(junction(species, n_max), u)

    return trip


@pytest.fixture()
def rng():
    return np.random.default_rng(RNG_SEED)
