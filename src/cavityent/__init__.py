"""Perturbative entanglement of field modes in a uniformly accelerated cavity."""

from ._version import __version__
