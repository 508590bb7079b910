"""Geometry of a rigid cavity undergoing uniform proper acceleration.

Lengths are measured in units of the cavity's proper length, which drops out
of every mode overlap.  The single physical knob is

    h = (proper length) * (proper acceleration at the cavity centre),

restricted to 0 < h < 2 so that both walls stay inside one Rindler wedge.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# Above this the second-order treatment degrades quickly; the geometry is
# still perfectly well defined, hence a warning rather than an error.
PERTURBATIVE_LIMIT = 0.5


@dataclass(frozen=True)
class CavityGeometry:
    h: float

    def __post_init__(self):
        if not 0.0 < self.h < 2.0:
            raise ValueError(f"h must lie in (0, 2), got {self.h}")
        if self.h >= PERTURBATIVE_LIMIT:
            warnings.warn(
                f"h = {self.h} is outside the comfortably perturbative range "
                f"(0, {PERTURBATIVE_LIMIT})",
                stacklevel=2,
            )

    @cached_property
    def left_wall(self) -> float:
        """Distance of the trailing wall from the Rindler horizon."""
        return 1.0 / self.h - 0.5

    @cached_property
    def right_wall(self) -> float:
        return 1.0 / self.h + 0.5

    @cached_property
    def wall_ratio(self) -> float:
        """r = (cavity length) / (left wall position) = h / (1 - h/2)."""
        return self.h / (1.0 - 0.5 * self.h)

    @cached_property
    def log_ratio(self) -> float:
        """L = log(right/left) = 2 atanh(h/2), the cavity depth in Rindler coordinates."""
        return 2.0 * np.arctanh(0.5 * self.h)


def phase_parameter(h: float, tau: float) -> float:
    """Dimensionless duration u of an accelerated segment.

    tau is the proper time elapsed at the cavity centre.  u is normalised so
    that every accelerated-mode phase is exp(-2 pi i * mode * u) for bosons,
    making u = 1 one full revolution of the fundamental.
    """
    return h * tau / (4.0 * np.arctanh(0.5 * h))

