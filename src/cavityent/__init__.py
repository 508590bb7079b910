"""Perturbative entanglement of field modes in a uniformly accelerated cavity."""

from ._version import __version__
from .bogoliubov import (
    BosonBogoliubov,
    FermionBogoliubov,
    InvariantViolation,
    check_identities,
    compose,
    invert,
    mirror,
)
from .blocks import DEFAULT_LADDER, build_junction, junction, one_way_trip
from .config import load_config, parse_config, preset_text
from .geometry import CavityGeometry, phase_parameter
from .negativity import (
    LeadingOrder,
    boson_particle_closed,
    boson_vacuum_closed,
    fermion_pair_closed,
    fermion_particle_closed,
    fermion_vacuum_closed,
    leading_from_series,
    leading_order,
    negativity_at,
    partial_transpose,
)
from .sweep import ConfigError, CurveSpec, SweepRequest, SweepResult, emit, run_sweep

__all__ = [
    "__version__",
    "BosonBogoliubov",
    "FermionBogoliubov",
    "InvariantViolation",
    "check_identities",
    "compose",
    "invert",
    "mirror",
    "DEFAULT_LADDER",
    "build_junction",
    "junction",
    "one_way_trip",
    "load_config",
    "parse_config",
    "preset_text",
    "CavityGeometry",
    "phase_parameter",
    "LeadingOrder",
    "boson_particle_closed",
    "boson_vacuum_closed",
    "fermion_pair_closed",
    "fermion_particle_closed",
    "fermion_vacuum_closed",
    "leading_from_series",
    "leading_order",
    "negativity_at",
    "partial_transpose",
    "ConfigError",
    "CurveSpec",
    "SweepRequest",
    "SweepResult",
    "emit",
    "run_sweep",
]
