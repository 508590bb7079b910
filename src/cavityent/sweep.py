"""Sweeps of the normalized negativity over the acceleration duration u.

A sweep walks a u grid for a set of curves (species, in-state, observed mode
pair), evaluates the closed-form negativity series at each point and reports
the coefficient at the curve's leading power.  That is the quantity the
figure-style panels plot: the h -> 0 limit of N/h for linear curves and of
N/h^2 for the parity-suppressed ones, so a sweep takes no value of h at
all.  A request is validated up front: its u bounds must be finite and
increasing, with phase arguments whose rounding stays under the first-order
floor (``negativity.FIRST_ORDER_FLOOR``), which bounds |u| by about 8.9e3
at n_max 40 and 3.0e3 at 118; its n_max at least ``blocks.MIN_N_MAX``,
below which the trips of the u period fail the identity gate, and at most
``blocks.MAX_N_MAX``, above which its junction fails the drift check; and
every curve's mode labels must exist at that cutoff.

No trip is assembled: each species' junction passes one identity gate that
covers every trip of the u period (:func:`blocks.junction`), and the
closed series read junction rows for the whole grid at once (see
:mod:`cavityent.negativity`).  :meth:`CurveSpec.series` is the one entry to
them, and :func:`curve_series` stacks it over curves.  Each curve is
evaluated only to the order it reports.  Its h^1 comes first, on a
:class:`negativity.FirstOrderGrid`, from the junction entries and phases at
its two labels alone; a curve whose h^1 clears ``POWER_FLOOR`` anywhere on
the grid has power 1, and its rows are that h^1.  Only the other curves run
the whole series, which reads each species' phase table: one per species,
formed at doubled n_max, of which the n_max table is a column slice.
Convergence in the mode cutoff is checked by evaluating the whole grid a
second time at doubled n_max, to the same order, on the closed-form junction
tables read at each curve's labels (:class:`blocks.TableCutoff`).  That
forms no dense table and runs no gate at doubled n_max; the tier-1 test
``tests/test_blocks.py::test_table_junction_passes_the_period_gate`` gates
the tables at every cutoff a sweep reaches.  A curve's convergence delta is
the largest move over the grid divided by the curve's largest |value| on
it; a curve whose delta reaches ``CONVERGENCE_GATE`` is flagged in every one
of its rows.  Measuring against the curve's scale rather than the local
value keeps the curve's zeros, where both cutoffs hold only truncation
noise, from firing the gate.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
import warnings

import numpy as np

from . import blocks, negativity
from ._version import __version__

CONVERGENCE_GATE = 1e-4
POWER_FLOOR = 1e-10

CSV_COLUMNS = (
    "u",
    "negativity_normalized",
    "power",
    "state",
    "species",
    "mode_a",
    "mode_b",
    "converged",
)

STATES = ("vacuum", "one-particle", "pair")


class ConfigError(ValueError):
    """A sweep request that cannot be run as written."""


@dataclasses.dataclass(frozen=True)
class CurveSpec:
    """One curve of a sweep: species, in-state and observed mode pair."""

    name: str
    species: str
    state: str
    modes: tuple[int, int]
    excite: int | None = None

    # warnings use stacklevel 3 to name the caller of CurveSpec, past the
    # __init__ that dataclasses generates
    def __post_init__(self):
        object.__setattr__(self, "modes", tuple(int(m) for m in self.modes))
        if self.species not in ("boson", "fermion"):
            raise ConfigError(f"curve {self.name}: unknown species {self.species!r}")
        if self.state not in STATES:
            raise ConfigError(f"curve {self.name}: unknown state {self.state!r}")
        a, b = self.modes
        if a == b:
            raise ConfigError(f"curve {self.name}: observed modes must differ")
        if self.species == "boson" and min(a, b) < 1:
            raise ConfigError(f"curve {self.name}: boson mode labels start at 1")
        if self.state == "pair":
            if self.species != "fermion":
                raise ConfigError(f"curve {self.name}: pair in-states are fermionic")
            if (a >= 0) == (b >= 0):
                raise ConfigError(
                    f"curve {self.name}: a pair state needs one particle label (>= 0) "
                    f"and one antiparticle label (< 0), got {self.modes}"
                )
        if self.state == "one-particle":
            if self.excite is None:
                raise ConfigError(f"curve {self.name}: one-particle state needs excite")
            if int(self.excite) not in self.modes:
                raise ConfigError(
                    f"curve {self.name}: excited mode {self.excite} must be one of "
                    f"the observed pair {self.modes}"
                )
        elif self.excite is not None:
            raise ConfigError(f"curve {self.name}: excite only applies to one-particle")
        reason = self._vanishes()
        if reason:
            warnings.warn(f"curve {self.name}: {reason}", stacklevel=3)

    def _vanishes(self) -> str | None:
        """The warning for a curve that charge or parity selection makes
        identically zero at this order, or None; :meth:`series` returns such a
        curve's zeros and evaluates no closed form for it."""
        a, b = self.modes
        if self.species == "fermion" and self.state == "vacuum" and (a >= 0) == (b >= 0):
            return ("vacuum pair creation only links opposite charges, so this "
                    "same-charge curve will be identically zero")
        if self.species == "fermion" and self.state == "one-particle" and (a >= 0) != (b >= 0):
            return ("the partner mode carries the opposite charge, so exchange with the "
                    "excitation is Pauli blocked and the curve will be identically zero")
        if self.state == "pair" and (a - b) % 2 == 0:
            return ("labels that differ by an even number make the pair's first-order coherence "
                    "a parity zero and leave only the truncation floor at second order, so the "
                    "curve will be identically zero")
        return None

    def series(self, grid) -> np.ndarray:
        """Closed-form negativity series, the orders on the last axis.

        ``grid`` is the :class:`cavityent.negativity.TripGrid` of this curve's
        species on a scalar or an array u: the result has shape u.shape + (3,),
        orders h^0 to h^2, or u.shape + (2,), orders h^0 and h^1, on a
        :class:`cavityent.negativity.FirstOrderGrid`, which never forms the
        phase table.
        """
        if self._vanishes():
            return np.zeros(np.shape(grid.u) + (2 if grid.first_only else 3,))
        if self.species == "boson":
            if self.state == "vacuum":
                return negativity.boson_vacuum_closed(grid, self.modes)
            return negativity.boson_particle_closed(grid, int(self.excite), self.modes)
        if self.state == "vacuum":
            return negativity.fermion_vacuum_closed(grid, self.modes)
        if self.state == "one-particle":
            return negativity.fermion_particle_closed(grid, int(self.excite), self.modes)
        return negativity.fermion_pair_closed(grid, max(self.modes), min(self.modes))


def check_n_max(n_max: int) -> None:
    """Raise :class:`ConfigError` for a cutoff outside
    ``blocks.MIN_N_MAX``..``blocks.MAX_N_MAX``."""
    if n_max < blocks.MIN_N_MAX:
        raise ConfigError(
            f"n_max {n_max} is below {blocks.MIN_N_MAX}, the smallest cutoff "
            "whose trips pass the identity gate over a whole u period"
        )
    if n_max > blocks.MAX_N_MAX:
        raise ConfigError(
            f"n_max {n_max} is above {blocks.MAX_N_MAX}, the largest cutoff "
            "whose junction passes the zeroth-order drift check"
        )


@dataclasses.dataclass(frozen=True)
class SweepRequest:
    """A validated sweep: curves plus grid and cutoff choices."""

    curves: tuple[CurveSpec, ...]
    u_start: float = 0.0
    u_stop: float = 1.0
    steps: int = 101
    n_max: int = 40
    config_text: str = dataclasses.field(default="", repr=False)

    def __post_init__(self):
        if not self.curves:
            raise ConfigError("a sweep needs at least one curve section")
        if len({c.name for c in self.curves}) != len(self.curves):
            raise ConfigError("curve names must be unique")
        if self.steps < 2:
            raise ConfigError("a u grid needs at least 2 steps")
        for key in ("u_start", "u_stop"):
            if not math.isfinite(getattr(self, key)):
                raise ConfigError(f"{key} must be finite, got {getattr(self, key)}")
        if not self.u_stop > self.u_start:
            raise ConfigError(
                f"u_stop {self.u_stop} must exceed u_start {self.u_start}: rows run "
                "over ascending u"
            )
        check_n_max(self.n_max)
        # the largest phase argument, 2 pi omega u at the 2 n_max refinement,
        # is rounded by eps times itself; past the first-order floor that
        # rounding would pass for a coherence (the grid's span, at most
        # 2 max|u|, is finite below this bound)
        limit = negativity.FIRST_ORDER_FLOOR / (sys.float_info.epsilon * 4 * math.pi * self.n_max)
        if max(abs(self.u_start), abs(self.u_stop)) > limit:
            raise ConfigError(
                f"u bounds {self.u_start}, {self.u_stop} overflow the phase argument "
                f"2 pi omega u at the refinement cutoff {2 * self.n_max}: past |u| = "
                f"{limit:.6g} its rounding exceeds the first-order floor "
                f"{negativity.FIRST_ORDER_FLOOR:g}"
            )
        for curve in self.curves:
            lo, hi = blocks.species_modes(curve.species, self.n_max)[[0, -1]]
            for m in curve.modes:
                if not lo <= m <= hi:
                    raise ConfigError(
                        f"curve {curve.name}: mode label {m} lies outside the "
                        f"{curve.species} labels {lo}..{hi} at n_max {self.n_max}"
                    )

    @property
    def config_sha256(self) -> str:
        """Digest of the config text, "" without one; only JSON output reads it."""
        return config_digest(self.config_text) if self.config_text else ""

    def grid(self) -> np.ndarray:
        return np.linspace(self.u_start, self.u_stop, self.steps)


@dataclasses.dataclass
class SweepResult:
    """A sweep's rows as arrays: ``values[i, j]`` is curve j's coefficient at
    its power at grid point i, and each curve's power, convergence delta and
    flag are keyed by its name."""

    request: SweepRequest
    values: np.ndarray
    powers: dict[str, int]
    deltas: dict[str, float]
    converged: dict[str, bool]

    @property
    def all_converged(self) -> bool:
        return all(self.converged.values())


def curve_series(curves, grids: dict) -> np.ndarray:
    """The :meth:`CurveSpec.series` of every curve, stacked on axis -2: shape
    u.shape + (len(curves), 3), or u.shape + (len(curves), 2) on first-order
    grids.  ``grids`` maps each species to its grid, on a junction that has
    passed the whole-period trip gate (the tables at a
    :class:`blocks.TableCutoff` pass it in the tier-1 test
    ``tests/test_blocks.py::test_table_junction_passes_the_period_gate``); a
    species' curves share its table."""
    return np.stack([curve.series(grids[curve.species]) for curve in curves], axis=-2)


def run_sweep(request: SweepRequest) -> SweepResult:
    grid = request.grid()
    curves = request.curves
    species_set = sorted({c.species for c in curves})
    junctions = {s: blocks.junction(s, request.n_max) for s in species_set}
    tables = {s: blocks.TableCutoff(s, 2 * request.n_max) for s in species_set}

    # a curve's power is its first order above the floor anywhere on the
    # grid; h^1 reads only junction entries and phases at the curve's labels,
    # and a power-1 curve's rows and refinement are h^1 alone
    first = {s: negativity.FirstOrderGrid(j, grid) for s, j in junctions.items()}
    values = curve_series(curves, first)[..., 1]
    linear = np.max(np.abs(values), axis=0) > POWER_FLOOR
    powers, refined = np.where(linear, 1, 2), np.empty_like(values)
    ones = [c for c, one in zip(curves, linear.tolist()) if one]
    rest = [c for c, one in zip(curves, linear.tolist()) if not one]
    if ones:
        fine_first = {s: negativity.FirstOrderGrid(t, grid) for s, t in tables.items()}
        refined[:, linear] = curve_series(ones, fine_first)[..., 1]
    # the others run the whole series on both cutoffs, to h^2 or, where that
    # is under the floor too, to power 0: one phase table per species, at
    # 2 n_max, of which the n_max table is a column slice
    if rest:
        fine = {s: negativity.TripGrid(t, grid) for s, t in tables.items()}
        coarse = {s: fine[s].coarse(junctions[s]) for s in sorted({c.species for c in rest})}
        series = curve_series(rest, coarse)
        power = np.where(np.max(np.abs(series[..., 2]), axis=0) > POWER_FLOOR, 2, 0)
        powers[~linear] = power
        cols = np.arange(len(rest))
        values[:, ~linear] = series[:, cols, power]
        refined[:, ~linear] = curve_series(rest, fine)[:, cols, power]

    scales = np.max(np.abs(values), axis=0).tolist()
    moves = np.max(np.abs(refined - values), axis=0).tolist()
    deltas = {
        c.name: move / scale if scale > 0.0 else 0.0
        for c, move, scale in zip(curves, moves, scales)
    }
    converged = {name: delta < CONVERGENCE_GATE for name, delta in deltas.items()}
    powers = {c.name: p for c, p in zip(curves, powers.tolist())}
    return SweepResult(request, values, powers, deltas, converged)


# ---------------------------------------------------------------------------
# serialization


def _metadata(result: SweepResult) -> dict:
    req = result.request
    return {
        "version": __version__,
        "config_sha256": req.config_sha256,
        "n_max": req.n_max,
        "u_start": req.u_start,
        "u_stop": req.u_stop,
        "steps": req.steps,
        "convergence_gate": CONVERGENCE_GATE,
        "curves": {
            c.name: {
                "species": c.species,
                "state": c.state,
                "modes": list(c.modes),
                "excite": c.excite,
                "power": result.powers[c.name],
                "convergence_delta": result.deltas[c.name],
                "converged": result.converged[c.name],
            }
            for c in req.curves
        },
    }


# emit formats the fields fixed for a curve once, then writes each row as
# its u and value with them; _JSON_ROW is formatted first with those fields,
# leaving {u} and {value} open, so its own braces are doubled twice.  The
# bytes are those of ",".join over the CSV_COLUMNS fields (floats as
# "{:.17g}", booleans as true/false) and of json.dumps(..., indent=2,
# sort_keys=True) of the row dicts; with indent set, json's pure-Python
# encoder made the rows most of a sweep's emit time.
_JSON_ROW = "    {{{{\n" + ",\n".join(f'      "{c}": {{{c}}}' for c in sorted(CSV_COLUMNS)) + "\n    }}}}"
_JSON_STRING = json.encoder.encode_basestring_ascii


def _json_float(x: float) -> str:
    # json spells the non-finite floats NaN, Infinity and -Infinity
    return float.__repr__(x) if math.isfinite(x) else json.dumps(x)


def _bool(flag: bool) -> str:
    return "true" if flag else "false"


def _csv(result: SweepResult) -> str:
    tails = [
        f",{result.powers[c.name]},{c.state},{c.species},{c.modes[0]},{c.modes[1]},"
        f"{_bool(result.converged[c.name])}\n"
        for c in result.request.curves
    ]
    grid, values = result.request.grid().tolist(), result.values.tolist()
    return ",".join(CSV_COLUMNS) + "\n" + "".join(
        f"{u:.17g},{value:.17g}{tail}"
        for u, line in zip(grid, values) for value, tail in zip(line, tails)
    )


def _json(result: SweepResult) -> str:
    metadata = json.dumps(_metadata(result), indent=2, sort_keys=True).replace("\n", "\n  ")
    templates = [
        _JSON_ROW.format(
            u="{u}", negativity_normalized="{value}", power=result.powers[c.name],
            state=_JSON_STRING(c.state), species=_JSON_STRING(c.species), mode_a=c.modes[0],
            mode_b=c.modes[1], converged=_bool(result.converged[c.name]),
        )
        for c in result.request.curves
    ]
    grid, values = result.request.grid().tolist(), result.values.tolist()
    rows = ",\n".join(
        template.format(u=_json_float(u), value=_json_float(value))
        for u, line in zip(grid, values) for value, template in zip(line, templates)
    )
    return '{\n  "metadata": ' + metadata + ',\n  "rows": [\n' + rows + "\n  ]\n}\n"


def emit(result: SweepResult, fmt: str = "csv", path: str | None = None) -> str:
    """Serialize a sweep result and optionally write it to ``path``.

    Rows are ordered by ascending u and then by curve position, and floats
    are printed with enough digits to round-trip exactly; two runs of the
    same package version on the same config produce identical bytes.
    """
    if fmt == "csv":
        text = _csv(result)
    elif fmt == "json":
        text = _json(result)
    else:
        raise ConfigError(f"unknown output format {fmt!r}")

    if path is not None and path != "-":
        with open(path, "w") as fh:
            fh.write(text)
    elif path == "-":
        # an unbuffered text stdout drops the rest of a short write; the byte
        # stream reports how much it took, so a closed pipe raises on the next write
        data = memoryview(text.encode(sys.stdout.encoding))
        sys.stdout.flush()
        while data:
            data = data[sys.stdout.buffer.write(data):]
    return text


def config_digest(text: str) -> str:
    """SHA-256 hex digest of the config text's UTF-8 bytes.

    CPython's built-in SHA-256 (``_sha2`` from Python 3.12, ``_sha256``
    before) gives hashlib's digest without loading OpenSSL's libcrypto, about
    3.4 MiB of resident memory; hashlib serves builds that lack both.
    """
    try:
        from _sha2 import sha256
    except ImportError:
        try:
            from _sha256 import sha256
        except ImportError:
            from hashlib import sha256
    return sha256(text.encode()).hexdigest()
