"""Command line front end.

Two subcommands:

* ``sweep``: run a configured u sweep and write CSV or JSON rows.
* ``check``: run the structural invariant suites and print each line as its
  value of its tolerance, ``ok`` when below and ``FAIL`` otherwise.  Its
  junction tables line holds the closed-form junction coefficients against
  the quadrature extraction, which is independent of any printed series
  coefficients.

Exit codes: 0 success, 2 configuration error (including an n_max outside
``blocks.MIN_N_MAX``..``blocks.MAX_N_MAX``, for either subcommand;
non-finite or non-increasing u bounds, or u bounds whose span overflows; a
curve label outside the cutoff's modes; and a sweep ``--out`` that cannot be
written, rejected before any junction is built), 3 convergence gate
failure, 4 invariant violation (including a numerical routine that cannot
reach its accuracy target), 141 stdout closed by its reader (a pager or
``head`` that exits early; 128 + SIGPIPE, the status a shell reports for a
writer that SIGPIPE ends), for either subcommand and without a traceback.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import sys

import numpy as np

from . import blocks, negativity, oracles, states, sweep
from ._version import __version__
from .bogoliubov import H_REF, FermionBogoliubov, InvariantViolation, window_slice
from .config import PRESETS, load_config
from .sweep import ConfigError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CONVERGENCE = 3
EXIT_INVARIANT = 4
EXIT_CLOSED_STDOUT = 141
EPS = np.finfo(float).eps


# built once per process: a rebuild costs more than parsing a command line
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cavityent",
        description="Perturbative entanglement of modes in an accelerated cavity.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    # no abbreviated flags: an unknown flag such as --h must fail, not mean --help
    p_sweep = sub.add_parser("sweep", allow_abbrev=False, help="run a u sweep from a config or preset")
    p_sweep.add_argument(
        "config", help=f"config path or preset name ({', '.join(PRESETS)})"
    )
    p_sweep.add_argument("--out", default="-", help="output path (default: stdout)")
    p_sweep.add_argument(
        "--format", choices=("csv", "json"), default=None,
        help="output format (default: csv, or json when --out ends in .json)",
    )
    p_sweep.add_argument("--nmax", type=int, default=None, help="override n_max")
    p_sweep.add_argument("--steps", type=int, default=None, help="override grid steps")

    p_check = sub.add_parser("check", allow_abbrev=False, help="run the structural invariant suites")
    p_check.add_argument("--nmax", type=int, default=sweep.SweepRequest.n_max)
    return parser


def _check_out(path: str) -> None:
    """Raise :class:`ConfigError` unless ``path`` ("-": stdout) can be written,
    creating and truncating nothing, so that a bad path fails before the sweep."""
    if path == "-":
        return
    if not path or os.path.isdir(path):
        raise ConfigError(f"--out {path!r} is not a file path")
    parent = os.path.dirname(path) or os.curdir
    if not os.path.isdir(parent):
        raise ConfigError(f"--out {path!r}: directory {parent!r} does not exist")
    if not os.access(path if os.path.exists(path) else parent, os.W_OK):
        raise ConfigError(f"--out {path!r} is not writable")


def _cmd_sweep(args) -> int:
    _check_out(args.out)
    request = load_config(args.config)
    overrides = {}
    if args.nmax is not None:
        overrides["n_max"] = args.nmax
    if args.steps is not None:
        overrides["steps"] = args.steps
    if overrides:
        request = dataclasses.replace(request, **overrides)

    fmt = args.format
    if fmt is None:
        fmt = "json" if args.out.endswith(".json") else "csv"

    result = sweep.run_sweep(request)
    sweep.emit(result, fmt=fmt, path=args.out)
    if not result.all_converged:
        for name, ok in result.converged.items():
            if not ok:
                print(
                    f"convergence gate failed for curve {name} "
                    f"(delta {result.deltas[name]:.3e})",
                    file=sys.stderr,
                )
        return EXIT_CONVERGENCE
    return EXIT_OK


def _check_lines(n_max: int):
    """Yield (label, value, tolerance) for each invariant of the suite; a line
    passes when its value is below its tolerance."""
    # The finite-h overlap residual is the truncated mode tail on the gate's
    # interior window: it grows as h^2 and falls as n_max^-3, so only
    # h = H_REF, the largest acceleration of interest, can decide.  Measured
    # at h = 0.08, 0.04, 0.02, 0.01 (boson / fermion):
    #   n_max  31: 1.37e-8 3.27e-9 8.08e-10 2.01e-10 / 1.75e-8 4.14e-9 1.02e-9 2.54e-10
    #   n_max  40: 7.78e-9 1.85e-9 4.57e-10 1.14e-10 / 9.69e-9 2.28e-9 5.63e-10 1.40e-10
    #   n_max  80: 9.83e-10 2.33e-10 5.76e-11 1.43e-11 / 1.19e-9 2.83e-10 6.98e-11 1.74e-11
    #   n_max 118: 2.86e-10 6.76e-11 1.67e-11 4.15e-12 / 3.96e-10 9.43e-11 2.33e-11 5.80e-12
    # so the residual at H_REF is 0.32 to 0.51 of 2e-8 (40 / n_max)^3 at every
    # cutoff.  The tables lines check the quadrature at smaller h.
    tol = 2e-8 * (40 / n_max) ** 3
    window = window_slice(blocks.boson_modes(n_max), blocks.interior_window("boson", n_max))
    residual = oracles.overlap_identity_residuals(*oracles.boson_overlaps(H_REF, n_max), window)
    yield "boson finite-h overlap identities", residual, tol
    window = window_slice(blocks.fermion_modes(n_max), blocks.interior_window("fermion", n_max))
    residual = oracles.fermion_identity_residual(oracles.fermion_overlaps(H_REF, n_max), window)
    yield "fermion finite-h overlap identities", residual, tol

    junctions = {s: blocks.junction(s, n_max) for s in ("boson", "fermion")}
    tables = {s: blocks.table_junction(s, n_max) for s in junctions}
    for species, quadrature in junctions.items():
        yield _tables_line(species, tables[species], quadrature, n_max)
    presets = {name: load_config(name) for name in PRESETS}
    yield _first_order_line(presets["fig1a"], tables)

    # one trip per species, shared by the interference line and the cross-check
    u = 0.3
    trips = {species: blocks.one_way_trip(species, n_max, u) for species in junctions}
    bj, trip, m = junctions["boson"], trips["boson"], blocks.boson_modes(n_max)
    i, j = 0, 3
    beta_pred = 2 * abs(bj.beta[1, i, j]) * abs(np.sin(np.pi * (m[i] + m[j]) * u))
    alpha_pred = 2 * abs(bj.alpha[1, i, j]) * abs(np.sin(np.pi * (m[j] - m[i]) * u))
    db = abs(abs(trip.beta[1, i, j]) - beta_pred)
    da = abs(abs(trip.alpha[1, i, j]) - alpha_pred)
    yield "assembled first-order interference", max(da, db), 1e-10

    # a period later every preset curve repeats to rounding, in ulps of its
    # largest |order| on the preset grid (6.6 to 8.1 at n_max 31 to 118)
    ulps = {}
    for request in presets.values():
        grid = np.concatenate([request.grid(), [0.37, 1.37]])
        at_grid = {s: negativity.TripGrid(j, grid) for s, j in junctions.items()}
        series = sweep.curve_series(request.curves, at_grid)
        for curve, s in zip(request.curves, np.moveaxis(series, 1, 0)):
            ulps[curve.name] = np.max(np.abs(s[-2] - s[-1])) / (EPS * np.max(np.abs(s[:-2])))
    worst = max(ulps, key=ulps.get)
    yield f"period-1 recurrence of preset curves, worst {worst}, in ulps", ulps[worst], 256

    # both routes are exact in each order, so they agree to rounding: within
    # 256 ulps of each order's |rho_k|_F (the worst of the five curves is
    # 0.61, 0.85, 1.31 and 0.97 ulps at n_max 31, 40, 80 and 118)
    at_u = {s: negativity.TripGrid(j, u) for s, j in junctions.items()}
    ulps = {}
    for curve, build in _crosscheck_states():
        rho = states.reduce_to_pair(build(trips[curve.species]))
        gap = np.abs(negativity.leading_order(rho) - curve.series(at_u[curve.species]))
        norm = EPS * np.linalg.norm(rho, axis=(1, 2))
        ulps[curve.name] = float(np.max(gap / norm))
    worst = max(ulps, key=ulps.get)
    yield f"closed vs numeric series, all five families, worst {worst}, in ulps", ulps[worst], 256


def _table_tolerances(n_max: int) -> dict[str, float]:
    """Tolerance of each junction block's gap between the closed-form tables
    and the quadrature extraction, relative to the block's largest entry.

    The gap is the extraction's error.  Measured at n_max 31 / 40 / 80 / 118:
    alpha1 and a1 2.9e-13 / 3.0e-13 / 7.6e-12 / 1.8e-10, the odd part's h^8
    tail, 7.6e-12 (n_max/80)^8 above a rounding floor of 6e-13; alpha2 and a2
    1.0e-10 / 5.0e-10 / 3.5e-8 / 3.6e-7, the even part's tail,
    5e-10 (n_max/40)^6; beta1 3.6e-11 / 1.4e-10 / 2.9e-10 / 2.6e-10 and beta2
    2.3e-8 / 1.5e-8 / 3.9e-8 / 6.7e-8, quadrature rounding amplified by
    1/h_top and 1/h_top^2 of the ladder top, which the cutoff does not move.
    Each tolerance is ten times its law.
    """
    first = 1e-11 + 1e-10 * (n_max / 80) ** 8
    second = 5e-9 * (n_max / 40) ** 6
    return {"alpha1": first, "beta1": 3e-9, "alpha2": second, "beta2": 7e-7,
            "a1": first, "a2": second}


def _junction_orders(j) -> dict[str, np.ndarray]:
    """The h^1 and h^2 blocks of a junction, keyed as :func:`_table_tolerances`."""
    if isinstance(j, FermionBogoliubov):
        return {"a1": j.a[1], "a2": j.a[2]}
    return {"alpha1": j.alpha[1], "beta1": j.beta[1], "alpha2": j.alpha[2], "beta2": j.beta[2]}


def _tables_line(species: str, tables, quadrature, n_max: int):
    """The junction tables against the quadrature extraction."""
    extracted = _junction_orders(quadrature)
    tol = _table_tolerances(n_max)
    gaps = {
        name: float(np.max(np.abs(t - extracted[name])) / np.max(np.abs(t)))
        for name, t in _junction_orders(tables).items()
    }
    worst = max(gaps, key=lambda name: gaps[name] / tol[name])
    label = f"{species} junction tables vs quadrature extraction, worst {worst}"
    return label, gaps[worst], tol[worst]


def _first_order_line(request, tables: dict):
    """fig1a's h^1 coefficients (``request``) on the junction tables against
    the paper's one-line forms (arXiv 1201.0549) on its grid, in ulps of each
    form's max; a form under the first-order floor is a parity zero.  The
    tables carry no truncation here: 3.5 to 7.8 ulps at n_max 31 to 118."""
    u, ulps = request.grid(), {}
    grids = {s: negativity.FirstOrderGrid(j, u) for s, j in tables.items()}
    first = sweep.curve_series(request.curves, grids)[..., 1]
    for curve, got in zip(request.curves, first.T):
        j = tables[curve.species]
        k, kp = curve.modes if curve.excite in (None, curve.modes[0]) else curve.modes[::-1]
        at = (list(j.modes).index(k), list(j.modes).index(kp))
        minus, plus = np.sin(np.pi * (k - kp) * u), np.sin(np.pi * (k + kp) * u)
        if curve.species == "fermion":  # 2 |a1| |sin pi (k - k') u|
            form = 2 * abs(j.a[1][at]) * np.abs(minus)
        elif curve.state == "vacuum":  # 2 |beta1| |sin pi (k + k') u|
            form = 2 * abs(j.beta[1][at]) * np.abs(plus)
        else:  # excited at k
            form = 2 * np.sqrt(j.alpha[1][at] ** 2 * minus**2 + 2 * j.beta[1][at] ** 2 * plus**2)
        form = np.where(form > negativity.FIRST_ORDER_FLOOR, form, 0.0)
        gap = np.abs(got - form)
        ulps[curve.name] = np.max(gap) / (EPS * np.max(form))
    worst = max(ulps, key=ulps.get)
    return f"paper's first-order forms of fig1a, worst {worst}, in ulps", ulps[worst], 256


def _crosscheck_states():
    return [
        (sweep.CurveSpec("boson-vacuum-14", "boson", "vacuum", (1, 4)),
         lambda t: states.boson_vacuum_state(t, (1, 4))),
        (sweep.CurveSpec("boson-one-particle-14", "boson", "one-particle", (1, 4), 1),
         lambda t: states.boson_particle_state(t, 1, (1, 4))),
        (sweep.CurveSpec("fermion-vacuum-2m1", "fermion", "vacuum", (2, -1)),
         lambda t: states.fermion_vacuum_state(t, (2, -1))),
        (sweep.CurveSpec("fermion-one-particle-14", "fermion", "one-particle", (1, 4), 1),
         lambda t: states.fermion_particle_state(t, 1, (1, 4))),
        (sweep.CurveSpec("fermion-pair-2m1", "fermion", "pair", (2, -1)),
         lambda t: states.fermion_pair_state(t, 2, -1, (2, -1))),
    ]


def _cmd_check(args) -> int:
    sweep.check_n_max(args.nmax)
    failed = False
    for label, value, tol in _check_lines(args.nmax):
        ok = value < tol
        print(f"{'ok  ' if ok else 'FAIL'} {label} ({value:.3g} of {tol:.3g})", flush=True)
        failed = failed or not ok
    return EXIT_INVARIANT if failed else EXIT_OK


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        code = _cmd_sweep(args) if args.command == "sweep" else _cmd_check(args)
        sys.stdout.flush()  # a closed stdout must fail here, not at interpreter exit
        return code
    except BrokenPipeError:
        # nothing more can reach the reader; stdout goes to devnull so that the
        # flush at interpreter exit does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CLOSED_STDOUT
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except oracles.ConvergenceError as exc:
        print(f"numerical accuracy not reached: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
