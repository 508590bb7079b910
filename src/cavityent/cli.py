"""Command line front end.

Two subcommands:

* ``sweep``: run a configured u sweep and write CSV or JSON rows.
* ``check``: run the structural invariant suites and report each one.

Exit codes: 0 success, 2 configuration error (including an n_max below
``blocks.MIN_N_MAX``, for either subcommand, and a curve label outside the
cutoff's modes), 3 convergence gate failure, 4 invariant violation
(including a numerical routine that cannot reach its accuracy target, such
as a junction whose zeroth order drifts at a large n_max).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

import numpy as np

from . import blocks, negativity, oracles, states, sweep
from ._version import __version__
from .bogoliubov import InvariantViolation
from .config import PRESETS, load_config, parse_config, preset_text
from .sweep import ConfigError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CONVERGENCE = 3
EXIT_INVARIANT = 4


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
    p_check.add_argument("--nmax", type=int, default=40)
    return parser


def _cmd_sweep(args) -> int:
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
    """Yield (ok, label, detail) triples for the invariant suite."""
    ladder = oracles.geometric_ladder(top=0.08, count=4)
    # the overlap residual is the truncated mode tail at the interior window,
    # which falls as about n_max^-3 (8.9e-9 at 40, 2.7e-9 at 60, 1.15e-9 at
    # 80): the tolerance is 1e-8 from n_max 40 up and follows that law below
    tol = 1e-8 * max(1.0, (40 / n_max) ** 3)
    interior = blocks.interior_window("boson", n_max)[1]
    alphas, betas = oracles.boson_overlaps(ladder, n_max)
    worst = max(
        oracles.overlap_identity_residuals(a, b, interior) for a, b in zip(alphas, betas)
    )
    yield worst < tol, "boson finite-h overlap identities", f"max {worst:.2e}"
    interior = blocks.interior_window("fermion", n_max)[1]
    worst = max(
        oracles.fermion_identity_residual(a, interior)
        for a in oracles.fermion_overlaps(ladder, n_max)
    )
    yield worst < tol, "fermion finite-h overlap identities", f"max {worst:.2e}"

    bj = blocks.junction("boson", n_max)
    m = blocks.boson_modes(n_max)
    same = (m[:, None] + m[None, :]) % 2 == 0
    dust = float(np.max(np.abs(bj.beta[1][same])))
    yield dust < 1e-10, "boson beta(1) parity zeros", f"max {dust:.2e}"
    off = same & ~np.eye(n_max, dtype=bool)
    dust = float(np.max(np.abs(bj.alpha[1][off])))
    yield dust < 1e-10, "boson alpha(1) parity zeros", f"max {dust:.2e}"

    fj = blocks.junction("fermion", n_max)
    km = blocks.fermion_modes(n_max)
    same = (km[:, None] - km[None, :]) % 2 == 0
    off = same & ~np.eye(2 * n_max, dtype=bool)
    dust = float(np.max(np.abs(fj.a[1][off])))
    yield dust < 1e-10, "fermion a(1) parity zeros", f"max {dust:.2e}"

    # one trip per species, shared by the interference line and the cross-check
    u = 0.3
    trips = {species: blocks.one_way_trip(species, n_max, u) for species in ("boson", "fermion")}
    trip = trips["boson"]
    i, j = 0, 3
    beta_pred = 2 * abs(bj.beta[1, i, j]) * abs(np.sin(np.pi * (m[i] + m[j]) * u))
    alpha_pred = 2 * abs(bj.alpha[1, i, j]) * abs(np.sin(np.pi * (m[j] - m[i]) * u))
    db = abs(abs(trip.beta[1, i, j]) - beta_pred)
    da = abs(abs(trip.alpha[1, i, j]) - alpha_pred)
    yield max(da, db) < 1e-10, "assembled first-order interference", f"max {max(da, db):.2e}"

    junctions = {"boson": bj, "fermion": fj}
    grid = np.array([0.37, 1.37])
    s_a, s_b = np.stack([c.series(junctions[c.species], grid) for c in _preset_curves()], axis=1)
    worst = float(np.max(np.abs(s_a - s_b)))
    yield worst < 1e-8, "period-1 recurrence of preset curves", f"max {worst:.2e}"

    # both routes are exact in each order, so they agree to rounding: within
    # 256 ulps of each order's |rho_k|_F (the worst of the five curves is
    # 0.67, 0.97 and 0.66 ulps at n_max 32, 40 and 80)
    worst = 0.0
    all_ok = True
    for curve, build in _crosscheck_states():
        closed = curve.series(junctions[curve.species], u)
        rho = states.reduce_to_pair(build(trips[curve.species]))
        gap = np.abs(negativity.leading_order(rho) - closed)
        ulps = float(np.max(gap / (np.finfo(float).eps * np.linalg.norm(rho, axis=(1, 2)))))
        worst = max(worst, ulps)
        if ulps > 256:
            all_ok = False
            yield False, f"closed vs numeric series ({curve.name})", f"{ulps:.2f} of 256 ulps"
    if all_ok:
        yield True, "closed vs numeric series, all five families", f"worst {worst:.2f} of 256 ulps"


def _preset_curves():
    curves = []
    for name in PRESETS:
        curves.extend(parse_config(preset_text(name)).curves)
    return curves


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
    for ok, label, detail in _check_lines(args.nmax):
        status = "ok  " if ok else "FAIL"
        print(f"{status} {label} ({detail})")
        failed = failed or not ok
    return EXIT_INVARIANT if failed else EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "sweep":
            return _cmd_sweep(args)
        return _cmd_check(args)
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
