"""Workloads of the benchmark and the correctness gate on their outputs.

Each workload is one closed-loop operation against the ``cavityent`` command
line: a list of CLI calls, each in its own process when cold.  See README.md
in this directory for why each workload exists and what it stresses.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
import random
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference"

# Sweep rows must match their reference to this share of the curve's largest
# |value|; beyond it a change counts as a behaviour change.
ROW_RTOL = 1e-12

DEFAULT_SEED = 0

CUTOFF_N_MAX = 56
CUTOFF_STEPS = 101

# Label choices for the generated cutoff sweep.  At n_max 56 each one reports
# the same power, 1 or 2, in eight windows [s, s + 1] spread over one period,
# and its largest convergence delta there stays below 1e-5, a tenth of the
# gate, so that a seeded window, whose spot points fall elsewhere, passes too
# (the largest kept is 7.5e-6, fermion vacuum (2, -2)).  `record_reference.py
# --choices` re-derives the lists.  Left out: fermion pair curves of power 2,
# which fail the gate (delta ~0.87), pair labels that vanish by parity, the
# one-particle curve (0, 4) excited at 4 (delta 4.5e-4), and, for the margin,
# fermion vacuum (3, -3) and (4, -4) (1.7e-5 and 2.9e-5).
BOSON_PAIRS = ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))
FERMION_PAIR_LABELS = ((0, -3), (1, -4), (2, -1), (3, -2), (4, -3), (4, -1))
FERMION_VACUUM_PAIRS = (
    (0, -4), (0, -3), (0, -2), (1, -4), (1, -3), (1, -1), (2, -4), (2, -2),
    (2, -1), (3, -2), (3, -1), (4, -3), (4, -2), (4, -1),
)
FERMION_SAME_CHARGE_PAIRS = (
    (0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4),
    (-4, -3), (-4, -2), (-4, -1), (-3, -2), (-3, -1), (-2, -1),
)
FERMION_ONE_PARTICLE = tuple(
    (pair, excite)
    for pair in FERMION_SAME_CHARGE_PAIRS
    for excite in pair
    if (pair, excite) != ((0, 4), 4)
)


@dataclasses.dataclass(frozen=True)
class Step:
    """One CLI call; ``{dir}`` in argv is the operation's directory.  ``out``
    names the output file in that directory, ``stdout`` for captured output."""

    argv: tuple[str, ...]
    out: str


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    steps: tuple[Step, ...]
    configs: tuple[str, ...]      # what set-up loads with config.load_config
    references: dict              # output name -> reference file, or empty
    expected_rows: dict           # output name -> row count for structure checks

    def problems(self, outputs: dict[str, bytes | None]) -> list[str]:
        """Why the outputs of one operation are wrong; empty when they are right."""
        found = []
        for step in self.steps:
            data = outputs.get(step.out)
            if data is None:
                found.append(f"{step.out}: no output")
            elif step.out == "stdout":
                found += check_report(data.decode())
            elif step.out in self.references:
                ref = parse_rows((REFERENCE / self.references[step.out]).read_text())
                found += [f"{step.out}: {p}" for p in compare_rows(parse_rows(data.decode()), ref)]
            else:
                rows = parse_rows(data.decode())
                found += [f"{step.out}: {p}" for p in structure(rows, self.expected_rows[step.out])]
        return found


def cutoff_config(seed: int) -> tuple[str, int]:
    """Config text of the deep-cutoff sweep for ``seed`` and its curve count.

    The seed draws the start of a one-period u window and the mode labels;
    the mix of curve families, and so the cost, is the same for every seed.
    """
    rng = random.Random(seed)
    u_start = round(rng.random(), 6)
    bv = rng.choice(BOSON_PAIRS)
    bp = rng.choice(BOSON_PAIRS)
    bp_excite = rng.choice(bp)
    pair = rng.choice(FERMION_PAIR_LABELS)
    if rng.random() < 0.5:
        fourth = ("fermion-vacuum", "vacuum", rng.choice(FERMION_VACUUM_PAIRS), None)
    else:
        modes, excite = rng.choice(FERMION_ONE_PARTICLE)
        fourth = ("fermion-one-particle", "one-particle", modes, excite)
    curves = [
        ("boson-vacuum", "boson", "vacuum", bv, None),
        ("boson-one-particle", "boson", "one-particle", bp, bp_excite),
        ("fermion-pair", "fermion", "pair", pair, None),
        (fourth[0], "fermion", fourth[1], fourth[2], fourth[3]),
    ]
    lines = [
        f"# deep-cutoff sweep generated from seed {seed}",
        "[sweep]",
        f"u_start = {u_start!r}",
        f"u_stop = {u_start + 1.0!r}",
        f"steps = {CUTOFF_STEPS}",
        f"n_max = {CUTOFF_N_MAX}",
    ]
    for name, species, state, modes, excite in curves:
        lines += ["", f"[curve:{name}]", f"species = {species}", f"state = {state}",
                  f"modes = {modes[0]}, {modes[1]}"]
        if excite is not None:
            lines.append(f"excite = {excite}")
    return "\n".join(lines) + "\n", len(curves)


def make(name: str, seed: int, workdir: Path) -> Workload:
    if name == "presets":
        return Workload(
            name,
            (Step(("sweep", "fig1a", "--out", "{dir}/fig1a.csv"), "fig1a.csv"),
             Step(("sweep", "fig1b", "--out", "{dir}/fig1b.json"), "fig1b.json")),
            ("fig1a", "fig1b"),
            {"fig1a.csv": "fig1a.csv", "fig1b.json": "fig1b.json"},
            {},
        )
    if name == "check":
        return Workload(name, (Step(("check",), "stdout"),), (), {}, {})
    if name == "cutoff":
        text, n_curves = cutoff_config(seed)
        path = workdir / f"cutoff-seed{seed}.cfg"
        path.write_text(text)
        refs = {"cutoff.csv": f"cutoff-seed{seed}.csv"} if seed == DEFAULT_SEED else {}
        return Workload(
            name,
            (Step(("sweep", str(path), "--out", "{dir}/cutoff.csv"), "cutoff.csv"),),
            (str(path),),
            refs,
            {"cutoff.csv": CUTOFF_STEPS * n_curves},
        )
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("presets", "check", "cutoff")


# ---------------------------------------------------------------------------
# output checks


def parse_rows(text: str) -> list[dict]:
    """Rows of emitted CSV or JSON, with typed fields."""
    if text.lstrip().startswith("{"):
        raw = json.loads(text)["rows"]
    else:
        raw = list(csv.DictReader(io.StringIO(text)))
    rows = []
    for r in raw:
        converged = r["converged"]
        rows.append({
            "u": float(r["u"]),
            "value": float(r["negativity_normalized"]),
            "power": int(r["power"]),
            "curve": (r["species"], r["state"], int(r["mode_a"]), int(r["mode_b"])),
            "converged": converged is True or converged == "true",
        })
    return rows


def structure(rows: list[dict], expected: int) -> list[str]:
    found = []
    if len(rows) != expected:
        found.append(f"{len(rows)} rows, expected {expected}")
    if not all(r["converged"] for r in rows):
        found.append("rows flagged converged=false")
    if not all(math.isfinite(r["value"]) for r in rows):
        found.append("non-finite values")
    return found


def compare_rows(rows: list[dict], ref: list[dict]) -> list[str]:
    if len(rows) != len(ref):
        return [f"{len(rows)} rows, reference has {len(ref)}"]
    scale: dict[tuple, float] = {}
    for r in ref:
        scale[r["curve"]] = max(scale.get(r["curve"], 0.0), abs(r["value"]))
    found = []
    for i, (row, want) in enumerate(zip(rows, ref)):
        tol = ROW_RTOL * scale[want["curve"]]
        if (row["curve"], row["power"], row["converged"]) != (
            want["curve"], want["power"], want["converged"]
        ):
            found.append(f"row {i}: labels {row} differ from reference {want}")
        elif abs(row["u"] - want["u"]) > 1e-12 or not abs(row["value"] - want["value"]) <= tol:
            found.append(
                f"row {i}: u={row['u']!r} value {row['value']!r} vs reference "
                f"{want['value']!r} (tolerance {tol:.1e})"
            )
        if len(found) >= 5:
            break
    return found


def check_report(text: str) -> list[str]:
    lines = [line for line in text.splitlines() if line.strip()]
    failed = [line for line in lines if line.startswith("FAIL")]
    if not lines:
        return ["check printed nothing"]
    return [f"check: {line}" for line in failed]
