"""Record the reference outputs the benchmark compares sweep rows against.

    python3 perfbench/record_reference.py [--choices]

Writes ``reference/fig1a.csv``, ``reference/fig1b.json`` and
``reference/cutoff-seed<DEFAULT_SEED>.csv`` from the checkout's ``src/``.
Run it only on a commit whose output is the accepted behaviour: the
benchmark then fails every row that moves by more than ROW_RTOL.

``--choices`` records nothing.  It sweeps every candidate cutoff curve with
|label| <= 4 at the cutoff's n_max over the windows ``[s, s + 1]`` for each
``s`` in CHOICE_WINDOWS, and marks ``use`` the ones that report the same
power, 1 or 2, in every window and whose largest convergence delta stays
below CHOICE_MARGIN, a tenth of the gate: the source of the label lists in
``workloads.py``.  The seeded window of a run falls between these windows,
so the margin covers the spot points it moves.
"""

from __future__ import annotations

import argparse
import itertools
import shutil
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import run
import workloads


# window starts, on the grid of u_start 0 and half a grid step off it
CHOICE_WINDOWS = tuple(i / 8 + (0.005 if i % 2 else 0.0) for i in range(8))
CHOICE_MARGIN = 1e-5


def record() -> None:
    workloads.REFERENCE.mkdir(exist_ok=True)
    env = run.child_env()
    with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
        tmp = Path(tmp)
        cfg = tmp / "cutoff.cfg"
        cfg.write_text(workloads.cutoff_config(workloads.DEFAULT_SEED)[0])
        jobs = (
            (["sweep", "fig1a"], "fig1a.csv"),
            (["sweep", "fig1b"], "fig1b.json"),
            (["sweep", str(cfg)], f"cutoff-seed{workloads.DEFAULT_SEED}.csv"),
        )
        for argv, name in jobs:
            subprocess.run([sys.executable, "-c", run.CLI, *argv, "--out", str(tmp / name)],
                           cwd=run.ROOT, env=env, check=True)
            shutil.copyfile(tmp / name, workloads.REFERENCE / name)
            print(f"wrote {workloads.REFERENCE / name}")


def candidates():
    labels = range(1, 5)
    for a, b in itertools.combinations(labels, 2):
        yield "boson", "vacuum", (a, b), None
        for e in (a, b):
            yield "boson", "one-particle", (a, b), e
    for k, kp in itertools.product(range(0, 5), range(-4, 0)):
        yield "fermion", "pair", (k, kp), None
        yield "fermion", "vacuum", (k, kp), None
    for group in (range(0, 5), range(-4, 0)):
        for a, b in itertools.combinations(group, 2):
            for e in (a, b):
                yield "fermion", "one-particle", (a, b), e


def choices() -> None:
    sys.path.insert(0, str(run.SRC))
    from cavityent import sweep

    warnings.simplefilter("ignore")
    curves = tuple(sweep.CurveSpec(f"c{i}", *c) for i, c in enumerate(candidates()))
    powers = {c.name: set() for c in curves}
    deltas = {c.name: 0.0 for c in curves}
    for start in CHOICE_WINDOWS:
        result = sweep.run_sweep(
            sweep.SweepRequest(curves=curves, u_start=start, u_stop=start + 1.0,
                               n_max=workloads.CUTOFF_N_MAX, steps=workloads.CUTOFF_STEPS)
        )
        for c in curves:
            powers[c.name].add(result.powers[c.name])
            deltas[c.name] = max(deltas[c.name], result.deltas[c.name])
    for c in curves:
        power = powers[c.name].pop() if len(powers[c.name]) == 1 else sorted(powers[c.name])
        usable = power in (1, 2) and deltas[c.name] < CHOICE_MARGIN
        print(f"{'use ' if usable else 'skip'} {c.species} {c.state} {c.modes} "
              f"excite={c.excite} power={power} max_delta={deltas[c.name]:.2e}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--choices", action="store_true")
    if parser.parse_args().choices:
        choices()
    else:
        record()
