"""Benchmark of the cavityent command line, run from the root of a checkout.

    python3 perfbench/run.py --workload presets|check|cutoff --seed N \\
        --seconds S --trace 0|1

The package is run from ``src/`` of the same checkout; nothing is installed.
With ``--trace 0`` a run repeats rounds, one operation at a time, until S
seconds have passed and at least MIN_ROUNDS are done.  A round takes:

* ``setup_s``: SETUP_PER_ROUND fresh interpreters importing ``cavityent.cli``
  and loading the workload's configs;
* ``wall_s`` and ``peak_rss_mb``: one cold operation, every CLI call in its
  own process, timed from spawn to exit;
* ``warm_s``: one repetition of the operation in a long-lived child through
  ``cavityent.cli.main``; the child ran one untimed operation first.

Each metric is the median over the run.  With ``--trace 1`` rounds of one
untraced and one traced cold operation, in alternating order, give the
per-layer figures of ``tracer.py`` (medians over the traced operations) and
the tracing overhead.

Every operation's output is checked (see ``workloads.py``).  The last line of
standard output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  ``failed_frac``, failed over attempted operations, is printed
above it.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

MIN_ROUNDS = 3
SETUP_PER_ROUND = 2
# a run must end within 180 s; stop starting operations past this point
RUN_LIMIT_S = 160.0

CLI = "import sys; from cavityent.cli import main; sys.exit(main())"
SETUP = (
    "import sys; import cavityent.cli; from cavityent import config\n"
    "for source in sys.argv[1:]: config.load_config(source)"
)
PROBE = (
    "import json, os, platform, numpy, scipy, cavityent.cli\n"
    "blas = numpy.show_config(mode='dicts')['Build Dependencies']['blas']\n"
    "print(json.dumps({'python': platform.python_version(), 'numpy': numpy.__version__,"
    " 'scipy': scipy.__version__, 'blas': f\"{blas.get('name')} {blas.get('version')}\","
    " 'nproc': os.cpu_count()}))"
)
THREAD_VARS = re.compile(r"THREAD|^OMP_|BLAS|^MKL_|^GOTO")

END_TO_END_UNITS = {"wall_s": "s", "warm_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}


class HarnessError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def child_env() -> dict[str, str]:
    """Inherited environment minus the package's disk cache, with the
    checkout's sources first on the path.  Thread settings pass unchanged."""
    env = {k: v for k, v in os.environ.items() if k != "CAVITYENT_CACHE_DIR"}
    env["PYTHONPATH"] = str(SRC)
    return env


class Runner:
    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.env = child_env()
        self.start = time.perf_counter()

    def left(self) -> float:
        return RUN_LIMIT_S - (time.perf_counter() - self.start)

    def spawn(self, argv, stdout: Path, stderr: Path):
        """Run one child to completion: (exit code, wall seconds, peak RSS MiB)."""
        timeout = max(self.left(), 1.0)
        with open(stdout, "wb") as out, open(stderr, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                argv, cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL, stdout=out, stderr=err
            )
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage.ru_maxrss / 1024.0

    def python(self, code: str, *args: str, tag: str):
        out, err = self.workdir / f"{tag}.out", self.workdir / f"{tag}.err"
        rc, wall, _ = self.spawn([sys.executable, "-c", code, *args], out, err)
        if rc != 0:
            raise HarnessError(f"{tag} exited {rc}: {err.read_text()[-2000:]}")
        return out.read_text(), wall


class Op:
    """One operation: its CLI calls, their exit codes, outputs and costs."""

    def __init__(self, workload: workloads.Workload, directory: Path):
        self.workload = workload
        self.dir = directory
        self.codes: list[int] = []
        self.wall = 0.0
        self.rss_mb = 0.0
        self.spans: list[list] = []

    def run(self, runner: Runner, traced: bool) -> "Op":
        self.dir.mkdir(parents=True)
        for i, step in enumerate(self.workload.steps):
            argv = [a.replace("{dir}", str(self.dir)) for a in step.argv]
            spans = self.dir / f"{i}.spans.json"
            if traced:
                cmd = [sys.executable, str(HERE / "child.py"), "traced", str(spans), *argv]
            else:
                cmd = [sys.executable, "-c", CLI, *argv]
            stdout = self.dir / ("stdout" if step.out == "stdout" else f"{i}.stdout")
            rc, wall, rss = runner.spawn(cmd, stdout, self.dir / f"{i}.stderr")
            self.codes.append(rc)
            self.wall += wall
            self.rss_mb = max(self.rss_mb, rss)
            if traced and spans.is_file():
                self.spans.append(json.loads(spans.read_text()))
        return self

    def outputs(self) -> dict[str, bytes | None]:
        return read_outputs(self.workload, self.dir)

    def problems(self) -> list[str]:
        found = [f"{s.argv[0]} exited {rc}" for s, rc in zip(self.workload.steps, self.codes) if rc]
        return found + self.workload.problems(self.outputs())


def read_outputs(workload: workloads.Workload, directory: Path) -> dict[str, bytes | None]:
    out = {}
    for step in workload.steps:
        path = directory / step.out
        out[step.out] = path.read_bytes() if path.is_file() else None
    return out


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failures.append(f"{what}: {'; '.join(problems)}")


def enough(count: int, minimum: int, elapsed: float, target: float, runner: Runner,
           last: float) -> bool:
    """Stop once both the minimum count and the time target are met, or when
    another round like the last one might overrun the run limit."""
    if runner.left() < 1.5 * last + 5.0:
        return True
    return count >= minimum and elapsed >= target


class WarmProcess:
    """A child that keeps the package loaded and runs the operation through
    ``cavityent.cli.main`` whenever asked; repetition 0 is untimed."""

    def __init__(self, runner: Runner, workload: workloads.Workload):
        self.runner, self.workload = runner, workload
        spec = {"steps": [[list(s.argv), s.out] for s in workload.steps],
                "workdir": str(runner.workdir)}
        self.stderr = open(runner.workdir / "warm.err", "wb")
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), "warm", json.dumps(spec)],
            cwd=ROOT, env=runner.env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=self.stderr, text=True,
        )
        # the run limit also bounds a warm repetition that never answers
        self.timer = threading.Timer(max(runner.left(), 1.0), self.proc.kill)
        self.timer.start()
        self.reps = 0

    def rep(self, tally: Tally, cold_bytes: dict) -> float | None:
        """Run one repetition and check its output; its seconds, or None when
        the process is gone."""
        rep, self.reps = self.reps, self.reps + 1
        try:
            self.proc.stdin.write(f"{rep}\n")
            self.proc.stdin.flush()
            line = self.proc.stdout.readline()
        except OSError:
            line = ""
        if not line:
            tally.record(f"warm operation {rep}", ["warm process died"])
            return None
        result = json.loads(line)
        outputs = read_outputs(self.workload, self.runner.workdir / f"warm{rep}")
        problems = [f"exited {result['code']}"] if result["code"] else []
        problems += [f"{name}: bytes differ from the cold operation"
                     for name, data in outputs.items() if data != cold_bytes.get(name)]
        tally.record(f"warm operation {rep}", problems + self.workload.problems(outputs))
        return result["seconds"]

    def close(self) -> None:
        try:
            self.proc.stdin.close()
        except OSError:
            pass
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.timer.cancel()
        self.proc.stdout.close()
        self.stderr.close()


def measure(name: str, seed: int, seconds: float, trace: int, workdir: Path,
            minimum: int = MIN_ROUNDS):
    """Run one workload; return (tally, metrics, environment record, samples).

    The untraced run repeats rounds of set-up timings, one cold operation and
    one warm repetition, so that every metric samples the whole run.  The
    traced run repeats rounds of one untraced and one traced cold operation,
    untraced first in even rounds and traced first in odd ones.  Rounds
    continue until ``seconds`` have passed and ``minimum`` are done.
    """
    runner = Runner(workdir)
    workload = workloads.make(name, seed, workdir)
    # compile the sources and touch every shared library once, untimed
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC)], cwd=ROOT,
                   env=runner.env, stdout=subprocess.DEVNULL, check=True,
                   timeout=max(runner.left(), 1.0))
    probe, _ = runner.python(PROBE, tag="probe")
    env = json.loads(probe)
    env["thread_env"] = {k: v for k, v in sorted(os.environ.items()) if THREAD_VARS.search(k)}

    tally = Tally()
    if trace == 0:
        setup, cold, warm = [], [], []
        warm_proc = WarmProcess(runner, workload)
        try:
            start = time.perf_counter()
            round_s = 0.0
            while not cold or not enough(len(cold), minimum, time.perf_counter() - start,
                                         seconds, runner, round_s):
                t0 = time.perf_counter()
                setup += [runner.python(SETUP, *workload.configs, tag="setup")[1]
                          for _ in range(SETUP_PER_ROUND)]
                op = Op(workload, workdir / f"cold{len(cold)}").run(runner, traced=False)
                tally.record(f"cold operation {len(cold)}", op.problems())
                if not cold:
                    cold_bytes = op.outputs()
                    warm_proc.rep(tally, cold_bytes)    # untimed
                cold.append(op)
                seconds_warm = warm_proc.rep(tally, cold_bytes)
                if seconds_warm is not None:
                    warm.append(seconds_warm)
                round_s = time.perf_counter() - t0
        finally:
            warm_proc.close()
        samples = {
            "wall_s": [op.wall for op in cold],
            "warm_s": warm or [0.0],
            "setup_s": setup,
            "peak_rss_mb": [op.rss_mb for op in cold],
        }
        metrics = {key: statistics.median(values) for key, values in samples.items()}
        units = END_TO_END_UNITS
    else:
        plain, traced = [], []
        start = time.perf_counter()
        while not traced or not enough(len(traced), minimum, time.perf_counter() - start,
                                       seconds, runner, plain[-1].wall + traced[-1].wall):
            i = len(traced)
            # alternate the order so that neither kind always runs first
            for kind in (("untraced", "traced") if i % 2 == 0 else ("traced", "untraced")):
                ops = traced if kind == "traced" else plain
                ops.append(Op(workload, workdir / f"{kind}{i}").run(runner, kind == "traced"))
                tally.record(f"{kind} operation {i}", ops[-1].problems())
        per_op = [tracer.layer_metrics(op.spans) for op in traced]
        metrics = {key: statistics.median(m[key] for m in per_op) for key in per_op[0]}
        samples = {"untraced wall_s": [op.wall for op in plain],
                   "traced wall_s": [op.wall for op in traced]}
        metrics["trace.overhead_frac"] = (
            statistics.median(samples["traced wall_s"])
            / statistics.median(samples["untraced wall_s"]) - 1.0
        )
        units = tracer.UNITS
    return tally, {k: (v, units[k]) for k, v in metrics.items()}, env, samples


def report(name, seed, seconds, trace, tally, metrics, env, samples) -> str:
    lines = [
        f"perfbench workload={name} seed={seed} seconds={seconds} trace={trace}",
        "environment " + " ".join(f"{k}={env[k]}" for k in ("nproc", "python", "numpy",
                                                          "scipy", "blas")),
        "thread variables " + (" ".join(f"{k}={v}" for k, v in env["thread_env"].items())
                               or "none set"),
    ]
    lines += [f"samples {key} n={len(values)}: " + " ".join(f"{v:.4g}" for v in values)
              for key, values in samples.items()]
    if name == "cutoff":
        lines.append(f"cutoff config (seed {seed}):")
        lines += ["  " + line for line in workloads.cutoff_config(seed)[0].splitlines() if line]
    lines += [f"failed: {f}" for f in tally.failures]
    for key, (value, unit) in metrics.items():
        lines.append(f"metric {key} {value:.6g} {unit}")
    failed = len(tally.failures)
    lines.append(f"metric failed_frac {failed / tally.attempted:.6g} ratio "
                 f"({failed} of {tally.attempted} operations)")
    result = {
        "correct": failed == 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    lines.append(json.dumps(result))
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cavityent" / "cli.py").is_file():
        print(f"perfbench: no cavityent sources under {SRC}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        found = measure(args.workload, args.seed, args.seconds, args.trace, workdir)
    except (HarnessError, subprocess.SubprocessError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    print(report(args.workload, args.seed, args.seconds, args.trace, *found))
    return 0


if __name__ == "__main__":
    sys.exit(main())
