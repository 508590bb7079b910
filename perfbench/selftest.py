"""Smoke test of the benchmark harness.

    python3 perfbench/selftest.py

Runs one operation per workload at the default seed, untraced and traced,
and asserts that:

* every metric of BENCHMARK.json is printed by name with its unit, on a
  ``metric`` line and in the closing JSON object, and ``failed_frac`` is
  printed with its unit;
* every operation passed the correctness gate;
* the traced figures show the layer split the workloads were chosen for: no
  numeric-route calls on the sweeps, and far fewer trips on ``check`` than
  on ``presets``.

Takes about a minute on two cores.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run
import workloads

NUMERIC_ROUTE = ("states.expand.calls", "states.reduce.calls", "negativity.leading_order.calls")


def smoke(name: str, trace: int, declared: list[dict]) -> dict[str, float]:
    run.WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"selftest-{name}-", dir=run.WORK))
    try:
        found = run.measure(name, workloads.DEFAULT_SEED, 0.0, trace, workdir, minimum=1)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            run.WORK.rmdir()
        except OSError:
            pass
    text = run.report(name, workloads.DEFAULT_SEED, 0.0, trace, *found)
    lines = text.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] and result["failed"] == 0, f"{name}: {found[0].failures}"
    assert result["attempted"] >= 1
    printed = {}
    for line in lines:
        if line.startswith("metric "):
            _, key, value, unit = line.split()[:4]
            printed[key] = (float(value), unit)
    assert printed.get("failed_frac", (None, None))[1] == "ratio", f"{name}: no failed_frac"
    assert set(result["metrics"]) == {m["name"] for m in declared}, (
        f"{name} trace {trace}: metrics {sorted(result['metrics'])}"
    )
    for m in declared:
        assert printed.get(m["name"], (None, None))[1] == m["unit"], f"{name}: {m['name']}"
        assert result["metrics"][m["name"]]["unit"] == m["unit"], f"{name}: {m['name']}"
    print(f"ok {name} trace={trace}: {len(declared)} metrics, "
          f"{result['attempted']} operations")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    layers = {}
    for name in workloads.NAMES:
        smoke(name, 0, spec["end_to_end"])
        layers[name] = smoke(name, 1, spec["per_layer"])
    for name in ("presets", "cutoff"):
        for key in NUMERIC_ROUTE:
            assert layers[name][key] == 0, f"{name}: {key} = {layers[name][key]}"
    trips = {name: layers[name]["blocks.one_way_trip.calls"] for name in layers}
    assert trips["check"] <= trips["presets"] / 10, trips
    print("ok layer split:", trips)
    return 0


if __name__ == "__main__":
    sys.exit(main())
