"""In-process side of the benchmark, run in a child interpreter.

    python3 perfbench/child.py warm SPEC_JSON
        For each repetition number read from standard input, run one operation
        through ``cavityent.cli.main`` and answer with one JSON line holding
        its exit code and seconds.  SPEC_JSON holds ``steps`` (one argv list
        and one output name per CLI call, ``{dir}`` standing for the
        repetition's directory ``warm<N>`` under ``workdir``) and ``workdir``.

    python3 perfbench/child.py traced SPANS_PATH ARG...
        Wrap the package's layers with the tracer, run ``cavityent.cli.main``
        on ARG... once, write the spans to SPANS_PATH and exit with the
        command's exit code.
"""

from __future__ import annotations

import contextlib
import json
import os
import sys
import time
import traceback


def _run_steps(main, steps, rep_dir) -> int:
    os.makedirs(rep_dir, exist_ok=True)
    code = 0
    for i, (argv, out) in enumerate(steps):
        argv = [a.replace("{dir}", rep_dir) for a in argv]
        stdout = "stdout" if out == "stdout" else f"{i}.stdout"
        try:
            with open(os.path.join(rep_dir, stdout), "w") as fh:
                with contextlib.redirect_stdout(fh):
                    rc = main(argv)
        except Exception:
            # a cold process would die here with exit code 1
            traceback.print_exc()
            rc = 1
        code = code or rc
    return code


def warm(spec_text: str) -> int:
    from cavityent.cli import main

    spec = json.loads(spec_text)
    for line in sys.stdin:
        rep_dir = os.path.join(spec["workdir"], f"warm{int(line)}")
        t0 = time.perf_counter()
        code = _run_steps(main, spec["steps"], rep_dir)
        seconds = time.perf_counter() - t0
        print(json.dumps({"code": code, "seconds": seconds}), flush=True)
    return 0


def traced(spans_path: str, argv: list[str]) -> int:
    import tracer

    spans = tracer.Tracer()
    missing = tracer.install(spans)
    if missing:
        print(f"perfbench: not traced (missing): {', '.join(missing)}", file=sys.stderr)
    from cavityent.cli import main

    try:
        return main(argv)
    finally:
        spans.write(spans_path)


if __name__ == "__main__":
    mode = sys.argv[1]
    if mode == "warm":
        sys.exit(warm(sys.argv[2]))
    if mode == "traced":
        sys.exit(traced(sys.argv[2], sys.argv[3:]))
    sys.exit(f"unknown mode {mode!r}")
