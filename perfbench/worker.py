"""Run one workload in this (fresh) process and report on it.

Started by run.py with ``PYTHONPATH`` pointing at the checkout's ``src``.
Does one untimed warm-up iteration, then times iterations until ``--seconds``
have passed, checking the CSVs of every iteration against the reference.
With ``--trace 1`` it alternates untraced and traced iterations.  The last
line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import platform
import resource
import statistics
import time
import traceback
from pathlib import Path

import numpy as np

import mwadversary
import mwadversary.cli as cli
from tracer import COUNTERS, Tracer
from workloads import WORKLOADS, argvs, check

MAX_PROBLEMS = 5


def iteration(calls: list[list[str]], tracer: Tracer | None) -> tuple[float, list[str]]:
    """Run the CLI calls once; return the wall time and any non-zero exits."""
    gc.collect()
    with contextlib.redirect_stdout(io.StringIO()), \
            (tracer.patched() if tracer else contextlib.nullcontext()):
        started = time.perf_counter()
        codes = [cli.main(argv) for argv in calls]
        elapsed = time.perf_counter() - started
    return elapsed, [f"{argv[0]} exited {code}" for argv, code in zip(calls, codes) if code]


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out-dir", type=Path, required=True)
    parser.add_argument("--reference", type=Path, required=True)
    args = parser.parse_args()

    src = Path("src").resolve()
    if not Path(mwadversary.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"mwadversary was imported from {mwadversary.__file__}, not {src}")
    workload = WORKLOADS[args.workload]
    reference = json.loads(args.reference.read_text())
    calls = argvs(workload, args.seed, args.out_dir)
    report = {"attempted": 0, "failed": 0, "problems": [], "wall_s": [], "traced_wall_s": [],
              "layers": []}

    def run(traced: bool, timed: bool = True) -> None:
        for c in workload.calls:
            (args.out_dir / c.out).unlink(missing_ok=True)
        tracer = Tracer() if traced else None
        try:
            elapsed, problems = iteration(calls, tracer)
            problems += check(workload, args.out_dir, reference)
        except Exception:  # any failure of the program under test is a failed iteration
            elapsed, problems = None, [traceback.format_exc(limit=-3)]
        report["attempted"] += 1
        if problems:
            report["failed"] += 1
            report["problems"] = (report["problems"] + problems)[:MAX_PROBLEMS]
        if elapsed is not None and timed:
            report["traced_wall_s" if traced else "wall_s"].append(elapsed)
            if traced:
                report["layers"].append(tracer.summary())

    # untimed warm-up: first-touch page faults of the large tables, lazy imports
    run(traced=False, timed=False)
    deadline = time.perf_counter() + args.seconds
    while True:
        for traced in (False, True) if args.trace else (False,):
            run(traced)
        if time.perf_counter() >= deadline:
            break

    layers = report.pop("layers")
    report["layers"] = {k: statistics.median(s[k] for s in layers) for k in layers[0]} \
        if layers else {}
    report["computed"] = [f"{fn}.{counter}" for fn, counter, _ in COUNTERS]
    report["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    report["python"] = platform.python_version()
    report["numpy"] = np.__version__
    print(json.dumps(report))


if __name__ == "__main__":
    main()
