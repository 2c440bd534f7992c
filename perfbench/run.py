"""End-to-end benchmark of the mwadversary command line.

Run from the root of a checkout (nothing needs building):

    python3 perfbench/run.py                         # every workload, untraced
    python3 perfbench/run.py --workload long --seed 3 --seconds 30 --trace 1
    python3 perfbench/run.py --self-test             # the correctness gate bites

Each workload runs in its own fresh interpreter (worker.py) with one BLAS/
OpenMP thread, so ``peak_rss_mb`` is that workload's alone.  ``setup_s`` is
the median time to import ``mwadversary.cli`` in several fresh interpreters.
With ``--trace 0`` the end-to-end metrics of BENCHMARK.json are reported;
with ``--trace 1`` the per-layer ones, from spans around every call into the
package's public functions, next to untraced iterations of the same run for
the tracing overhead.  CSVs go to a temporary directory under
``.bench_build/``, removed afterwards.  The last line of standard output is
one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from workloads import WORKLOADS, two_expert_table_bytes

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SETUP_REPEATS = 11
TAIL_BEYOND = 10
WORKER_TIMEOUT_S = 160
IMPORT_PROBE = ("import time; t = time.perf_counter(); import mwadversary.cli; "
                "print(time.perf_counter() - t)")
ONE_THREAD = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def child_env() -> dict[str, str]:
    return {**os.environ, **ONE_THREAD, "PYTHONPATH": str(ROOT / "src")}


def setup_seconds() -> list[float]:
    """Import times of mwadversary.cli, one fresh interpreter each; the
    first import is dropped because it may compile bytecode."""
    times = []
    for _ in range(SETUP_REPEATS + 1):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=child_env(), cwd=ROOT,
                              capture_output=True, text=True, timeout=60, check=True)
        times.append(float(proc.stdout))
    return times[1:]


def scratch() -> tempfile.TemporaryDirectory:
    """A temporary directory inside the checkout, removed on exit."""
    build = ROOT / ".bench_build"
    build.mkdir(exist_ok=True)
    return tempfile.TemporaryDirectory(dir=build, prefix="perfbench-")


def run_worker(workload: str, seed: int, seconds: float, trace: int,
               reference: Path) -> dict:
    with scratch() as tmp:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
             "--out-dir", tmp, "--reference", str(reference)],
            env=child_env(), cwd=ROOT, capture_output=True, text=True,
            timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker for {workload} exited {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def tail(samples: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least TAIL_BEYOND samples above it, as
    (value, percentile, samples beyond).  Below TAIL_BEYOND + 1 samples no
    percentile qualifies, and the maximum is reported."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def quartiles(samples: list[float]) -> tuple[float, float]:
    if len(samples) < 2:
        return samples[0], samples[0]
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return q1, q3


def _getconf(name: str) -> int | None:
    try:
        out = subprocess.run(["getconf", name], capture_output=True, text=True, timeout=10)
        return int(out.stdout)
    except (OSError, ValueError, subprocess.TimeoutExpired):
        return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=10)
    return proc.stdout.strip() or None


def environment(worker: dict) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "l2_bytes": _getconf("LEVEL2_CACHE_SIZE"),
        "l3_bytes": _getconf("LEVEL3_CACHE_SIZE"),
        "python": worker["python"],
        "numpy": worker["numpy"],
        "commit": _git_commit(),
    }


def measure(spec: dict, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run of one workload; prints the report and returns the
    result object."""
    setup = setup_seconds() if not trace else []
    worker = run_worker(workload, seed, seconds, trace, HERE / "reference.json")
    env = environment(worker)
    attempted, failed = worker["attempted"], worker["failed"]
    print(f"workload={workload} seed={seed} seconds={seconds:g} trace={trace}")
    print(f"env: {json.dumps(env)}")
    table = two_expert_table_bytes(WORKLOADS[workload].largest_solve_n)
    if env["l3_bytes"]:
        print(f"largest two-expert table (computed): {table / 1e6:.3g} MB = "
              f"{table / env['l3_bytes']:.2f} x L3 ({env['l3_bytes'] / 2**20:.0f} MiB)")
    print(f"fail_frac    {failed / attempted:.4g} ({failed} of {attempted} iterations failed)")
    for problem in worker["problems"]:
        print(f"  problem: {problem}")

    walls, traced = worker["wall_s"], worker["traced_wall_s"]
    if not walls or (trace and not traced):
        raise SystemExit(f"{workload}: no timed iteration ran to completion")
    q1, q3 = quartiles(walls)
    value, pct, beyond = tail(walls)
    values = {"wall_s": statistics.median(walls), "wall_s_tail": value}
    print(f"wall_s       {values['wall_s']:.4f} s (median of {len(walls)}, "
          f"q1 {q1:.4f}, q3 {q3:.4f})")
    print(f"wall_s_tail  {value:.4f} s (p{pct:.0f} of {len(walls)}, {beyond} beyond)")
    if trace:
        values.update(worker["layers"])
        values["trace.wall_s"] = statistics.median(traced)
        values["trace.overhead_frac"] = values["trace.wall_s"] / values["wall_s"] - 1.0
        print(f"traced wall  {values['trace.wall_s']:.4f} s (median of {len(traced)}), "
              f"overhead {values['trace.overhead_frac']:+.3f}")
        shares = sorted(((v / values["trace.wall_s"], k) for k, v in worker["layers"].items()
                         if k.endswith(".self_s") and k.count(".") == 2), reverse=True)
        print("self-time share of the traced wall time:",
              ", ".join(f"{k[:-7]} {s:.0%}" for s, k in shares[:6]))
    else:
        values["peak_rss_mb"] = worker["maxrss_kb"] / 1024
        values["setup_s"] = statistics.median(setup)
        print(f"peak_rss_mb  {values['peak_rss_mb']:.1f} MB")
        print(f"setup_s      {values['setup_s']:.4f} s (median of {len(setup)} fresh imports)")

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec["per_layer" if trace else "end_to_end"]}
    if trace:
        print(f"per-layer metrics (median of {len(traced)} traced iterations):")
        for name, m in metrics.items():
            label = " (computed)" if name in worker["computed"] else ""
            print(f"  {name:48s} {m['value']:14.6g} {m['unit']}{label}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def self_test() -> int:
    """Perturb one reference value per workload by 1e-6 relative and require
    that fail_frac then rises above 0."""
    reference = json.loads((HERE / "reference.json").read_text())
    ok = True
    for name in WORKLOADS:
        perturbed = json.loads(json.dumps(reference))
        csv_name, columns = next(iter(perturbed[name].items()))
        column = next(c for c in columns if c.startswith("v_") and columns[c][-1])
        columns[column][-1] = repr(float(columns[column][-1]) * (1.0 + 1e-6))
        with scratch() as tmp:
            path = Path(tmp) / "reference.json"
            path.write_text(json.dumps(perturbed))
            worker = run_worker(name, 1, 0, 0, path)
        frac = worker["failed"] / worker["attempted"]
        caught = frac > 0
        ok &= caught
        print(f"{name}: {csv_name} {column} perturbed -> fail_frac {frac:g} "
              f"({'caught' if caught else 'MISSED'})")
    return 0 if ok else 1


def main() -> int:
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "mwadversary" / "cli.py").is_file() or not spec_path.is_file():
        print(f"{ROOT} lacks src/mwadversary or BENCHMARK.json; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        print(json.dumps(measure(spec, name, args.seed, args.seconds, args.trace)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
