"""The benchmark's workloads and the correctness gate applied to their CSVs.

Every workload is a fixed list of ``mwadversary`` CLI calls.  The seed given
to the benchmark is passed to each call as ``--seed``; it only moves the
Monte Carlo columns, so every workload costs the same on every seed.

The gate compares every deterministic column numerically with
``reference.json`` (1e-9 relative, so a change in how many digits the CSV
writer prints does not count as a failure) and checks the seeded Monte Carlo
columns with statistical tests that hold for any seed.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

REL_TOL = 1e-9
Z_MAX = 5.0

Table = tuple[list[str], list[list[str]]]


def _num(cell: str) -> float | None:
    return float(cell) if cell else None


def _column(table: Table, name: str) -> list[float | None]:
    header, rows = table
    i = header.index(name)
    return [_num(row[i]) for row in rows]


def _sim_near_online(table: Table) -> list[str]:
    """The simulated mean of the optimal online policy lies within Z_MAX
    standard errors of the table's exact root value."""
    problems = []
    for n, exact, mean, err in zip(*(_column(table, c) for c in
                                     ("N", "v_online", "sim_mean", "sim_stderr"))):
        if mean is None or err is None or not err > 0.0:
            problems.append(f"N={n:g}: simulation columns missing or stderr not positive")
        elif abs(mean - exact) > Z_MAX * err:
            problems.append(f"N={n:g}: sim_mean {mean} is {abs(mean - exact) / err:.1f} "
                            f"stderr from v_online {exact}")
    return problems


def _clairvoyant_above_exact(table: Table) -> list[str]:
    """The clairvoyant adversary knows the honest outcomes in advance, so its
    Monte Carlo mean may not fall below the exact online value by more than
    Z_MAX standard errors."""
    problems = []
    for n, exact, mean, err in zip(*(_column(table, c) for c in
                                     ("N", "v_k_exact_dp", "v_k_clairvoyant",
                                      "v_k_clairvoyant_stderr"))):
        if mean is None or err is None:
            problems.append(f"N={n:g}: clairvoyant columns missing")
        elif exact is not None and mean < exact - Z_MAX * err:
            problems.append(f"N={n:g}: v_k_clairvoyant {mean} below v_k_exact_dp {exact} "
                            f"by more than {Z_MAX:g} stderr ({err})")
    return problems


@dataclass(frozen=True)
class Call:
    """One CLI call: its CSV name, its argv without --seed/--out, the seeded
    columns left out of the reference, and the test those columns must pass."""

    out: str
    argv: tuple[str, ...]
    seeded: tuple[str, ...] = ()
    seeded_check: Callable[[Table], list[str]] | None = None


@dataclass(frozen=True)
class Workload:
    """A named list of CLI calls (the reason for each workload is given
    beside its name in BENCHMARK.json)."""

    name: str
    calls: tuple[Call, ...]
    largest_solve_n: int  # largest horizon handed to the two-expert backward DP


def two_expert_table_bytes(n: int) -> int:
    """Bytes of the triangular value table for horizon n, computed from its
    layout: float64 values for stages 0..n, two bool arrays for 0..n-1."""
    return 8 * (n + 1) ** 2 + 2 * n**2


WORKLOADS = {
    w.name: w
    for w in (
        # The short-horizon calls (exhaustive offline search, clairvoyant
        # Monte Carlo) ride with the sweep instead of forming a third
        # workload: with two workloads each run can measure for longer within
        # the benchmark's time budget, which is what keeps run-to-run spread
        # inside the bounds on a noisy shared machine.
        Workload(
            "sweep",
            (Call("sweep.csv", ("compare", "--N", ",".join(str(n) for n in range(100, 2001, 100)),
                                "--mu", "0.3,0.5,0.7")),
             Call("short_compare.csv", ("compare", "--N", "14,16,18", "--mu", "0.5",
                                        "--offline_opt_max_n", "18")),
             Call("short_multi.csv", ("multi-expert", "--trials", "1000"),
                  ("v_k_clairvoyant", "v_k_clairvoyant_stderr"), _clairvoyant_above_exact)),
            2000,
        ),
        Workload(
            "long",
            (Call("long.csv", ("solve-online", "--N", "8000", "--mu", "0.5", "--trials", "2000"),
                  ("sim_mean", "sim_stderr"), _sim_near_online),),
            8000,
        ),
    )
}


def argvs(workload: Workload, seed: int, out_dir: Path) -> list[list[str]]:
    return [[*c.argv, "--seed", str(seed), "--out", str(out_dir / c.out)]
            for c in workload.calls]


def read_table(path: Path) -> Table:
    with open(path, newline="") as fh:
        rows = [row for row in csv.reader(line for line in fh if not line.startswith("#"))]
    return rows[0], rows[1:]


def reference_columns(workload: Workload, out_dir: Path) -> dict[str, dict[str, list[str]]]:
    """The deterministic columns of a workload's CSVs, as written."""
    ref = {}
    for c in workload.calls:
        header, rows = read_table(out_dir / c.out)
        ref[c.out] = {name: [row[i] for row in rows]
                      for i, name in enumerate(header) if name not in c.seeded}
    return ref


def _same_cell(got: str, want: str) -> bool:
    if got == want:
        return True
    got_parts, want_parts = got.split(";"), want.split(";")
    if len(got_parts) != len(want_parts):
        return False
    try:
        return all(math.isclose(float(g), float(w), rel_tol=REL_TOL, abs_tol=0.0)
                   for g, w in zip(got_parts, want_parts))
    except ValueError:
        return False


def check(workload: Workload, out_dir: Path, reference: dict) -> list[str]:
    """Problems found in one iteration's CSVs; an empty list means correct."""
    problems = []
    for c in workload.calls:
        path = out_dir / c.out
        if not path.is_file():
            problems.append(f"{c.out}: not written")
            continue
        table = read_table(path)
        header, rows = table
        want = reference[workload.name][c.out]
        expected_header = [name for name in header if name not in c.seeded]
        if expected_header != list(want):
            problems.append(f"{c.out}: columns {header} do not match the reference")
            continue
        for i, name in enumerate(header):
            if name in c.seeded:
                continue
            got = [row[i] for row in rows]
            if len(got) != len(want[name]):
                problems.append(f"{c.out}: {len(got)} rows, reference has {len(want[name])}")
                break
            bad = [r for r, (g, w) in enumerate(zip(got, want[name])) if not _same_cell(g, w)]
            if bad:
                r = bad[0]
                problems.append(f"{c.out}: column {name} row {r}: {got[r]!r} != reference "
                                f"{want[name][r]!r} ({len(bad)} cells differ)")
        if c.seeded_check is not None:
            problems += [f"{c.out}: {p}" for p in c.seeded_check(table)]
    return problems
