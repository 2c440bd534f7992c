"""Regenerate reference.json: the deterministic CSV columns of every workload.

Run from the root of the repository, at a commit whose numbers are trusted:

    python3 perfbench/make_reference.py

The Monte Carlo columns are left out; the gate tests those statistically.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path("src").resolve()))

import mwadversary.cli as cli  # noqa: E402
from workloads import WORKLOADS, argvs, reference_columns  # noqa: E402

SEED = 1729


def main() -> None:
    reference = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, workload in WORKLOADS.items():
            for argv in argvs(workload, SEED, Path(tmp)):
                with contextlib.redirect_stdout(io.StringIO()):
                    if cli.main(argv):
                        raise SystemExit(f"{name}: {argv[0]} failed")
            reference[name] = reference_columns(workload, Path(tmp))
    path = Path(__file__).with_name("reference.json")
    path.write_text(json.dumps(reference, indent=1) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
