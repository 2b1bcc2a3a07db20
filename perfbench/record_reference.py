"""Record the reference outputs the benchmark checks against.

Run from the root of a checkout, only when a change of outputs is intended
and reviewed:

    python3 perfbench/record_reference.py

It writes ``perfbench/reference/``: one CSV per theta_sweep variant (variant
0 must equal the golden sweep file), the full hot_grid table and one row per
optimize case. crosscheck needs no reference; its instances are checked
against each other.
"""
from __future__ import annotations

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"

import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
GOLDEN = ROOT / "tests" / "golden" / "two_mode_base_sweep.csv"


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH))
    import workloads

    workloads.REFERENCE.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        for cls in (workloads.ThetaSweep, workloads.HotGrid, workloads.Optimize):
            cls(0, Path(tmp)).record()
            print(f"recorded {cls.name}")
    variant0 = (workloads.REFERENCE / "theta_sweep_0.csv").read_bytes()
    if variant0 != GOLDEN.read_bytes():
        sys.stderr.write("theta_sweep variant 0 does not match the golden sweep file\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
