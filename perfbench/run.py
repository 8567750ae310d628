"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload f3-n128 --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.  The library
is imported from ``src/`` next to this directory; without it the run exits
with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (SRC / "ffq" / "__init__.py").is_file():
        print(f"no ffq sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(Path(__file__).resolve().parent)]
    import harness

    if not Path(harness.ffq.__file__).resolve().is_relative_to(SRC):
        print(f"ffq was imported from {harness.ffq.__file__}, not {SRC}", file=sys.stderr)
        return 2
    workload = harness.WORKLOADS.get(args.workload)
    if workload is None:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(harness.WORKLOADS)}")
    result = harness.run(workload, args.seed, args.seconds, bool(args.trace))
    harness.emit(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
