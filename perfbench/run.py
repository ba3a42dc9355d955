"""ksaqa benchmark: one seeded workload, measured end to end or traced.

Run from the root of a checkout (it imports ``ksaqa`` from ``./src``):

    python3 perfbench/run.py --workload ask-paper --seed 1 --seconds 50 --trace 0

Workloads: ask-paper, pipeline-desk (see workloads.py).  With
``--trace 0`` the last line of stdout is a JSON object holding the
end-to-end metrics; with ``--trace 1`` the workload runs with spans recorded
around the public functions of every ksaqa module, and the JSON holds the
per-layer metrics (see layers.py), written out with the spans under
``perfbench/out/``.  Lines before the JSON are a human-readable report:
every figure by name and unit, the input shape and the environment (lane,
BLAS threads, source digest, nproc, numpy and Python versions).

The run exits 2, printing no result, when ``./src/ksaqa`` is missing.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

# One BLAS thread, pinned before numpy is imported anywhere in this process.
# Two threads were faster on paper-dims scoring on a 2-vCPU host, but each
# BLAS call then waits on both cores, and run-to-run spread there doubled.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

HERE = Path(__file__).resolve().parent
SRC = Path.cwd() / "src"


def _import_program():
    """Import ksaqa from this checkout's src/, or exit 2."""
    if not (SRC / "ksaqa" / "__init__.py").is_file():
        print(f"perfbench: no ksaqa sources under {SRC}; run from a checkout root",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import ksaqa
    if Path(ksaqa.__file__).resolve().parent != (SRC / "ksaqa").resolve():
        print(f"perfbench: imported ksaqa from {ksaqa.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("ask-paper", "pipeline-desk"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny runs every workload on a toy world (self-test only)")
    args = ap.parse_args(argv)
    _import_program()

    import measure
    result = measure.run(args.workload, args.seed, args.seconds, bool(args.trace),
                         args.size, HERE / "out")
    for line in measure.report_lines(result):
        print(line)
    print(measure.result_json(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
