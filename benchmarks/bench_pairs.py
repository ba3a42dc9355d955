"""Run alternating parent/change pairs of one perfbench workload.

For each seed in ``A-B``, ``perfbench/run.py --workload W --seed SEED
--seconds S`` runs once from each checkout root, each in its own process, and
which side runs first alternates with the seed: the parent on even seeds, the
change on odd ones.  Each run appends one JSON line to ``--out``:

    {"workload", "seed", "side", "ran" ("first" or "second"), "trace": 0,
     "seconds", "lane", "correct", "attempted", "failed",
     "metrics": {"setup_s", "p50_ms", "cold_ms", "peak_rss_mb"}}

``correct``, ``attempted``, ``failed`` and the metrics come from perfbench's
last stdout line, the only one read; ``lane`` is the side's
``ksaqa.kernels.active_backend()``.  The script edits nothing under either
checkout's ``perfbench/``.  A run that exits nonzero stops the script, exit
1, with perfbench's stderr.  Read the file with ``bench_summary.py``:

    python3 benchmarks/bench_pairs.py ../parent . --workload pipeline-desk \\
        --seeds 61-70 --seconds 50 --out BENCH_29.json
    python3 benchmarks/bench_summary.py BENCH_29.json
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path


def lane(root: Path) -> str:
    """The kernel lane of the ``ksaqa`` sources under ``root``."""
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    code = "from ksaqa.kernels import active_backend; print(active_backend())"
    return subprocess.run([sys.executable, "-c", code], cwd=root, env=env, check=True,
                          capture_output=True, text=True).stdout.strip()


def run(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """perfbench's last stdout line for one untraced run from ``root``."""
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds)],
                          cwd=root, capture_output=True, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"bench_pairs: {root} exited {done.returncode} on seed {seed}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path, help="the parent checkout's root")
    ap.add_argument("change", type=Path, help="the change checkout's root")
    ap.add_argument("--workload", required=True, choices=("ask-paper", "pipeline-desk"))
    ap.add_argument("--seeds", required=True, help="an inclusive range, A-B")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--out", type=Path, required=True, help="the BENCH file to append to")
    args = ap.parse_args(argv)
    lo, hi = (int(part) for part in args.seeds.split("-"))
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    lanes = {side: lane(root) for side, root in roots.items()}
    for seed in range(lo, hi + 1):
        order = ("parent", "change") if seed % 2 == 0 else ("change", "parent")
        for ran, side in zip(("first", "second"), order):
            last = run(roots[side], args.workload, seed, args.seconds)
            row = {"workload": args.workload, "seed": seed, "side": side, "ran": ran,
                   "trace": 0, "seconds": args.seconds, "lane": lanes[side],
                   "correct": last["correct"], "attempted": last["attempted"],
                   "failed": last["failed"],
                   "metrics": {k: m["value"] for k, m in last["metrics"].items()}}
            with args.out.open("a", encoding="utf-8") as out:
                out.write(json.dumps(row) + "\n")
            print(f"{args.workload} seed {seed} {side} ({ran}): {row['metrics']}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
