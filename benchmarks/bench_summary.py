"""Summarise a file of alternating parent/change benchmark runs.

``BENCH_<N>.json`` holds one JSON line per run of ``perfbench/run.py``
(workload, seed, side, metrics).  For each workload in the file and each
end-to-end metric that ``BENCHMARK.json`` declares, one line gives:

* the parent's and the change's medians, and their ratio (change / parent);
* the parent's IQR, the distance between its quartiles by
  ``statistics.quantiles(n=4)`` (the exclusive method; numpy's default
  percentile interpolates otherwise and gives other quartiles on ten runs);
* in how many of the seed-paired runs the change reads better, out of all
  pairs, ties counting for neither;
* "unresolved" where the parent's IQR / median exceeds the metric's bound,
  so that its runs spread too widely to tell a change from noise;
* "worse", last, where the change's median is worse than the parent's by
  more than the metric's bound (a share of the parent's median).

The script exits 1 if any line reads "worse", else 0.  ``BENCHMARK.json``
is only read.  Run from anywhere:

    python3 benchmarks/bench_summary.py BENCH_18.json
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
from pathlib import Path

CONTRACT = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def fmt(value: float) -> str:
    """Two decimals, or as many more as two significant digits need."""
    if value == 0 or not math.isfinite(value):
        return f"{value:.2f}"
    return f"{value:.{max(2, 1 - math.floor(math.log10(abs(value))))}f}"


def summarise(rows: list[dict], contract: dict) -> list[str]:
    """One line per workload and end-to-end metric, as the module says."""
    lines = []
    present = {r["workload"] for r in rows}
    for workload in (w["name"] for w in contract["workloads"] if w["name"] in present):
        runs = {(r["side"], r["seed"]): r["metrics"] for r in rows if r["workload"] == workload}
        seeds = sorted(seed for side, seed in runs if side == "parent" and ("change", seed) in runs)
        for metric in contract["end_to_end"]:
            name, better, bound = metric["name"], metric["better"], metric["bound"]
            parent = [m[name] for (side, _), m in runs.items() if side == "parent"]
            change = [m[name] for (side, _), m in runs.items() if side == "change"]
            p_med, c_med = statistics.median(parent), statistics.median(change)
            q1, _, q3 = statistics.quantiles(parent, n=4)
            sign = 1 if better == "lower" else -1
            wins = sum(sign * runs["change", s][name] < sign * runs["parent", s][name]
                       for s in seeds)
            spread = (q3 - q1) / p_med
            worse = sign * (c_med - p_med) > bound * p_med
            lines.append(
                f"{workload:14s} {name:12s} {fmt(p_med)} -> {fmt(c_med)} {metric['unit']}"
                f"  ratio {c_med / p_med:.3f}  parent IQR {fmt(q3 - q1)}"
                f" ({spread:.3f} of median, bound {bound})"
                f"  {better} in {wins} of {len(seeds)} pairs"
                + ("  unresolved" if spread > bound else "")
                + ("  worse" if worse else ""))
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("runs", help="a BENCH_<N>.json file of alternating parent/change runs")
    args = ap.parse_args(argv)
    rows = [json.loads(line) for line in Path(args.runs).read_text().splitlines() if line.strip()]
    contract = json.loads(CONTRACT.read_text())
    lines = summarise(rows, contract)
    print("\n".join(lines))
    return 1 if any(line.endswith("  worse") for line in lines) else 0


if __name__ == "__main__":
    raise SystemExit(main())
