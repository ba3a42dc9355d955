"""Set up, measure, trace and report one workload run."""

from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import time
from pathlib import Path

import numpy as np

import kernel_section
import layers
import spans
from workloads import WORKLOADS

# requests at the start of the traced loop over which computed counts are
# taken: one block of the ask question mix, one pass
COUNT_WINDOW = {"ask-paper": 100, "pipeline-desk": 1}
E2E_UNITS = {"setup_s": "s", "p50_ms": "ms", "cold_ms": "ms", "peak_rss_mb": "MB"}


def environment() -> dict:
    from ksaqa import kernels

    src = Path.cwd() / "src" / "ksaqa"
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return {"lane": kernels.active_backend(),
            "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
            "nproc": os.cpu_count(), "numpy": np.__version__,
            "python": platform.python_version(), "git_sha": _git_sha(),
            "src_sha256": digest.hexdigest()}


def _git_sha() -> str:
    head = Path(".git/HEAD")
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = Path(".git") / ref[5:]
        return ref_file.read_text().strip() if ref_file.is_file() else "unknown"
    return ref


def run(workload: str, seed: int, seconds: float, trace: bool, size: str,
        out_dir: Path) -> dict:
    out_dir.mkdir(parents=True, exist_ok=True)
    work = out_dir / f"work-{workload}-{os.getpid()}"
    cls = WORKLOADS[workload]
    wl = tracer = None
    try:
        setup = []
        for _ in range(cls.setup_repeats):
            # each set-up builds a fresh instance after the previous one is
            # freed, so that peak RSS holds one set-up's inputs and model
            wl = None
            gc.collect()
            wl = cls(seed, work, size)
            t0 = time.perf_counter()
            wl.setup()
            setup.append(time.perf_counter() - t0)

        for _ in range(wl.warmup_requests):
            wl.request(0)
        deadline = time.perf_counter() + seconds
        calibration = []
        if trace:
            # untraced requests first; the traced loop then repeats them, and
            # the ratio of the two medians is the tracing overhead
            for i in range(wl.calibration_requests):
                t0 = time.perf_counter()
                wl.request(i)
                calibration.append(time.perf_counter() - t0)
            tracer = spans.Tracer(count_window=COUNT_WINDOW[workload])
            tracer.install(layers.hooks())

        # cold queries are due at even steps through the window and run
        # between requests once due, so that they see the host over the same
        # span as the warm requests do, not only in the seconds after them
        cold_due = [seconds * (k + 1) / (wl.cold_repeats + 1) for k in range(wl.cold_repeats)]
        latencies, cold, i = [], [], 0
        loop_start = time.perf_counter()
        while True:
            if tracer:
                tracer.request = i
            t0 = time.perf_counter()
            wl.request(i)
            t1 = time.perf_counter()
            latencies.append(t1 - t0)
            i += 1
            if t1 >= deadline:
                break
            if tracer:
                tracer.request = -2
            while (len(cold) < wl.cold_repeats and t1 - loop_start >= cold_due[len(cold)]
                   and wl.cold_ready()):
                cold.append(wl.cold(len(cold)))
        if tracer:
            tracer.request = -2
        wl.after_loop(i)
        cold += [wl.cold(k) for k in range(len(cold), wl.cold_repeats)]
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)

    result = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace, "size": size,
        "attempted": wl.attempted, "failed": wl.failed, "problems": wl.problems,
        "requests": len(latencies), "p50_means": wl.p50_means, "setup_runs": setup,
        "cold_runs": cold, "latencies": latencies,
        "e2e": {
            "setup_s": statistics.median(setup),
            "p50_ms": wl.p50_ms(latencies),
            "cold_ms": statistics.median(cold) * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        },
        "figures": {**wl.notes(latencies, cold),
                    "error_rate": (wl.failed / max(wl.attempted, 1), "ratio")},
        "shape": wl.shape(),
        "env": environment(),
    }
    if tracer:
        n_cal = len(calibration)
        overhead = (statistics.median(latencies[:n_cal]) / statistics.median(calibration)
                    - 1.0) * 100.0
        result["per_layer"] = layers.derive(tracer, len(latencies), overhead,
                                            result["figures"])
        result["self_s"] = spans.self_times([s for s in tracer.spans if s[5] >= 0])
        result["kernels"] = kernel_section.run()
        path = out_dir / f"trace-{workload}-seed{seed}.jsonl"
        spans.write(path, tracer, {**{k: v for k, v in result.items() if k != "problems"},
                                   "computed": list(layers.COMPUTED)})
        result["trace_file"] = str(path)
    return result


def report_lines(r: dict) -> list[str]:
    lines = [f"# perfbench {r['workload']} seed={r['seed']} seconds={r['seconds']} "
             f"trace={int(r['trace'])} size={r['size']}",
             "env " + json.dumps(r["env"], sort_keys=True),
             "shape " + json.dumps(r["shape"], sort_keys=True),
             f"end to end ({r['requests']} requests, closed loop, one client"
             f"{', traced' if r['trace'] else ''}):"]
    for name, value in r["e2e"].items():
        lines.append(f"  {name:<28} {value:>14.4f} {E2E_UNITS[name]}")
    lines.append(f"  p50_ms is {r['p50_means']}")
    lines.append(f"  setup_s is the median of {len(r['setup_runs'])} set-ups (s): "
                 + " ".join(f"{t:.3f}" for t in r["setup_runs"]))
    lines.append(f"  cold_ms is the median of {len(r['cold_runs'])} cold predicts (ms): "
                 + " ".join(f"{t * 1e3:.1f}" for t in r["cold_runs"]))
    quart = np.percentile(np.array(r["latencies"]) * 1e3, [0, 25, 50, 75, 100])
    lines.append("  request ms min/q1/median/q3/max: " + " ".join(f"{q:.1f}" for q in quart))
    lines.append("workload figures:")
    for name, (value, unit) in r["figures"].items():
        lines.append(f"  {name:<28} {value:>14.4f} {unit}")
    lines.append(f"checks: {r['attempted']} attempted, {r['failed']} failed")
    lines.extend(f"  FAILED {p}" for p in r["problems"])
    if "per_layer" in r:
        units = layers.metric_units()
        lines.append("per layer (traced; [computed] marks counts, not timings):")
        for name, value in r["per_layer"].items():
            mark = " [computed]" if name in layers.COMPUTED else ""
            lines.append(f"  {name:<44} {value:>16.4f} {units[name]}{mark}")
        lines.append("self time per layer (s, traced loop):")
        for layer, sec in sorted(r["self_s"].items(), key=lambda kv: -kv[1]):
            lines.append(f"  {layer:<12} {sec:>10.4f}")
        lines.append(f"kernel section (lane {r['env']['lane']}, µs per call, median):")
        lines.extend("  " + ln for ln in kernel_section.table(r["kernels"]).splitlines())
        lines.append(f"spans written to {r['trace_file']}")
    return lines


def result_json(r: dict) -> str:
    if "per_layer" in r:
        units = layers.metric_units()
        metrics = {k: {"value": v, "unit": units[k]} for k, v in r["per_layer"].items()}
    else:
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in r["e2e"].items()}
    return json.dumps({"correct": r["failed"] == 0, "attempted": r["attempted"],
                       "failed": r["failed"], "metrics": metrics})
