"""Kernel section: µs per call of each ``ksaqa.kernels`` kernel.

The kernel cases are those of ``benchmarks/bench_kernels.py`` (imported from
the checkout, so there is one copy of them): its ``small`` shapes are near
the desk dims of pipeline-desk, its ``full`` shapes are the paper dims of
ask-paper and of paper-dims training.  Each case is timed in every lane that
can run here: numpy always, numba when it is importable, and then the two
lanes must agree, by the script's own check, before anything is reported.  Every traced
run (``--trace 1``) prints this section, with BLAS pinned as for the
workloads.
"""

from __future__ import annotations

import importlib.util
import statistics
import time
from pathlib import Path

SCALES = ("small", "full")


def _bench_kernels():
    path = Path.cwd() / "benchmarks" / "bench_kernels.py"
    spec = importlib.util.spec_from_file_location("bench_kernels", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _median_us(fn, budget_s: float) -> tuple[float, int]:
    fn()  # warm-up: JIT compile or cache load
    times = []
    stop = time.perf_counter() + budget_s
    while len(times) < 5 or (time.perf_counter() < stop and len(times) < 2000):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e6, len(times)


def run(budget_s: float = 0.05) -> dict:
    """{lane: {scale: {kernel: µs per call}}}, plus the lane check result."""
    from ksaqa import kernels

    cases = _bench_kernels().build_benchmarks
    lanes = ["numpy"] + (["numba"] if kernels.HAVE_NUMBA else [])
    previous = kernels.active_backend()
    report = {"lanes": lanes, "lanes_agree": None, "us_per_call": {}, "calls": {}}
    try:
        for scale in SCALES:
            outputs, checks = {}, {}
            for lane in lanes:
                kernels.set_backend(lane)
                for name, fn, check in cases(scale):
                    outputs.setdefault(name, {})[lane] = fn()
                    checks[name] = check
                    us, n = _median_us(fn, budget_s)
                    report["us_per_call"].setdefault(lane, {}).setdefault(scale, {})[name] = us
                    report["calls"].setdefault(lane, {}).setdefault(scale, {})[name] = n
            if len(lanes) == 2:
                for name, outs in outputs.items():
                    if not checks[name](outs["numpy"], outs["numba"]):
                        raise AssertionError(f"{name} at {scale} shapes: lanes disagree")
                report["lanes_agree"] = True
    finally:
        kernels.set_backend(previous)
    return report


def table(report: dict) -> str:
    lines = [f"{'kernel':<14} {'lane':<6} {'small us':>12} {'full us':>12}"]
    for lane, by_scale in report["us_per_call"].items():
        for name in by_scale["small"]:
            lines.append(f"{name:<14} {lane:<6} {by_scale['small'][name]:>12.1f} "
                         f"{by_scale['full'][name]:>12.1f}")
    if report["lanes_agree"] is None:
        lines.append("numba is not importable: numpy lane only, no lane agreement check")
    return "\n".join(lines)
