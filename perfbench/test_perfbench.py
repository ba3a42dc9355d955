"""Self-test of the benchmark on a toy world.

Run from the repository root:  python3 -m pytest perfbench -q

It checks that every metric named in BENCHMARK.json is emitted with its
unit, that a corrupted score trips the output check, and that the benchmark
refuses to run, printing no result, without the program's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.3", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_every_declared_metric_is_emitted_with_its_unit(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == \
        {name: m["unit"] for name, m in result["metrics"].items()}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_corrupted_score_trips_the_check(tmp_path):
    import workloads

    wl = workloads.AskPaper(3, tmp_path / "work", "tiny")
    wl.setup()
    wl.request(0)
    assert wl.failed == 0
    honest = wl.model.score_pairs

    def corrupted(*args):
        scores = honest(*args)
        scores[0].probability += 1e-6
        return scores

    wl.model.score_pairs = corrupted
    wl.request(len(wl.questions))   # the same question again, now corrupted
    assert wl.failed == 1
    assert "differs from reference" in wl.problems[0]


def test_score_problems_names_each_violation():
    from ksaqa.model import InterpretationScore
    from workloads import score_problems

    good = [InterpretationScore(("s1", "r2"), 0.7), InterpretationScore(("s1", "r1"), 0.2)]
    expected = {("s1", "r1"), ("s1", "r2")}
    assert score_problems(good, expected, {("s1", "r1"): 0.2, ("s1", "r2"): 0.7}) == []
    assert score_problems(good[:1], expected)                         # missing pair
    assert score_problems(good[::-1], expected)                       # unsorted
    assert score_problems([InterpretationScore(("s1", "r2"), 1.0), good[1]], expected)
    assert score_problems(good, expected, {("s1", "r1"): 0.2, ("s1", "r2"): 0.7 + 1e-8})


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("ask-paper", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
