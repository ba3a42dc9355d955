"""Time ``KsaModel.encoder_output`` with the subgraph GRU inline and offloaded.

For each WIDTH given, a fresh KSA-BiGRU is built at the paper's dims scaled
to d_hidden WIDTH: d_rel WIDTH, d_word 5/3 and attention 13/6 of it, so
that 300 is the paper (d_word 500, d_rel 300, attention 650) and 32 is close
to the pipeline-desk dims (64, 32, 48).  It encodes QUESTIONS questions of
perfbench's ask-paper world for SEED (``generate(SEED, PAPER)``), each with
all its candidate subjects, as ``score_pairs`` runs them.  Every question is
encoded on both schedules in turn, ROUNDS times, with
``model.PARALLEL_WIDTH`` set so that the subgraph GRU runs on the caller's
thread (inline) or on the worker thread (offloaded).  The table gives the
median time of each schedule in ms and their ratio, offloaded / inline; a
ratio under 1 means the offload pays.  This is the evidence for the value of
``model.PARALLEL_WIDTH``.

The offload needs a second CPU; on one the script exits 2.  Run from a
checkout root, with BLAS on one thread as perfbench pins it:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 benchmarks/bench_branches.py 32 64 96 128 192 300
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
SEED = 1
QUESTIONS = 100
ROUNDS = 3


def dims(width: int) -> dict[str, int]:
    return dict(d_word=5 * width // 3, d_rel=width, d_hidden=width,
                attention_hidden=13 * width // 6)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("widths", type=int, nargs="+", metavar="WIDTH")
    args = parser.parse_args()
    sys.path.append(str(HERE.parent / "perfbench"))

    import world as W
    from ksaqa import model as model_mod
    from ksaqa.dataset import build_vocabulary, find_span, span_to_formatted
    from ksaqa.kb import ingest_triples, tokenize
    from ksaqa.model import KsaModel, ModelConfig

    if model_mod._cpus() < 2:
        print("bench_branches: this process may run on one CPU only, so nothing "
              "is offloaded", file=sys.stderr)
        return 2
    world = W.generate(SEED, W.PAPER)
    kb = ingest_triples(world.triple_lines())
    vocab = build_vocabulary([world.vocabulary])
    queries = []
    for q in W.make_questions(world, SEED, QUESTIONS, stream=0):
        tokens = tokenize(q.text)
        fq = span_to_formatted(tokens, find_span(tokens, tokenize(q.mention)))
        queries.append((fq.tokens, world.candidates(q.mention)))

    schedules = {"inline": sys.maxsize, "offloaded": 0}
    print(f"# encoder_output, seed {SEED}, {QUESTIONS} questions x {ROUNDS} rounds, "
          f"median ms")
    print(f"{'width':>5s} {'inline':>9s} {'offloaded':>9s} {'ratio':>6s}")
    for width in args.widths:
        model = KsaModel(vocab, kb.relations, ModelConfig(seed=SEED, **dims(width)))
        passes = []
        for tokens, candidates in queries:
            rows = [r for r in (model.subject_rows(kb, s) for s in candidates) if r.size]
            passes.append(([tokens], rows, np.zeros(len(rows), dtype=np.int64)))
        times = {name: [] for name in schedules}
        for round_ in range(ROUNDS + 1):    # the first round warms up
            for questions, rows, question_of in passes:
                for name, limit in schedules.items():
                    model_mod.PARALLEL_WIDTH = limit
                    t0 = time.perf_counter()
                    model.encoder_output(questions, rows, question_of=question_of)
                    if round_:
                        times[name].append(time.perf_counter() - t0)
        inline, offloaded = (statistics.median(times[name]) * 1e3 for name in schedules)
        print(f"{width:5d} {inline:9.3f} {offloaded:9.3f} {offloaded / inline:6.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
