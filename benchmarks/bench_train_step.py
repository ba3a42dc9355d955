"""Time full training steps of the relation predictor or of the tagger.

``paper`` and ``desk`` time the predictor on a 64-item batch: a seeded
synthetic batch (questions of 4-15 tokens, subjects with 3-14 relations, one
positive and five negatives scored per item) goes through ``KsaModel.loss``
with a training ``Rng``, ``backward`` and ``opt.step()`` of a real ``Adam``,
in-process, a few times.  ``paper`` is the paper dims (d_word 500, d_rel 300,
d_hidden 300, attention 650, 6,700 relations), ``desk`` the pipeline-desk
dims.  ``tagger`` times the tagger's one-sentence step at the pipeline-desk
tagger dims (d_word 64, hidden 32): the negated ``log_likelihood`` of a
seeded sentence of 4-15 tokens and its gold span, ``backward`` and
``opt.step()``, one sentence per step as ``train_tagger`` runs them.

The full step times and their median are printed, then the median of each
part (loss + backward, Adam), with the last loss and its tape size.  Each
step drops its loss before the next, as the trainers do.  One more step,
untimed, runs under ``tracemalloc``: its peak traced memory is what the
step allocates on top of the model and Adam's arena (the graph, its
gradients and the kernels' stashes).  Run from a checkout root, with BLAS on
one thread as perfbench pins it:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 benchmarks/bench_train_step.py paper 3
    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 benchmarks/bench_train_step.py tagger 300
"""

from __future__ import annotations

import statistics
import sys
import time
import tracemalloc

import numpy as np

from ksaqa import autodiff as ad
from ksaqa.autodiff import Rng, Tape
from ksaqa.dataset import build_vocabulary
from ksaqa.model import KsaModel, ModelConfig
from ksaqa.optim import Adam
from ksaqa.tagger import TaggerConfig, TaggerModel, tags_for_span

SCALES = {
    "paper": (dict(d_word=500, d_rel=300, d_hidden=300, attention_hidden=650), 5000, 6700),
    "desk": (dict(d_word=64, d_rel=32, d_hidden=32, attention_hidden=48), 600, 200),
}
TAGGER_WORDS = 600


def predictor_steps(scale: str):
    """(Adam, loss of step i): the same 64-item batch at every step."""
    dims, n_words, n_rel = SCALES[scale]
    g = np.random.default_rng(0)
    words = [f"w{i}" for i in range(n_words)]
    model = KsaModel(build_vocabulary([words]), [f"r{i}" for i in range(n_rel)],
                     ModelConfig(seed=1, **dims))
    batch = []
    for _ in range(64):
        tokens = [words[int(j)] for j in g.integers(0, n_words, int(g.integers(4, 16)))]
        rel_rows = g.choice(n_rel, int(g.integers(3, 15)), replace=False)
        scored = np.concatenate([rel_rows[:1], g.integers(0, n_rel, 5)]).astype(np.int64)
        batch.append((tokens, rel_rows, scored, np.array([1.0] + [0.0] * 5)))
    return Adam(model.parameters()), lambda i: model.loss(batch, Rng(7))


def tagger_steps(reps: int):
    """(Adam, loss of step i): one seeded sentence and gold span per step."""
    g = np.random.default_rng(0)
    words = [f"w{i}" for i in range(TAGGER_WORDS)]
    model = TaggerModel(build_vocabulary([words]), TaggerConfig(d_word=64, hidden=32, seed=1))
    pairs = []
    for _ in range(reps):
        n = int(g.integers(4, 16))
        lo = int(g.integers(0, n))
        span = (lo, int(g.integers(lo + 1, n + 1)))
        pairs.append(([words[int(j)] for j in g.integers(0, TAGGER_WORDS, n)],
                      tags_for_span(n, span)))
    return (Adam(model.parameters()),
            lambda i: ad.scale(model.log_likelihood(*pairs[i]), -1.0))


def step(opt, loss_of, i: int) -> tuple[float, int]:
    """The loss + backward of step ``i`` as the trainers run it: (loss, tape nodes)."""
    with Tape() as tape:
        loss = loss_of(i)
        opt.zero_grad()
        ad.backward(loss)
        return float(loss.data), len(tape.nodes)


def traced_peak_mb(opt, loss_of, i: int) -> float:
    """Peak memory traced over one full step (tracemalloc slows it: untimed)."""
    tracemalloc.start()
    try:
        step(opt, loss_of, i)
        opt.step()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def main(mode: str, reps: int) -> None:
    opt, loss_of = tagger_steps(reps) if mode == "tagger" else predictor_steps(mode)
    times, backward_s, adam_s = [], [], []
    for i in range(reps):
        t0 = time.perf_counter()
        loss, nodes = step(opt, loss_of, i)
        t1 = time.perf_counter()
        opt.step()
        t2 = time.perf_counter()
        times.append(t2 - t0)
        backward_s.append(t1 - t0)
        adam_s.append(t2 - t1)

    def ms(t):
        return f"{t * 1e3:.2f}"

    # a tagger run takes hundreds of steps: show the first and the last three
    shown = times if reps <= 10 else times[:3] + times[-3:]
    peak = traced_peak_mb(opt, loss_of, reps - 1)
    print(f"{mode}: loss {loss:.6f}, {nodes} tape nodes, step ms "
          + " ".join(map(ms, shown)) + ("" if reps <= 10 else f" (first and last 3 of {reps})")
          + f", median {ms(statistics.median(times))} (loss + backward "
          f"{ms(statistics.median(backward_s))}, adam {ms(statistics.median(adam_s))}), "
          f"traced peak {peak:.1f} MB")


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]))
