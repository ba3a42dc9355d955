"""Time one full predictor training step on a 64-item batch.

A seeded synthetic batch (questions of 4-15 tokens, subjects with 3-14
relations, one positive and five negatives scored per item) goes through
``KsaModel.loss`` with a training ``Rng``, ``backward`` and ``opt.step()`` of
a real ``Adam``, in-process, a few times.  The full step times and their
median are printed, then the median of each part (loss + backward, Adam),
with the loss and the tape size.  ``paper`` is the paper dims (d_word 500, d_rel 300, d_hidden 300,
attention 650, 6,700 relations), ``desk`` the pipeline-desk dims.  Run from
a checkout root, with BLAS on one thread as perfbench pins it:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 benchmarks/bench_train_step.py paper 3
"""

from __future__ import annotations

import statistics
import sys
import time

import numpy as np

from ksaqa import autodiff as ad
from ksaqa.autodiff import Rng, Tape
from ksaqa.dataset import build_vocabulary
from ksaqa.model import KsaModel, ModelConfig
from ksaqa.optim import Adam

SCALES = {
    "paper": (dict(d_word=500, d_rel=300, d_hidden=300, attention_hidden=650), 5000, 6700),
    "desk": (dict(d_word=64, d_rel=32, d_hidden=32, attention_hidden=48), 600, 200),
}


def main(scale: str, reps: int) -> None:
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
    opt = Adam(model.parameters())
    times, backward_s, adam_s = [], [], []
    for _ in range(reps):
        t0 = time.perf_counter()
        with Tape() as tape:
            loss = model.loss(batch, Rng(7))
            opt.zero_grad()
            ad.backward(loss)
        t1 = time.perf_counter()
        opt.step()
        t2 = time.perf_counter()
        times.append(t2 - t0)
        backward_s.append(t1 - t0)
        adam_s.append(t2 - t1)

    def ms(ts):
        return f"{statistics.median(ts) * 1e3:.0f}"

    print(f"{scale}: loss {float(loss.data):.6f}, {len(tape.nodes)} tape nodes, step ms "
          + " ".join(f"{t * 1e3:.0f}" for t in times)
          + f", median {ms(times)} (loss + backward {ms(backward_s)}, adam {ms(adam_s)})")


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]))
