"""Kernel benchmark cases: one representative input per ``ksaqa.kernels`` kernel.

``build_benchmarks(scale)`` returns ``(name, fn, check)`` triples: ``fn()``
runs the kernel on seeded inputs, and ``check(out_a, out_b)`` says whether
two outputs agree.  ``adam_update`` carries its state over from call to
call; every other case gives the same output on every call.  The ``small``
shapes are near the desk dims, the ``full`` shapes are the paper dims.
``perfbench/kernel_section.py`` times every case; a traced benchmark run
prints that section:

    python3 perfbench/run.py --workload ask-paper --seed 1 --seconds 50 --trace 1
"""

from __future__ import annotations

import numpy as np

from ksaqa.kernels import adam_ops, crf, gru, transe_ops


def _allclose(a, b):
    fa = a if isinstance(a, (list, tuple)) else (a,)
    fb = b if isinstance(b, (list, tuple)) else (b,)
    return all(np.allclose(x, y, rtol=1e-10, atol=1e-12) for x, y in zip(fa, fb))


def build_benchmarks(scale: str):
    rng = np.random.default_rng(0)
    if scale == "full":
        m, d_in, h = 40, 500, 300
        n_tags, crf_m = 2, 36
        n_params = 2_000_000
        batch, dim, ne = 128, 300, 20_000
    else:
        m, d_in, h = 20, 64, 48
        n_tags, crf_m = 2, 20
        n_params = 200_000
        batch, dim, ne = 64, 50, 2_000

    benches = []

    x = rng.standard_normal((m, d_in))
    h0 = np.zeros(h)
    wx = rng.standard_normal((d_in, 3 * h)) * 0.1
    wh = rng.standard_normal((h, 3 * h)) * 0.1
    b = np.zeros(3 * h)
    benches.append(("gru_forward", lambda: gru.gru_forward(x, h0, wx, wh, b)[0],
                    _allclose))
    hs, zs, rs, ns, hwn = gru.gru_forward(x, h0, wx, wh, b)
    g = rng.standard_normal((m, h))
    benches.append(("gru_backward",
                    lambda: gru.gru_backward(g, x, wx, wh, hs, zs, rs, ns, hwn),
                    _allclose))

    em = rng.standard_normal((crf_m, n_tags))
    tr = rng.standard_normal((n_tags, n_tags))
    st = rng.standard_normal(n_tags)
    en = rng.standard_normal(n_tags)
    benches.append(("crf_logz", lambda: crf.crf_logz(em, tr, st, en)[0],
                    _allclose))
    logz, alpha = crf.crf_logz(em, tr, st, en)
    benches.append(("crf_marginals",
                    lambda: crf.crf_marginals(em, tr, st, en, alpha, logz),
                    _allclose))
    benches.append(("crf_viterbi", lambda: crf.crf_viterbi(em, tr, st, en),
                    lambda a, b2: np.array_equal(a, b2)))

    # working arrays that every call updates in place, as training does: the
    # kernel's cost does not depend on the values, so no call pays for copies
    p = rng.standard_normal(n_params)
    gr = rng.standard_normal(n_params)
    mm = np.zeros(n_params)
    vv = np.zeros(n_params)

    def adam_run():
        adam_ops.adam_update(p, gr, mm, vv, 1, 0.001, 0.9, 0.999, 1e-8)
        return p

    benches.append(("adam_update", adam_run, _allclose))

    ent = rng.standard_normal((ne, dim))
    ent /= np.linalg.norm(ent, axis=1, keepdims=True)
    rel = rng.standard_normal((20, dim))
    hh = rng.integers(0, ne, batch)
    rr = rng.integers(0, 20, batch)
    tt = rng.integers(0, ne, batch)
    nh = hh.copy()
    nt = rng.integers(0, ne, batch)
    valid = np.ones(batch, dtype=np.bool_)

    # one working copy of the tables: a call changes only the rows it touches,
    # and those are put back after it, so no call pays for a whole-table copy
    ent_w, rel_w = ent.copy(), rel.copy()
    touched = np.unique(np.concatenate([hh, tt, nh, nt]))

    def transe_run():
        loss = transe_ops.transe_batch(ent_w, rel_w, hh, rr, tt, nh, nt, valid,
                                       True, 0.01, 1.0)
        out = loss, ent_w[touched], rel_w.copy()
        ent_w[touched] = ent[touched]
        rel_w[...] = rel
        return out

    benches.append(("transe_batch", transe_run, _allclose))
    return benches
