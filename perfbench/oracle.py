"""Independent reference for KSA-BiGRU scores.

A plain-numpy forward pass written from the model's definition (two-layer
BiGRU over the question, GRU over the subject's relation list, additive
attention, one decoder GRU step, sigmoid over the output affine).  It uses
neither the autodiff engine nor the kernels package, so an optimised
``score_pairs`` is checked against arithmetic it does not share.  Candidate
pairs come from the generated world, not from ``kb.py``.
"""

from __future__ import annotations

import numpy as np


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def _gru(x, h0, wx, wh, b):
    """All hidden states [m, H] for the packed [z|r|n] cell."""
    h = h0.shape[0]
    xw = x @ wx
    state = h0
    out = np.empty((x.shape[0], h))
    for t in range(x.shape[0]):
        hw = state @ wh
        z = _sigmoid(xw[t, :h] + hw[:h] + b[:h])
        r = _sigmoid(xw[t, h:2 * h] + hw[h:2 * h] + b[h:2 * h])
        n = np.tanh(xw[t, 2 * h:] + r * hw[2 * h:] + b[2 * h:])
        state = z * state + (1.0 - z) * n
        out[t] = state
    return out


def _bigru(p, fwd, bwd, x):
    zero = np.zeros(p[fwd + ".wh"].shape[0])
    f = _gru(x, zero, p[fwd + ".wx"], p[fwd + ".wh"], p[fwd + ".b"])
    b = _gru(x[::-1], zero, p[bwd + ".wx"], p[bwd + ".wh"], p[bwd + ".b"])[::-1]
    return np.concatenate([f, b], axis=1), np.concatenate([f[-1], b[0]])


def reference_scores(params: dict, token_ids, relation_rows: dict,
                     rel_of: dict, candidates) -> dict:
    """{(s, r): probability} for every s in ``candidates`` and r in R(s).

    ``params`` maps parameter names to arrays, ``token_ids`` is the encoded
    formatted question, ``relation_rows`` maps relation text to its row of
    the relation table and ``rel_of`` gives R(s) in canonical order.
    """
    p = params
    n_rel = len(relation_rows)
    x = p["ksa.word_emb"][np.asarray(token_ids)]
    hs0, _ = _bigru(p, "ksa.q0f", "ksa.q0b", x)
    hs, _ = _bigru(p, "ksa.q1f", "ksa.q1b", hs0)
    zero = np.zeros(p["ksa.subgraph.wh"].shape[0])
    out = {}
    for s in sorted(candidates):
        rels = rel_of.get(s, [])
        if not rels:
            continue
        rows = np.array([relation_rows[r] for r in rels])
        u_ks = _gru(p["ksa.rel_emb"][rows], zero, p["ksa.subgraph.wx"],
                    p["ksa.subgraph.wh"], p["ksa.subgraph.b"])[-1]
        hu = np.concatenate([hs, np.tile(u_ks, (hs.shape[0], 1))], axis=1)
        e = np.tanh(hu @ p["ksa.att.w"] + p["ksa.att.b"]) @ p["ksa.att.v"]
        alpha = np.exp(e - e.max())
        alpha /= alpha.sum()
        enc = np.concatenate([alpha @ hs, u_ks]) @ p["ksa.proj.w"] + p["ksa.proj.b"]
        start = p["ksa.rel_emb"][n_rel][None, :]
        h1 = _gru(start, enc, p["ksa.decoder.wx"], p["ksa.decoder.wh"], p["ksa.decoder.b"])[0]
        probs = _sigmoid(h1 @ p["ksa.out.w"] + p["ksa.out.b"])
        for r, row in zip(rels, rows):
            out[(s, r)] = float(probs[row])
    return out
