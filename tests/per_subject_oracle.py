"""The per-subject encoder/decoder pass, kept as the reference for the batched one.

This is how ``KsaModel`` scored and trained before candidates were batched:
one full pass per (question, subject) -- question BiGRU, u_KS, attention over
``concat(h_j, u_KS)`` rows, projection, one decoder step from a [H] state and
the full-width output affine -- with the scored rows read out of all the
logits.  It is built from autodiff ops, so its gradients can be compared
with the batched path's as well as its values.
"""

from __future__ import annotations

import numpy as np

from ksaqa import autodiff as ad
from ksaqa import nn
from ksaqa.model import InterpretationScore


def attend(model, hs, u_ks):
    """(p [2H], alpha [m]) for one subject state u_ks [H]."""
    m = hs.data.shape[0]
    hu = ad.concat([hs, ad.tile_rows(u_ks, m)], axis=1)
    scores = ad.matmul(ad.tanh(ad.add(ad.matmul(hu, model.attention["w"]),
                                      model.attention["b"])),
                       model.attention["v"])
    alpha = ad.softmax(scores)
    return ad.matmul(alpha, hs), alpha


def encoder_output(model, tokens, rel_rows, rng=None):
    """(state [H], alpha [m] or None) for one subject."""
    hs, u_q = model.encode_question(tokens, rng)
    variant = model.config.variant
    if variant == "BiGRU":
        return nn.linear(model.proj, u_q), None
    u_ks = model.encode_subgraph(rel_rows, rng)
    if variant == "KS-BiGRU":
        return nn.linear(model.proj, ad.concat([u_q, u_ks], axis=0)), None
    p, alpha = attend(model, hs, u_ks)
    return nn.linear(model.proj, ad.concat([p, u_ks], axis=0)), alpha


def decode_logits(model, enc):
    """All |relations| logits from one encoder state [H]."""
    start = model.rel_emb[len(model.relations)]
    states = ad.gru_sequence(ad.tile_rows(start, 1), enc, model.decoder["wx"],
                             model.decoder["wh"], model.decoder["b"])
    return nn.linear(model.out, states[0])


def score_pairs(model, tokens, candidates, kb):
    results = []
    for s in sorted(set(candidates)):
        rows = model.subject_rows(kb, s)
        if rows.size == 0:
            continue
        enc, _ = encoder_output(model, tokens, rows)
        probs = ad.sigmoid(decode_logits(model, enc)).data
        for row in rows:
            results.append(InterpretationScore(
                pair=(s, model.relations[row]), probability=float(probs[row])))
    results.sort(key=lambda r: (-r.probability, r.pair))
    return results


def loss(model, batch, rng=None):
    total = None
    for tokens, rel_rows, scored_rows, labels in batch:
        enc, _ = encoder_output(model, tokens, rel_rows, rng)
        picked = decode_logits(model, enc)[np.asarray(scored_rows, dtype=np.int64)]
        term = ad.bce_with_logits_sum(picked, labels)
        total = term if total is None else ad.add(total, term)
    return total
