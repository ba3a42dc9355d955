"""The per-subject encoder/decoder pass, kept as the reference for the batched one.

This is how ``KsaModel`` scored and trained before questions and candidates
were batched: one full pass per (question, subject) -- an unpadded question
BiGRU, u_KS from one GRU run, attention over ``concat(h_j, u_KS)`` rows,
projection, one decoder step from a [H] state and the full-width output
affine -- with the scored rows read out of all the logits.  With an ``rng``
each pass draws its question's dropout mask and then its subject's
permutation.  It is built from autodiff ops, so its gradients can be compared
with the batched path's as well as its values.
"""

from __future__ import annotations

import numpy as np

from ksaqa import autodiff as ad
from ksaqa import nn
from ksaqa.model import InterpretationScore

from extra_ops import dropout, tile_rows


def encode_question(model, tokens, rng=None):
    """(h_1..h_m [m, 2H], u_Q [2H]): the two-layer BiGRU over one question,
    with dropout between the layers when an ``rng`` is given."""
    x = ad.embedding_lookup(model.word_emb, model.vocab.encode(tokens))
    hs0 = dropout(nn.bigru(model.q0f, model.q0b, x), model.config.dropout, rng)
    hs = nn.bigru(model.q1f, model.q1b, hs0)
    h = model.config.d_hidden
    return hs, ad.concat([hs[-1, :h], hs[0, h:]], axis=0)


def encode_subgraph(model, rel_rows, rng=None):
    """u_KS [H]: the final GRU state over one subject's relation rows,
    permuted first when an ``rng`` is given and ``shuffle_augment`` is on."""
    rows = np.asarray(rel_rows, dtype=np.int64)
    if rows.size == 0 or model.subgraph is None:
        return ad.Tensor(np.zeros(model.config.d_hidden))
    if rng is not None and model.config.shuffle_augment and rows.size > 1:
        rows = rows[rng.permutation(rows.size)]
    states = nn.run_gru(model.subgraph, ad.embedding_lookup(model.rel_emb, rows))
    return states[rows.size - 1]


def attend(model, hs, u_ks):
    """(p [2H], alpha [m]) for one subject state u_ks [H]."""
    m = hs.data.shape[0]
    hu = ad.concat([hs, tile_rows(u_ks, m)], axis=1)
    scores = ad.matmul(ad.tanh(ad.add(ad.matmul(hu, model.attention["w"]),
                                      model.attention["b"])),
                       model.attention["v"])
    alpha = ad.softmax(scores)
    return ad.matmul(alpha, hs), alpha


def encoder_output(model, tokens, rel_rows, rng=None):
    """(state [H], alpha [m] or None) for one subject."""
    hs, u_q = encode_question(model, tokens, rng)
    variant = model.config.variant
    if variant == "BiGRU":
        return nn.linear(model.proj, u_q), None
    u_ks = encode_subgraph(model, rel_rows, rng)
    if variant == "KS-BiGRU":
        return nn.linear(model.proj, ad.concat([u_q, u_ks], axis=0)), None
    p, alpha = attend(model, hs, u_ks)
    return nn.linear(model.proj, ad.concat([p, u_ks], axis=0)), alpha


def decode_logits(model, enc):
    """All |relations| logits from one encoder state [H]."""
    start = model.rel_emb[len(model.relations)]
    states = ad.gru_sequence(tile_rows(start, 1), enc, model.decoder["wx"],
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
