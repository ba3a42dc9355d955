"""The scalar CRF loops that ``ksaqa.kernels.crf`` replaced.

One label pair at a time, as written for the deleted numba lane:
forward pass, backward pass with pairwise sums, and Viterbi with strict
``>`` scans (lowest label wins every tie).  The array kernels must give the
same logZ, alpha and expectations to 1e-10 and the same Viterbi path.

``emissions_alone`` and ``decode_alone`` are the tagger's one-sentence path
that its length-masked batch path replaced: an unpadded BiGRU over one
sentence, then this module's Viterbi loop.
"""

import numpy as np

from ksaqa import autodiff as ad
from ksaqa import nn


def crf_logz(emis, trans, start, stop):
    """Forward algorithm; returns (logZ, alpha [m, K])."""
    m, k = emis.shape
    alpha = np.empty((m, k))
    alpha[0] = start + emis[0]
    for t in range(1, m):
        for j in range(k):
            mx = -np.inf
            for i in range(k):
                v = alpha[t - 1, i] + trans[i, j]
                if v > mx:
                    mx = v
            s = 0.0
            for i in range(k):
                s += np.exp(alpha[t - 1, i] + trans[i, j] - mx)
            alpha[t, j] = emis[t, j] + mx + np.log(s)
    final = alpha[m - 1] + stop
    mx = final[0]
    for j in range(1, k):
        if final[j] > mx:
            mx = final[j]
    s = 0.0
    for j in range(k):
        s += np.exp(final[j] - mx)
    return mx + np.log(s), alpha


def crf_marginals(emis, trans, start, stop, alpha, logz):
    """Posterior expectations = gradients of logZ w.r.t. each score table.

    Returns (unary [m, K], dtrans [K, K], dstart [K], dstop [K]) where
    unary[t, j] = P(y_t = j) and dtrans[i, j] = sum_t P(y_{t-1}=i, y_t=j).
    """
    m, k = emis.shape
    beta = np.empty((m, k))
    beta[m - 1] = stop
    for t in range(m - 2, -1, -1):
        for i in range(k):
            mx = -np.inf
            for j in range(k):
                v = trans[i, j] + emis[t + 1, j] + beta[t + 1, j]
                if v > mx:
                    mx = v
            s = 0.0
            for j in range(k):
                s += np.exp(trans[i, j] + emis[t + 1, j] + beta[t + 1, j] - mx)
            beta[t, i] = mx + np.log(s)
    unary = np.exp(alpha + beta - logz)
    dtrans = np.zeros((k, k))
    for t in range(m - 1):
        for i in range(k):
            for j in range(k):
                dtrans[i, j] += np.exp(
                    alpha[t, i] + trans[i, j] + emis[t + 1, j] + beta[t + 1, j] - logz
                )
    dstart = unary[0].copy()
    dstop = unary[m - 1].copy()
    return unary, dtrans, dstart, dstop


def crf_viterbi(emis, trans, start, stop):
    """Max-scoring tag sequence (ties: lowest label, then lowest backpointer)."""
    m, k = emis.shape
    score = start + emis[0]
    back = np.empty((m, k), dtype=np.int64)
    for t in range(1, m):
        new = np.empty(k)
        for j in range(k):
            best = -np.inf
            arg = 0
            for i in range(k):
                v = score[i] + trans[i, j]
                if v > best:
                    best = v
                    arg = i
            new[j] = best + emis[t, j]
            back[t, j] = arg
        score = new
    best = -np.inf
    arg = 0
    for j in range(k):
        v = score[j] + stop[j]
        if v > best:
            best = v
            arg = j
    tags = np.empty(m, dtype=np.int64)
    tags[m - 1] = arg
    for t in range(m - 1, 0, -1):
        tags[t - 1] = back[t, tags[t]]
    return tags


def emissions_alone(model, tokens):
    """Emission scores [m, K] of one sentence from an unpadded BiGRU pass."""
    x = ad.embedding_lookup(model.word_emb, model.vocab.encode(tokens))
    return nn.linear(model.emit, nn.bigru(model.fwd, model.bwd, x))


def decode_alone(model, tokens):
    """Viterbi tags of one sentence: its unpadded emissions, the scalar loop."""
    return crf_viterbi(emissions_alone(model, tokens).data, model.trans.data,
                       model.start.data, model.stop.data)
