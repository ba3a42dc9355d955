"""Linear-chain CRF kernels: log-partition, marginals, Viterbi.

Scores for a tag sequence y over m tokens with K labels:

    score(y) = start[y_0] + sum_t emis[t, y_t]
             + sum_{t>0} trans[y_{t-1}, y_t] + stop[y_{m-1}]

All sums over paths run in log space, one reduction over the K x K label
pairs per time step.  Viterbi tie rule: ``argmax`` takes the first maximum,
so the lowest label index wins at every step and backpointer.
"""

import numpy as np


def crf_logz(emis, trans, start, stop):
    """Forward algorithm; returns (logZ, alpha [m, K])."""
    alpha = np.empty(emis.shape)
    alpha[0] = start + emis[0]
    for t in range(1, emis.shape[0]):
        alpha[t] = emis[t] + np.logaddexp.reduce(alpha[t - 1][:, None] + trans, axis=0)
    return np.logaddexp.reduce(alpha[-1] + stop), alpha


def crf_marginals(emis, trans, start, stop, alpha, logz):
    """Posterior expectations = gradients of logZ w.r.t. each score table.

    Returns (unary [m, K], dtrans [K, K], dstart [K], dstop [K]) where
    unary[t, j] = P(y_t = j) and dtrans[i, j] = sum_t P(y_{t-1}=i, y_t=j).
    """
    beta = np.empty(emis.shape)
    beta[-1] = stop
    for t in range(emis.shape[0] - 2, -1, -1):
        beta[t] = np.logaddexp.reduce(trans + (emis[t + 1] + beta[t + 1]), axis=1)
    unary = np.exp(alpha + beta - logz)
    # [m-1, K, K]: P(y_{t-1}=i, y_t=j) at every step, summed over t
    pair = alpha[:-1, :, None] + trans + (emis[1:] + beta[1:])[:, None, :]
    dtrans = np.exp(pair - logz).sum(axis=0)
    return unary, dtrans, unary[0].copy(), unary[-1].copy()


def crf_viterbi(emis, trans, start, stop, lengths=None):
    """Max-scoring tag sequence (ties: lowest label, then lowest backpointer).

    ``emis`` [m, K] gives the tags [m].  With a leading batch axis, ``emis``
    [B, M, K] holds B sentences right-padded to M steps, sentence b real for
    its first ``lengths[b]`` (at least 1) steps, and the result is the tags
    [B, M], 0 past each sentence's end.  A sentence's score stops at its last
    real step, so the padded rows never change its path.
    """
    single = emis.ndim == 2
    if single:
        emis, lengths = emis[None], [emis.shape[0]]
    lengths = np.asarray(lengths)
    b, m, k = emis.shape
    score = start + emis[:, 0]
    back = np.zeros((b, m, k), dtype=np.int64)
    for t in range(1, m):
        cand = score[:, :, None] + trans
        back[:, t] = cand.argmax(axis=1)
        score = np.where((t < lengths)[:, None], cand.max(axis=1) + emis[:, t], score)
    rows = np.arange(b)
    tags = np.zeros((b, m), dtype=np.int64)
    cur = np.argmax(score + stop, axis=1)
    tags[rows, lengths - 1] = cur
    for t in range(m - 1, 0, -1):
        live = t < lengths
        cur = np.where(live, back[rows, t, cur], cur)
        tags[live, t - 1] = cur[live]
    return tags[0] if single else tags
