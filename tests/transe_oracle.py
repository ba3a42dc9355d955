"""The scalar TransE step that ``ksaqa.kernels.transe_ops.transe_batch`` replaced.

One example at a time: score, hinge test, five gradient rows, then every
update in order and one renormalization per entity-row update.  The array
kernel must give the same loss, ``ent`` and ``rel`` bit for bit.  Also the
scalar score of one triple, :func:`triple_score`.
"""

import numpy as np

from ksaqa.transe import EmbeddingSet


def transe_batch(ent, rel, h, r, t, nh, nt, valid, use_l2, lr, margin):
    """One batch over positives (h, r, t) with corruptions (nh, r, nt).

    ``valid`` masks examples whose corruption sampling failed.  Gradients are
    taken at the pre-batch weights, applied with step size ``lr``, and every
    updated entity row is renormalized.  Returns the summed hinge loss.
    """
    nb = h.shape[0]
    dim = ent.shape[1]
    cap = nb * 6
    rows = np.empty(cap, dtype=np.int64)
    is_ent = np.empty(cap, dtype=np.bool_)
    grads = np.empty((cap, dim))
    n_upd = 0
    loss = 0.0
    for i in range(nb):
        if not valid[i]:
            continue
        dp = ent[h[i]] + rel[r[i]] - ent[t[i]]
        dn = ent[nh[i]] + rel[r[i]] - ent[nt[i]]
        if use_l2:
            sp = np.sqrt(np.sum(dp * dp))
            sn = np.sqrt(np.sum(dn * dn))
        else:
            sp = np.sum(np.abs(dp))
            sn = np.sum(np.abs(dn))
        hinge = margin + sp - sn
        if hinge <= 0.0:
            continue
        loss += hinge
        if use_l2:
            up = dp / max(sp, 1e-12)
            un = dn / max(sn, 1e-12)
        else:
            up = np.sign(dp)
            un = np.sign(dn)
        rows[n_upd] = h[i]; is_ent[n_upd] = True; grads[n_upd] = up; n_upd += 1
        rows[n_upd] = t[i]; is_ent[n_upd] = True; grads[n_upd] = -up; n_upd += 1
        rows[n_upd] = r[i]; is_ent[n_upd] = False; grads[n_upd] = up - un; n_upd += 1
        rows[n_upd] = nh[i]; is_ent[n_upd] = True; grads[n_upd] = -un; n_upd += 1
        rows[n_upd] = nt[i]; is_ent[n_upd] = True; grads[n_upd] = un; n_upd += 1
    for u in range(n_upd):
        if is_ent[u]:
            ent[rows[u]] -= lr * grads[u]
        else:
            rel[rows[u]] -= lr * grads[u]
    for u in range(n_upd):
        if is_ent[u]:
            row = rows[u]
            nrm = np.sqrt(np.sum(ent[row] * ent[row]))
            if nrm > 0.0:
                ent[row] /= nrm
    return loss


def triple_score(h: int, r: int, t: int, emb: EmbeddingSet, norm: str | None = None) -> float:
    """||E[h] + R[r] - E[t]|| under the configured norm; lower is better."""
    v = emb.entity[h] + emb.relation[r] - emb.entity[t]
    if (norm or emb.norm) == "l1":
        return float(np.abs(v).sum())
    return float(np.linalg.norm(v))
