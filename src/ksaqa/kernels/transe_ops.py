"""Minibatch margin-ranking SGD step for translation embeddings.

The caller pre-draws and pre-filters the corrupted triples, so the kernel
holds no randomness: it scores the positive and corrupted triple, applies
the hinge update where the margin is violated, and renormalizes every
touched entity row to unit L2.  It is array code that gives the bits of the
scalar loop it replaced (``tests/transe_oracle.py``): each row norm is one
row sum, the loss is added up in example order, the updates land in the
loop's order, and a row is renormalized once per update it took.
"""

import numpy as np


def transe_batch(ent, rel, h, r, t, nh, nt, valid, use_l2, lr, margin):
    """One batch over positives (h, r, t) with corruptions (nh, r, nt).

    ``valid`` is a bool mask of the examples whose corruption sampling
    succeeded.  Gradients are taken at the pre-batch weights and applied
    with step size ``lr``, in example order (h, t, nh, nt); every updated
    entity row is then renormalized once per update.  Returns the summed
    hinge loss.
    """
    dp = ent[h] + rel[r] - ent[t]
    dn = ent[nh] + rel[r] - ent[nt]
    if use_l2:
        sp = np.sqrt(np.sum(dp * dp, axis=1))
        sn = np.sqrt(np.sum(dn * dn, axis=1))
    else:
        sp = np.sum(np.abs(dp), axis=1)
        sn = np.sum(np.abs(dn), axis=1)
    hinge = margin + sp - sn
    # not ``hinge > 0.0``: a NaN hinge updates its rows and the loss goes NaN
    on = valid & ~(hinge <= 0.0)
    loss = 0.0
    for value in hinge[on].tolist():   # in example order; np.sum adds pairwise
        loss += value
    if use_l2:
        up = dp[on] / np.maximum(sp[on], 1e-12)[:, None]
        un = dn[on] / np.maximum(sn[on], 1e-12)[:, None]
    else:
        up = np.sign(dp[on])
        un = np.sign(dn[on])
    rows = np.stack([h[on], t[on], nh[on], nt[on]], axis=1).ravel()
    grads = np.stack([up, -up, -un, un], axis=1).reshape(rows.size, ent.shape[1])
    np.subtract.at(ent, rows, lr * grads)
    np.subtract.at(rel, r[on], lr * (up - un))
    touched, updates = np.unique(rows, return_counts=True)
    for k in range(1, updates.max(initial=0) + 1):
        sel = touched[updates >= k]
        block = ent[sel]
        nrm = np.sqrt(np.sum(block * block, axis=1))
        pos = nrm > 0.0
        ent[sel[pos]] = block[pos] / nrm[pos, None]
    return loss
