"""Bias-corrected Adam update on flat parameter vectors (in place)."""

import numpy as np

# elements updated per pass of the loop below: the six arrays of one block
# stay in cache across the fourteen elementwise operations
BLOCK = 1 << 14


def adam_update(p, g, m, v, step, lr, beta1, beta2, eps):
    """One Adam step; mutates p, m, v. ``step`` is the 1-based step count.

    Every operation writes into ``m``, ``v``, ``p`` or one of two block-sized
    work buffers, in this order:

        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        p = p - lr * (m / (1 - beta1**step)) / (sqrt(v / (1 - beta2**step)) + eps)

    so the result is bit-equal to evaluating those expressions whole.
    """
    c1, c2 = 1.0 - beta1 ** step, 1.0 - beta2 ** step
    n = p.shape[0]
    work, upd = np.empty(min(BLOCK, n)), np.empty(min(BLOCK, n))
    for lo in range(0, n, BLOCK):
        hi = min(lo + BLOCK, n)
        pb, gb, mb, vb = p[lo:hi], g[lo:hi], m[lo:hi], v[lo:hi]
        w, u = work[: hi - lo], upd[: hi - lo]
        np.multiply(mb, beta1, out=mb)
        np.multiply(gb, 1.0 - beta1, out=w)
        np.add(mb, w, out=mb)
        np.multiply(gb, 1.0 - beta2, out=w)
        np.multiply(w, gb, out=w)
        np.multiply(vb, beta2, out=vb)
        np.add(vb, w, out=vb)
        np.divide(vb, c2, out=w)
        np.sqrt(w, out=w)
        np.add(w, eps, out=w)
        np.divide(mb, c1, out=u)
        np.multiply(u, lr, out=u)
        np.divide(u, w, out=u)
        np.subtract(pb, u, out=pb)
