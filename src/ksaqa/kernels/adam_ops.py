"""Bias-corrected Adam update on flat parameter vectors (in place)."""

import numpy as np


def adam_update(p, g, m, v, step, lr, beta1, beta2, eps):
    """One Adam step; mutates p, m, v. ``step`` is the 1-based step count."""
    m[:] = beta1 * m + (1.0 - beta1) * g
    v[:] = beta2 * v + (1.0 - beta2) * g * g
    mhat = m / (1.0 - beta1 ** step)
    vhat = v / (1.0 - beta2 ** step)
    p[:] = p - lr * mhat / (np.sqrt(vhat) + eps)
