"""The per-tensor Adam that the parameter arena of ``ksaqa.optim.Adam`` replaced.

One ``adam_update`` call per parameter that has a gradient, with moments kept
per name and the kernel's whole-array expressions.  After any number of steps
the arena must hold the same parameters, ``m`` and ``v`` bit for bit.
"""

from __future__ import annotations

import numpy as np

from ksaqa.autodiff import Parameter


def adam_update(p, g, m, v, step, lr, beta1, beta2, eps):
    """One Adam step; mutates p, m, v. ``step`` is the 1-based step count."""
    m[:] = beta1 * m + (1.0 - beta1) * g
    v[:] = beta2 * v + (1.0 - beta2) * g * g
    mhat = m / (1.0 - beta1 ** step)
    vhat = v / (1.0 - beta2 ** step)
    p[:] = p - lr * mhat / (np.sqrt(vhat) + eps)


class Adam:
    """Tracks first/second moments per parameter; step() consumes .grad."""

    def __init__(self, params: list[Parameter], lr: float = 0.001,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        names = [p.name for p in params]
        if len(set(names)) != len(names):
            raise ValueError("duplicate parameter names passed to Adam")
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self.m = {p.name: np.zeros_like(p.data) for p in params}
        self.v = {p.name: np.zeros_like(p.data) for p in params}

    def zero_grad(self):
        for p in self.params:
            p.zero_grad()

    def step(self):
        """One update over every parameter that received a gradient."""
        self.step_count += 1
        for p in self.params:
            if p.grad is None:
                continue
            g = np.ascontiguousarray(p.grad, dtype=np.float64)
            flat_p = p.data.reshape(-1)
            adam_update(
                flat_p, g.reshape(-1),
                self.m[p.name].reshape(-1), self.v[p.name].reshape(-1),
                self.step_count, self.lr, self.beta1, self.beta2, self.eps,
            )
