"""Adam with bias correction over one arena of named parameters.

``Adam(params)`` copies the parameters into one float64 buffer and rebinds
each ``p.data`` to its view of it.  The gradients and the two moments are
buffers of the same layout: a parameter's first gradient of a step is written
into its slot (see :meth:`Parameter.accumulate`), later ones add in place, and
:meth:`Adam.step` updates every parameter that received one in a single
kernel call (one per contiguous run when some did not).
"""

from __future__ import annotations

import numpy as np

from .autodiff import Parameter
from .kernels import adam_ops


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
        self.bounds = np.cumsum([0] + [p.data.size for p in self.params]).tolist()
        total = self.bounds[-1]
        self.data, self.grad, self.m_flat, self.v_flat = (np.zeros(total) for _ in range(4))
        self.views, self.m, self.v = [], {}, {}
        for p, lo, hi in zip(self.params, self.bounds, self.bounds[1:]):
            shape = p.data.shape
            self.data[lo:hi] = p.data.reshape(-1)
            p.data = self.data[lo:hi].reshape(shape)
            p.slot = self.grad[lo:hi].reshape(shape)
            self.views.append(p.data)
            self.m[p.name] = self.m_flat[lo:hi].reshape(shape)
            self.v[p.name] = self.v_flat[lo:hi].reshape(shape)

    def zero_grad(self):
        for p in self.params:
            p.zero_grad()

    def step(self):
        """One update over every parameter that received a gradient.

        A parameter without one neither moves nor decays its moments.
        """
        self.step_count += 1
        runs: list[list[int]] = []
        for i, (p, view) in enumerate(zip(self.params, self.views)):
            if p.data is not view:
                raise ValueError(f"parameter {p.name}: data was rebound after the "
                                 "optimizer was built; write into p.data[...] instead")
            if p.grad is None:
                continue
            if p.grad is not p.slot:
                p.slot[...] = p.grad
            lo, hi = self.bounds[i], self.bounds[i + 1]
            if runs and runs[-1][1] == lo:
                runs[-1][1] = hi
            else:
                runs.append([lo, hi])
        for lo, hi in runs:
            adam_ops.adam_update(
                self.data[lo:hi], self.grad[lo:hi], self.m_flat[lo:hi], self.v_flat[lo:hi],
                self.step_count, self.lr, self.beta1, self.beta2, self.eps,
            )
