"""Adam with bias correction over one arena of named parameters.

``Adam(params)`` copies the parameters into one float64 buffer and binds each
``p.data`` and ``p.grad`` to its view of that buffer and of a gradient buffer
of the same layout, for the optimizer's lifetime; the copy widens any float32
table of a loaded model, exactly.  Backward adds every
gradient into the bound view in place (:meth:`Tensor.accumulate`),
:meth:`Adam.zero_grad` zeroes the gradient buffer, and :meth:`Adam.step`
updates the whole arena in one kernel call, then refuses it if a value is NaN or Inf.
:meth:`Adam.keep` copies the arena, which is every trained value.
:func:`train_epochs` is the one epoch loop of the tagger and the predictor.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Parameter, Tape
from .errors import NonFiniteError
from .kernels import adam_ops

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class Adam:
    """Tracks first/second moments over the arena (``m_flat``, ``v_flat``, in
    parameter order); step() consumes .grad."""

    def __init__(self, params: list[Parameter], lr: float = 0.001):
        names = [p.name for p in params]
        if len(set(names)) != len(names):
            raise ValueError("duplicate parameter names passed to Adam")
        self.params = list(params)
        self.lr = lr
        self.step_count = 0
        bounds = np.cumsum([0] + [p.data.size for p in self.params]).tolist()
        self.data, self.grad, self.m_flat, self.v_flat = (np.zeros(bounds[-1]) for _ in range(4))
        self.views, self.grad_views = [], []
        for p, lo, hi in zip(self.params, bounds, bounds[1:]):
            shape = p.data.shape
            self.data[lo:hi] = p.data.reshape(-1)
            p.data = self.data[lo:hi].reshape(shape)
            p.grad = self.grad[lo:hi].reshape(shape)
            self.views.append(p.data)
            self.grad_views.append(p.grad)

    def keep(self, into: np.ndarray | None = None) -> np.ndarray:
        """A copy of every parameter value, or ``into``, an earlier copy,
        overwritten in place, so that only one copy is ever alive.  Assigning
        it back (``opt.data[...] = kept``) restores those values."""
        if into is None:
            return self.data.copy()
        into[...] = self.data
        return into

    def zero_grad(self):
        self.grad.fill(0.0)

    def step(self):
        """One update of every parameter from the gradient buffer."""
        for p, data, grad in zip(self.params, self.views, self.grad_views):
            for field, got, view in (("data", p.data, data), ("grad", p.grad, grad)):
                if got is not view:
                    raise ValueError(f"parameter {p.name}: {field} was rebound after the "
                                     f"optimizer was built; write into p.{field}[...] instead")
        self.step_count += 1
        adam_ops.adam_update(self.data, self.grad, self.m_flat, self.v_flat,
                             self.step_count, self.lr, BETA1, BETA2, EPS)
        if not np.isfinite(self.data).all():
            bad = next(p.name for p in self.params if not np.isfinite(p.data).all())
            raise NonFiniteError(f"step {self.step_count} left parameter {bad} not finite")


def train_epochs(opt: Adam, epochs: int, batches, loss, *, label: str, validate,
                 score_key: str, score_name: str, stop, log) -> list[dict]:
    """The history of ``epochs`` epochs of Adam steps on ``loss(batch)``, each
    step on its own tape, over ``batches(epoch)``, which makes the epoch's
    random draws.  Unless ``validate`` is None, the arena of each strictly
    better ``validate()`` is kept, and restored at the end; training stops
    after an epoch where ``stop(score, epochs since the best one)``.
    ``label`` leads each divergence message and log line (``log``, or None)."""
    best_score, best_epoch, best_state = -1.0, 0, None
    history = []
    for epoch in range(1, epochs + 1):
        total = 0.0
        for batch in batches(epoch):
            opt.zero_grad()
            with Tape():
                total += ad.backward(loss(batch),
                                     where=f"{label}epoch {epoch}, step {opt.step_count + 1}")
            opt.step()
        entry = {"epoch": epoch, "train_loss": total}
        line = f"{label}epoch {epoch}/{epochs} loss {total:.4f}"
        if validate:
            score = entry[score_key] = validate()
            line += f" {score_name} {score:.4f}"
            if score > best_score:
                best_score, best_epoch = score, epoch
                best_state = opt.keep(into=best_state)
        history.append(entry)
        if log:
            log(line)
        if validate and stop(score, epoch - best_epoch):
            break
    if best_state is not None:
        opt.data[...] = best_state
    return history
