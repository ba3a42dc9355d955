"""Dense float64 tensors with reverse-mode differentiation on a tape.

Ops record onto the innermost :class:`Tape` open in their own thread (or
context) whenever any input is tracked; with no tape open they are plain
numpy computations, which is the inference fast path.  A tape has one
writer: a thread starts with no tape, so another thread's ops never record
onto this one's (see :func:`recording`).  Gradients accumulate into
the leaves' ``Tensor.grad`` on :func:`backward`.  Backward consumes the
graph as it walks: each node drops its gradient, closure and parents once
its closure has run, and the spent tape refuses a second backward.
NaN/Inf is refused in data wrapped as a :class:`Tensor`, in a loss by
:func:`backward` and in an update by :meth:`ksaqa.optim.Adam.step`.

Every tensor is float64 but one kind of parameter: a table loaded from a
checkpoint (:meth:`Parameter.loaded`, see :class:`ksaqa.nn.Saved`) that is
read only through gathers may stay float32.  :func:`embedding_lookup` and
:func:`_getitem` widen what they take in :func:`_make`, which is exact, and
their gradients are float64; Adam's arena copy widens such a table.

The GRU sequence and CRF log-likelihood are fused primitives backed by the
``kernels`` package; their hand-derived backwards are covered by the
finite-difference suite like every other primitive.
"""

from __future__ import annotations

import contextvars
import math

import numpy as np

from .errors import NonFiniteError, ShapeError
from .kernels import crf as crf_k
from .kernels import gru as gru_k

# the innermost tape open in this context; a new thread starts with none
_TAPE: contextvars.ContextVar = contextvars.ContextVar("ksaqa_tape", default=None)


class Rng(np.random.Generator):
    """Deterministic counter-based random stream (Philox) behind a 64-bit seed."""

    def __init__(self, seed: int):
        super().__init__(np.random.Philox(key=int(seed)))


class Tape:
    """Ordered record of op nodes; creation order is topological order.

    :func:`backward` runs inside the ``with`` block, once: it spends the
    tape, and closing the tape unlinks its nodes from it.  Only the thread
    that opened the tape records onto it; a tape opened inside another
    restores the outer one when it closes.
    """

    def __init__(self):
        self.nodes: list[Tensor] = []
        self.spent = False
        self._token = None

    def __enter__(self):
        self._token = _TAPE.set(self)
        return self

    def __exit__(self, *exc):
        _TAPE.reset(self._token)
        # each node points back at its tape; unlinking them breaks that
        # cycle, so the graph is freed as soon as the caller drops it rather
        # than at some later full collection by the cycle collector
        for node in self.nodes:
            node.tape = None
        return False

    def record(self, t: "Tensor"):
        t.tape = self
        t.node_id = len(self.nodes)
        self.nodes.append(t)


def recording() -> bool:
    """Whether a tape is open in this thread (context): ops on tracked inputs record."""
    return _TAPE.get() is not None


class Tensor:
    """A dense float64 array, optionally tracked for differentiation."""

    __slots__ = ("data", "grad", "requires_grad", "parents", "bwd", "op", "node_id", "tape",
                 "__weakref__")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if not np.all(np.isfinite(arr)):
            raise NonFiniteError("tensor initialized with non-finite values")
        self._bind(arr, requires_grad)

    def _bind(self, data: np.ndarray, requires_grad: bool):
        self.data = data
        self.grad = None
        self.requires_grad = requires_grad
        self.parents = ()
        self.bwd = None
        self.op = ""
        self.node_id = None
        self.tape = None

    @property
    def shape(self):
        return self.data.shape

    def accumulate(self, g):
        """Add ``g`` to ``.grad`` in place; a tensor without one (any tensor
        outside an optimizer's arena) takes a copy of its first gradient."""
        if self.grad is None:
            self.grad = np.array(g, dtype=np.float64)
        else:
            self.grad += g

    def zero_grad(self):
        self.grad = None

    def __getitem__(self, key):
        return _getitem(self, key)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, op={self.op!r})"


class Parameter(Tensor):
    """A named, always-tracked tensor.

    Under an optimizer (:class:`ksaqa.optim.Adam`), ``data`` and ``grad`` are
    views of its arena, bound for its lifetime: write into them, never rebind
    them.
    """

    __slots__ = ("name",)

    def __init__(self, name: str, data):
        super().__init__(data, requires_grad=True)
        self.name = name

    @classmethod
    def loaded(cls, name: str, data: np.ndarray) -> "Parameter":
        """A parameter over ``data`` as it is, with no copy and no scan: an
        array its loader has already found finite, float64 or a float32
        table read only through gathers."""
        p = cls.__new__(cls)
        p._bind(data, True)
        p.name = name
        return p

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.data.shape})"


def _make(data, parents, bwd, op):
    """Wrap an op result; record on the tape when tracking applies."""
    tape = _TAPE.get()
    tracked = tape is not None and any(p.requires_grad for p in parents)
    out = Tensor.__new__(Tensor)
    out._bind(np.asarray(data, dtype=np.float64), tracked)
    out.op = op
    if tracked:
        out.parents = tuple(parents)
        out.bwd = bwd
        tape.record(out)
    return out


def backward(loss: Tensor, where: str | None = None) -> float:
    """Propagate d(loss)/d(node) through the tape into the leaves' ``.grad``.

    Backward consumes the graph: each node up to the loss drops its
    gradient, closure and parents once its closure has run (or, off the
    loss's path, when the walk passes it), so the activations and kernel
    stashes are freed as the walk goes.  Leaves (parameters, inputs) keep
    their gradients and every node keeps its ``data``.  The tape is then
    spent, and a second backward on it is a ShapeError.

    A loss that is not finite is a NonFiniteError, its message led by
    ``where`` (the training step) when given.  Returns the loss as a float,
    so that a training step need not hold the loss tensor past its backward.
    """
    if loss.data.size != 1:
        raise ShapeError(f"backward needs a scalar loss, got shape {loss.data.shape}")
    tape = loss.tape
    if tape is None:
        raise ShapeError("backward called on an untracked tensor (no tape active?)")
    if tape.spent:
        raise ShapeError("backward called twice on one tape: the first consumed its graph")
    if not np.isfinite(loss.data).all():
        fault = f"loss is {float(loss.data)}"
        raise NonFiniteError(fault if where is None else f"{where}: {fault}")
    tape.spent = True
    loss.grad = np.ones_like(loss.data)
    for node in reversed(tape.nodes[: loss.node_id + 1]):
        if node.grad is not None:
            node.bwd(node.grad)
        node.grad = node.bwd = None
        node.parents = ()
    return float(loss.data)


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------


def _unbroadcast(g, shape):
    """Sum ``g`` down to ``shape`` (reverse of numpy broadcasting)."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def add(a: Tensor, b: Tensor) -> Tensor:
    try:
        data = a.data + b.data
    except ValueError:
        raise ShapeError(f"add: shapes {a.data.shape} and {b.data.shape}") from None

    def bwd(g):
        a.accumulate(_unbroadcast(g, a.data.shape))
        b.accumulate(_unbroadcast(g, b.data.shape))

    return _make(data, (a, b), bwd, "add")


def scale(a: Tensor, c: float) -> Tensor:
    def bwd(g):
        a.accumulate(g * c)

    return _make(a.data * c, (a,), bwd, "scale")


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix/vector products, or a stack of matrix products ([k, p, q] @ [k, q, r])."""
    ad, bd = a.data, b.data
    stacked = ad.ndim == 3 or bd.ndim == 3
    if (ad.ndim == 0 or bd.ndim == 0 or ad.shape[-1] != bd.shape[-2 if bd.ndim > 1 else 0]
            or stacked and (ad.ndim != bd.ndim or ad.shape[0] != bd.shape[0])):
        raise ShapeError(f"matmul: shapes {ad.shape} and {bd.shape}")
    data = ad @ bd

    def bwd(g):
        if ad.ndim == 2 and bd.ndim == 2:
            a.accumulate(g @ bd.T)
            b.accumulate(ad.T @ g)
        elif ad.ndim == 2 and bd.ndim == 1:
            a.accumulate(np.outer(g, bd))
            b.accumulate(ad.T @ g)
        elif ad.ndim == 1 and bd.ndim == 2:
            a.accumulate(bd @ g)
            b.accumulate(np.outer(ad, g))
        elif stacked:
            a.accumulate(g @ bd.transpose(0, 2, 1))
            b.accumulate(ad.transpose(0, 2, 1) @ g)
        else:
            a.accumulate(g * bd)
            b.accumulate(g * ad)

    return _make(data, (a, b), bwd, "matmul")


def concat(tensors, axis: int = 0) -> Tensor:
    datas = [t.data for t in tensors]
    data = np.concatenate(datas, axis=axis)
    sizes = [d.shape[axis] for d in datas]
    offsets = np.cumsum([0] + sizes)

    def bwd(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(lo, hi)
            t.accumulate(g[tuple(sl)])

    return _make(data, tuple(tensors), bwd, "concat")


def _getitem(a: Tensor, key) -> Tensor:
    data = a.data[key]
    # a key of ints and slices picks each element at most once; an index
    # array may repeat one, so its gradient must accumulate (add.at, far slower)
    basic = all(isinstance(k, (int, np.integer, slice))
                for k in (key if isinstance(key, tuple) else (key,)))

    def bwd(g):
        full = np.zeros(a.data.shape)
        if basic:
            full[key] = g
        else:
            np.add.at(full, key, g)
        a.accumulate(full)

    return _make(data, (a,), bwd, "slice")


def sigmoid(a: Tensor) -> Tensor:
    with np.errstate(over="ignore"):
        data = 1.0 / (1.0 + np.exp(-a.data))

    def bwd(g):
        a.accumulate(g * data * (1.0 - data))

    return _make(data, (a,), bwd, "sigmoid")


def tanh(a: Tensor) -> Tensor:
    data = np.tanh(a.data)

    def bwd(g):
        a.accumulate(g * (1.0 - data * data))

    return _make(data, (a,), bwd, "tanh")


def softmax(a: Tensor, mask=None) -> Tensor:
    """Stable softmax over the last axis; outputs are strictly positive.

    ``mask`` (bool, ``a``'s shape) gives the entries where it is False a
    weight of exactly 0; every row must keep at least one entry.
    """
    x = a.data if mask is None else np.where(mask, a.data, -np.inf)
    shifted = x - np.max(x, axis=-1, keepdims=True)
    e = np.exp(shifted)
    data = e / np.sum(e, axis=-1, keepdims=True)

    def bwd(g):
        dot = np.sum(g * data, axis=-1, keepdims=True)
        a.accumulate((g - dot) * data)

    return _make(data, (a,), bwd, "softmax")


def embedding_lookup(table: Tensor, indices) -> Tensor:
    """Rows of a 2-D table selected by an integer index list."""
    idx = np.asarray(indices, dtype=np.int64)
    data = table.data[idx]

    def bwd(g):
        full = np.zeros(table.data.shape)
        np.add.at(full, idx, g)
        table.accumulate(full)

    return _make(data, (table,), bwd, "embedding_lookup")


def dropout_mask(shape, rate: float, rng: Rng) -> np.ndarray:
    """Inverted-dropout factors drawn from ``rng``: 0, or 1 / (1 - rate)."""
    if not 0.0 <= rate < 1.0:
        raise ShapeError(f"dropout rate must be in [0, 1), got {rate}")
    return (rng.random(shape) >= rate) / (1.0 - rate)


def apply_mask(a: Tensor, mask: np.ndarray) -> Tensor:
    """``a`` times a constant array of ``a``'s shape, such as a dropout mask."""
    def bwd(g):
        a.accumulate(g * mask)

    return _make(a.data * mask, (a,), bwd, "dropout")


def reshape(a: Tensor, shape) -> Tensor:
    """The same values viewed under another shape of equal size."""
    try:
        data = a.data.reshape(shape)
    except ValueError:
        raise ShapeError(f"reshape: {a.data.shape} to {shape}") from None

    def bwd(g):
        a.accumulate(g.reshape(a.data.shape))

    return _make(data, (a,), bwd, "reshape")


def transpose(a: Tensor, axes) -> Tensor:
    """The axes of ``a`` permuted as by ``np.transpose``."""
    back = np.argsort(axes)

    def bwd(g):
        a.accumulate(g.transpose(back))

    return _make(a.data.transpose(axes), (a,), bwd, "transpose")


def bce_with_logits_sum(logits: Tensor, labels) -> Tensor:
    """Summed binary cross entropy straight from logits (log-space, stable)."""
    y = np.asarray(labels, dtype=np.float64)
    x = logits.data
    data = np.sum(np.logaddexp(0.0, x) - x * y)

    def bwd(g):
        logits.accumulate(float(g) * (1.0 / (1.0 + np.exp(-x)) - y))

    return _make(data, (logits,), bwd, "bce_logits")


def gru_sequence(x: Tensor, h0: Tensor, wx: Tensor, wh: Tensor, b: Tensor,
                 active=None, reverse=False) -> Tensor:
    """All hidden states of a GRU run over ``x`` (fused).

    From one state ``h0`` [H], ``x`` is [m, d_in] and the result [m, H].  From
    a batch of states [n, H] the result is [m, n, H]; ``x`` is [m, d_in], read
    by every state, or [m, n, d_in], a row per state.  ``active`` (bool
    [m, n], batch only) masks the steps each row runs: see
    :mod:`ksaqa.kernels.gru`.  ``reverse`` runs the cell from the last step
    to the first, and state t of the result is the one after reading step t.
    """
    xd, hd = x.data, h0.data
    if (xd.ndim not in (2, 3) or xd.shape[-1] != wx.data.shape[0]
            or xd.ndim == 3 and (hd.ndim != 2 or xd.shape[1] != hd.shape[0])):
        raise ShapeError(f"gru_sequence: input {xd.shape} vs Wx {wx.data.shape}, "
                         f"state {hd.shape}")
    if active is not None and (hd.ndim != 2 or active.shape != (xd.shape[0], hd.shape[0])):
        raise ShapeError(f"gru_sequence: mask {active.shape} vs {xd.shape[0]} steps, "
                         f"state {hd.shape}")
    if active is not None and active.all():
        active = None   # no padded step: the unmasked kernels give the same numbers
    if reverse:
        xd = xd[::-1]
        active = None if active is None else active[::-1]
    # x @ Wx stays on BLAS (same bits) for a contiguous x; backward reads the view
    hs, zs, rs, ns, hwn = gru_k.gru_forward(np.ascontiguousarray(xd), hd, wx.data, wh.data,
                                            b.data, active)

    def bwd(g):
        dx, dh0, dwx, dwh, db = gru_k.gru_backward(
            np.ascontiguousarray(g[::-1] if reverse else g), xd, wx.data, wh.data,
            hs, zs, rs, ns, hwn, active
        )
        x.accumulate(dx[::-1] if reverse else dx)
        h0.accumulate(dh0)
        wx.accumulate(dwx)
        wh.accumulate(dwh)
        b.accumulate(db)

    return _make(hs[:0:-1] if reverse else hs[1:], (x, h0, wx, wh, b), bwd, "gru_sequence")


def crf_log_likelihood(emissions: Tensor, transitions: Tensor, start: Tensor,
                       stop: Tensor, tags) -> Tensor:
    """score(tags) - logZ for a linear-chain CRF (fused forward-backward)."""
    y = np.asarray(tags, dtype=np.int64)
    m, k = emissions.data.shape
    if y.shape[0] != m:
        raise ShapeError(f"crf_log_likelihood: {m} emission rows vs {y.shape[0]} tags")
    logz, alpha = crf_k.crf_logz(emissions.data, transitions.data, start.data, stop.data)
    gold = start.data[y[0]] + emissions.data[np.arange(m), y].sum()
    if m > 1:
        gold += transitions.data[y[:-1], y[1:]].sum()
    gold += stop.data[y[-1]]

    def bwd(g):
        unary, dtrans, dstart, dstop = grads = crf_k.crf_marginals(
            emissions.data, transitions.data, start.data, stop.data, alpha, logz
        )
        # gold counts minus expected counts, formed in the marginals' own arrays
        for d in grads:
            np.negative(d, out=d)
        unary[np.arange(m), y] += 1.0
        dtrans += np.bincount(y[:-1] * k + y[1:], minlength=k * k).reshape(k, k)
        dstart[y[0]] += 1.0
        dstop[y[-1]] += 1.0
        s = float(g)
        for t, d in zip((emissions, transitions, start, stop), grads):
            t.accumulate(s * d)

    return _make(gold - logz, (emissions, transitions, start, stop), bwd, "crf_ll")


# ---------------------------------------------------------------------------
# initialization and gradient checking
# ---------------------------------------------------------------------------


def check_size(name: str, shape) -> None:
    """MemoryError for a float64 array ``name`` whose bytes pass numpy's size
    limit, which numpy refuses with a ValueError before it allocates."""
    if math.prod(shape) * 8 > np.iinfo(np.intp).max:
        raise MemoryError(f"{name} of shape {shape} passes numpy's array size limit")


def init_embedding(rng: Rng, shape) -> np.ndarray:
    """Uniform(-0.08, 0.08), the scheme for lookup tables."""
    return rng.uniform(-0.08, 0.08, shape)


def init_weight(rng: Rng, fan_in: int, fan_out: int, shape=None) -> np.ndarray:
    """Scaled-uniform +-sqrt(6 / (fan_in + fan_out)) for weight matrices."""
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, shape if shape is not None else (fan_in, fan_out))


def grad_check(function, inputs, h: float = 1e-5) -> float:
    """Max relative error between tape gradients and central differences.

    ``function`` maps the list of tensors to a scalar Tensor and must rebuild
    its graph on every call.  Relative error per coordinate is
    |g_a - g_n| / max(1e-8, |g_a| + |g_n|).
    """
    with Tape():
        out = function(inputs)
        if out.data.size != 1:
            raise ShapeError("grad_check needs a scalar-valued function")
        for t in inputs:
            t.zero_grad()
        backward(out)
    analytic = [np.zeros_like(t.data) if t.grad is None else t.grad.copy() for t in inputs]
    worst = 0.0
    for t, ga in zip(inputs, analytic):
        flat = t.data.reshape(-1)
        gaf = ga.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = float(function(inputs).data)
            flat[i] = orig - h
            dn = float(function(inputs).data)
            flat[i] = orig
            gn = (up - dn) / (2.0 * h)
            err = abs(gaf[i] - gn) / max(1e-8, abs(gaf[i]) + abs(gn))
            worst = max(worst, err)
    return worst
