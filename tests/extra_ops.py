"""Autodiff ops that only the tests use: an elementwise product, dropout
drawing its own mask, a full sum, a flip in time and a row repeat.  They
record on the tape through ``autodiff._make`` exactly as the library's ops
do.  ``flip0`` is the oracle of ``gru_sequence(..., reverse=True)``, and
``tile_rows`` builds the per-subject pass's attention and decoder inputs."""

from __future__ import annotations

import numpy as np

from ksaqa.autodiff import Rng, Tensor, _make, _unbroadcast, apply_mask, dropout_mask
from ksaqa.errors import ShapeError


def mul(a: Tensor, b: Tensor) -> Tensor:
    try:
        data = a.data * b.data
    except ValueError:
        raise ShapeError(f"mul: shapes {a.data.shape} and {b.data.shape}") from None

    def bwd(g):
        a.accumulate(_unbroadcast(g * b.data, a.data.shape))
        b.accumulate(_unbroadcast(g * a.data, b.data.shape))

    return _make(data, (a, b), bwd, "mul")


def dropout(a: Tensor, rate: float, rng: Rng | None) -> Tensor:
    """Inverted dropout drawing its mask from ``rng``; identity without one or at rate 0."""
    if rng is None or rate == 0.0:
        return a
    return apply_mask(a, dropout_mask(a.data.shape, rate, rng))


def sum_all(a: Tensor) -> Tensor:
    def bwd(g):
        a.accumulate(np.full_like(a.data, float(g)))

    return _make(a.data.sum(), (a,), bwd, "sum")


def flip0(a: Tensor) -> Tensor:
    """Reverse along axis 0."""
    def bwd(g):
        a.accumulate(g[::-1])

    return _make(a.data[::-1].copy(), (a,), bwd, "flip0")


def tile_rows(a: Tensor, m: int) -> Tensor:
    """Repeat a 1-D tensor as m identical rows."""
    data = np.broadcast_to(a.data, (m,) + a.data.shape).copy()

    def bwd(g):
        a.accumulate(g.sum(axis=0))

    return _make(data, (a,), bwd, "tile_rows")
