"""Autodiff ops that only the tests use: an elementwise product, dropout
drawing its own mask, and a full sum.  They record on the tape through
``autodiff._make`` exactly as the library's ops do."""

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
