"""Numeric hot loops: numba-compiled fast path with a pure-numpy fallback.

Every kernel is written once as a plain numpy function and registered with
the :func:`kernel` decorator, which also keeps an ``@njit`` twin when numba
is importable.  The lane follows the platform: numba when it can be
imported, else numpy.  :func:`set_backend` switches lanes in-process, so
that the test suite and the benchmark's kernel section can run both lanes
on the same inputs.
"""

import functools

try:
    from numba import njit

    HAVE_NUMBA = True
except ImportError:
    njit = None
    HAVE_NUMBA = False

_ACTIVE = "numba" if HAVE_NUMBA else "numpy"


def active_backend() -> str:
    """Name of the lane currently executing kernels."""
    return _ACTIVE


def set_backend(name: str) -> str:
    """Switch to lane ``numba`` or ``numpy``; returns the previously active lane."""
    global _ACTIVE
    if name not in ("numba", "numpy"):
        raise ValueError(f"unknown backend {name!r}; expected 'numba' or 'numpy'")
    if name == "numba" and not HAVE_NUMBA:
        raise ValueError("backend 'numba' requested but numba is not importable")
    previous, _ACTIVE = _ACTIVE, name
    return previous


def kernel(fn):
    """Register ``fn`` as a dual-lane kernel and return the dispatcher."""
    compiled = njit(cache=True)(fn) if HAVE_NUMBA else None

    @functools.wraps(fn)
    def dispatch(*args):
        if _ACTIVE == "numba":
            return compiled(*args)
        return fn(*args)

    return dispatch


from . import adam_ops, crf, gru, transe_ops  # noqa: E402,F401


def warm_up() -> None:
    """Force-compile every numba kernel on tiny inputs (no-op on numpy lane)."""
    if _ACTIVE != "numba":
        return
    import numpy as np

    rng = np.random.default_rng(0)
    x = rng.standard_normal((2, 3))
    h0 = np.zeros(2)
    wx = rng.standard_normal((3, 6))
    wh = rng.standard_normal((2, 6))
    b = rng.standard_normal(6)
    hs, zs, rs, ns, hwn = gru.gru_forward(x, h0, wx, wh, b)
    gru.gru_backward(np.ones((2, 2)), x, wx, wh, hs, zs, rs, ns, hwn)

    emis = rng.standard_normal((3, 2))
    trans = rng.standard_normal((2, 2))
    start = rng.standard_normal(2)
    stop = rng.standard_normal(2)
    logz, alpha = crf.crf_logz(emis, trans, start, stop)
    crf.crf_marginals(emis, trans, start, stop, alpha, logz)
    crf.crf_viterbi(emis, trans, start, stop)

    p = rng.standard_normal(4)
    adam_ops.adam_update(p, np.ones(4), np.zeros(4), np.zeros(4), 1, 0.01, 0.9, 0.999, 1e-8)

    ent = rng.standard_normal((3, 4))
    rel = rng.standard_normal((2, 4))
    idx = np.zeros(1, dtype=np.int64)
    transe_ops.transe_batch(
        ent, rel, idx, idx, idx + 1, idx + 2, idx + 1,
        np.ones(1, dtype=np.bool_), True, 0.01, 1.0,
    )
