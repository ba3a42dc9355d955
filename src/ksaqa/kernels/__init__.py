"""Numeric hot loops: GRU sequence, CRF dynamic programs, Adam and TransE.

Every kernel is a plain numpy function, looked up through its module
(``gru.gru_forward``).  There is one lane, ``numpy``; ``HAVE_NUMBA``,
:func:`active_backend` and :func:`set_backend` remain for callers that name
the lane of a run.
"""

HAVE_NUMBA = False


def active_backend() -> str:
    """Name of the lane executing kernels: always ``numpy``."""
    return "numpy"


def set_backend(name: str) -> str:
    """Accept lane ``numpy``, the only one; returns the previously active lane."""
    if name != "numpy":
        raise ValueError(f"unknown backend {name!r}; the only lane is 'numpy'")
    return "numpy"
