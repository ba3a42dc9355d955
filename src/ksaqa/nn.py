"""Parameter bundles and functional layers shared by the learned modules.

Layers are pure functions over dicts of named Parameters, so a model is just
a dict-of-dicts and checkpointing is a flat name -> array walk.  A model asks
a parameter source for each of its parameters by name and shape: ``Fresh``
draws them (the training init), ``Saved`` wraps the arrays of a checkpoint.
"""

from __future__ import annotations

import mmap

import numpy as np

from . import autodiff as ad
from .autodiff import Parameter, Rng, Tensor
from .errors import CheckpointError


class Fresh:
    """Parameters drawn from ``rng`` in the order they are asked for."""

    def __init__(self, rng: Rng):
        self.rng = rng

    def weight(self, name: str, fan_in: int, fan_out: int, shape, gathered=False) -> Parameter:
        ad.check_size(name, shape)
        return Parameter(name, ad.init_weight(self.rng, fan_in, fan_out, shape))

    def embedding(self, name: str, shape) -> Parameter:
        ad.check_size(name, shape)
        return Parameter(name, ad.init_embedding(self.rng, shape))

    def zeros(self, name: str, shape) -> Parameter:
        ad.check_size(name, shape)
        return Parameter(name, np.zeros(shape))


class Saved:
    """Parameters that wrap the float32 arrays loaded from ``source``: views
    of the one mapped vector that :func:`ksaqa.checkpoint.load_arrays` slices
    by the manifest's table, found finite without leaving their pages in
    memory; nothing is drawn or scanned.

    Each array must be there, in the shape asked for; a fault is a
    CheckpointError naming the tensor.  A table read only through gathers
    (every embedding, and a weight asked for as ``gathered``) stays float32
    on the mapped file, since a gather widens exactly what it takes, so only
    the pages a gather touches come into memory.  Every other array is
    widened to float64, and the float32 pages read to widen it are given
    back.  :meth:`check_all_taken` then refuses any array no parameter took.
    """

    def __init__(self, arrays: dict[str, np.ndarray], source: str):
        self.arrays = arrays
        self.source = source

    def take(self, name: str, shape, widen=True) -> Parameter:
        arr = self.arrays.pop(name, None)
        if arr is None:
            raise CheckpointError(f"{self.source}: missing tensor {name}")
        if arr.shape != shape:
            raise CheckpointError(f"{self.source}: {name} has shape {arr.shape}, expected {shape}")
        if not widen:
            return Parameter.loaded(name, arr)
        wide = arr.astype(np.float64)
        _give_back(arr)
        return Parameter.loaded(name, wide)

    def weight(self, name: str, fan_in: int, fan_out: int, shape, gathered=False) -> Parameter:
        return self.take(name, shape, widen=not gathered)

    def embedding(self, name: str, shape) -> Parameter:
        return self.take(name, shape, widen=False)

    zeros = take

    def check_all_taken(self) -> None:
        if self.arrays:
            raise CheckpointError(f"{self.source}: unexpected tensors {sorted(self.arrays)}")


def _give_back(view: np.ndarray) -> None:
    """Give back this process's copies of the pages wholly inside ``view``,
    a slice of a float32 vector over a memoryview of a read-only file map
    (as :func:`ksaqa.checkpoint.load_arrays` returns them): the file keeps
    the values, and a later read maps them in again.  The pages ``view``
    shares with the tensors beside it in the vector stay."""
    whole = view.base
    while isinstance(whole, np.ndarray):    # a reshaped view of the slice
        whole = whole.base                  # on to the memoryview of the map
    start = view.ctypes.data - np.frombuffer(whole, np.uint8, count=0).ctypes.data
    lo = -(-start // mmap.PAGESIZE) * mmap.PAGESIZE
    hi = (start + view.nbytes) // mmap.PAGESIZE * mmap.PAGESIZE
    if lo < hi:
        whole.obj.madvise(mmap.MADV_DONTNEED, lo, hi - lo)


def gru_params(name: str, d_in: int, hidden: int, params) -> dict[str, Parameter]:
    """Packed [z|r|n] gate weights for one GRU direction, from ``params``
    (a :class:`Fresh` or :class:`Saved` source)."""
    return {
        "wx": params.weight(f"{name}.wx", d_in, 3 * hidden, (d_in, 3 * hidden)),
        "wh": params.weight(f"{name}.wh", hidden, 3 * hidden, (hidden, 3 * hidden)),
        "b": params.zeros(f"{name}.b", (3 * hidden,)),
    }


def run_gru(params: dict, x: Tensor, active=None, reverse=False) -> Tensor:
    """All hidden states from a zero initial state, [m, H] for x [m, d] and
    [m, n, H] for x [m, n, d].  ``active`` [m, n] masks padded steps;
    ``reverse`` runs from the last step (see :func:`ksaqa.autodiff.gru_sequence`)."""
    h0 = Tensor(np.zeros(x.data.shape[1:-1] + (params["wh"].data.shape[0],)))
    return ad.gru_sequence(x, h0, params["wx"], params["wh"], params["b"], active, reverse)


def steps(lengths) -> np.ndarray:
    """Right-padding mask [max length, B]: step t of sequence b is real while
    t < lengths[b]."""
    lengths = np.asarray(lengths)
    return np.arange(lengths.max())[:, None] < lengths[None, :]


def padded(seqs) -> tuple[np.ndarray, np.ndarray]:
    """(ids [M, B], active [M, B]): B index sequences right-padded with row 0
    to the longest, M, and the mask of their real steps."""
    active = steps([len(q) for q in seqs])
    ids = np.zeros(active.shape, dtype=np.int64)
    ids.T[active.T] = np.concatenate(seqs)
    return ids, active


def bigru(fwd: dict, bwd: dict, x: Tensor, active=None) -> Tensor:
    """Bidirectional pass: the per-token states hs, [m, 2H] for x [m, d] and
    [m, n, 2H] for a batch x [m, n, d] right-padded as ``active`` [m, n] marks.
    The backward direction runs in reverse, under the mask flipped in time (left
    padding), so both directions end in their last step: ``hs[-1, ..., :H]`` and
    ``hs[0, ..., H:]`` are the final states."""
    f = run_gru(fwd, x, active=active)
    return ad.concat([f, run_gru(bwd, x, active=active, reverse=True)], axis=-1)


def linear_params(name: str, d_in: int, d_out: int, params) -> dict[str, Parameter]:
    return {
        "w": params.weight(f"{name}.w", d_in, d_out, (d_in, d_out)),
        "b": params.zeros(f"{name}.b", (d_out,)),
    }


def linear(params: dict, x: Tensor) -> Tensor:
    return ad.add(ad.matmul(x, params["w"]), params["b"])


def collect_params(tree) -> list[Parameter]:
    """Flatten a nested dict/list of Parameters, depth first."""
    out: list[Parameter] = []
    if isinstance(tree, Parameter):
        out.append(tree)
    elif isinstance(tree, dict):
        for key in tree:
            out.extend(collect_params(tree[key]))
    elif isinstance(tree, (list, tuple)):
        for item in tree:
            out.extend(collect_params(item))
    return out
