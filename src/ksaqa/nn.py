"""Parameter bundles and functional layers shared by the learned modules.

Layers are pure functions over dicts of named Parameters, so a model is just
a dict-of-dicts and checkpointing is a flat name -> array walk.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Parameter, Rng, Tensor
from .errors import CheckpointError


def gru_params(name: str, d_in: int, hidden: int, rng: Rng) -> dict[str, Parameter]:
    """Packed [z|r|n] gate weights for one GRU direction."""
    return {
        "wx": Parameter(f"{name}.wx", ad.init_weight(rng, d_in, 3 * hidden, (d_in, 3 * hidden))),
        "wh": Parameter(f"{name}.wh", ad.init_weight(rng, hidden, 3 * hidden, (hidden, 3 * hidden))),
        "b": Parameter(f"{name}.b", np.zeros(3 * hidden)),
    }


def run_gru(params: dict, x: Tensor, h0: Tensor | None = None) -> Tensor:
    """All hidden states [m, H]; zero initial state unless given."""
    hidden = params["wh"].data.shape[0]
    if h0 is None:
        h0 = Tensor(np.zeros(hidden))
    return ad.gru_sequence(x, h0, params["wx"], params["wh"], params["b"])


def bigru(fwd: dict, bwd: dict, x: Tensor) -> tuple[Tensor, Tensor]:
    """Bidirectional pass: ([m, 2H] per-token states, [2H] final-state concat)."""
    f = run_gru(fwd, x)
    b = ad.flip0(run_gru(bwd, ad.flip0(x)))
    m = x.data.shape[0]
    hs = ad.concat([f, b], axis=1)
    u = ad.concat([f[m - 1], b[0]], axis=0)
    return hs, u


def linear_params(name: str, d_in: int, d_out: int, rng: Rng) -> dict[str, Parameter]:
    return {
        "w": Parameter(f"{name}.w", ad.init_weight(rng, d_in, d_out, (d_in, d_out))),
        "b": Parameter(f"{name}.b", np.zeros(d_out)),
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


def snapshot(params) -> dict[str, np.ndarray]:
    """Copies of the parameter values, keyed by name."""
    return {p.name: p.data.copy() for p in params}


def restore(params, state: dict[str, np.ndarray], source: str = "snapshot") -> None:
    """Copy ``state[name]`` into each parameter; names and shapes must match exactly."""
    names = {p.name for p in params}
    if names != state.keys():
        raise CheckpointError(f"{source}: missing tensors {sorted(names - state.keys())}, "
                              f"unexpected tensors {sorted(state.keys() - names)}")
    for p in params:
        if state[p.name].shape != p.data.shape:
            raise CheckpointError(f"{source}: {p.name} has shape {state[p.name].shape}, "
                                  f"expected {p.data.shape}")
    for p in params:
        p.data[...] = state[p.name]
