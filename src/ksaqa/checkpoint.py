"""Checkpoints: one float32 ``.npy`` vector plus a JSON manifest beside it.

``<name>.ckpt`` is a standard ``.npy`` file (format 1.0, NEP 1) holding a 1-D
little-endian float32 vector: the tensors' values back to back, in parameter
order, so ``np.load(path, mmap_mode="r")`` reads it.  The manifest
``<name>.ckpt.json`` holds the owner's config, a SHA-256 of each list
(vocabulary, relations, entities) the tensors are indexed by, and under
``tensors`` the ``[name, dims]`` table that slices the vector.

Arrays are saved as float32, each streamed into the file once found finite,
so a save holds one tensor's float32 copy at a time.  They load back as
float32 arrays on the mapped file, each checked finite through a bounded
read window, so a load maps in none of the payload pages and a later read
only what it touches; :class:`ksaqa.nn.Saved` widens each to float64 except
the tables read only through gathers, and gives back the pages it read to
widen.  Loading a file saved from already-float32-valued arrays reproduces
them bit-exactly.
"""

from __future__ import annotations

import hashlib
import json
import math
import mmap
import os
from pathlib import Path
from tokenize import TokenError

import numpy as np

from .artifacts import replacing, save_text
from .errors import CheckpointError, KsaqaError, NonFiniteError
from .nn import Saved

WINDOW = 1 << 18     # float32 values a load reads at a time to check them (1 MB)


def save_arrays(path, arrays: dict[str, np.ndarray]) -> list[list]:
    """Write named arrays back to back as one float32 vector; returns the
    ``[name, dims]`` table that slices it.  Refuses any not finite in float32."""
    items = list(arrays.items())
    table = [[name, list(arr.shape)] for name, arr in items]
    if len({name for name, _ in items}) != len(items):
        raise CheckpointError("duplicate tensor name in checkpoint input")
    total = sum(math.prod(dims) for _, dims in table)
    with replacing(path) as fh:
        np.lib.format.write_array_header_1_0(
            fh, {"descr": "<f4", "fortran_order": False, "shape": (total,)})
        for name, arr in items:
            a = np.ascontiguousarray(arr, dtype="<f4")
            if not np.isfinite(a).all():
                raise NonFiniteError(f"{path}: tensor {name} is not finite in float32; not saved")
            fh.write(a)
    return table


def _sizes(path, table) -> dict[str, int]:
    """The value count of each tensor of ``table``, which must be a list of
    ``[name, dims]`` with distinct names and dims of ints >= 0."""
    if not isinstance(table, list) or not all(
            isinstance(entry, list) and len(entry) == 2 and isinstance(entry[0], str)
            and isinstance(entry[1], list) and all(type(d) is int and d >= 0 for d in entry[1])
            for entry in table):
        raise CheckpointError(f"{path}.json: the tensor table is not a list of [name, dims]")
    sizes: dict[str, int] = {}
    for name, dims in table:
        if name in sizes:
            raise CheckpointError(f"{path}.json: the tensor table repeats {name!r}")
        sizes[name] = math.prod(dims)     # Python ints: no wrap
    return sizes


def load_arrays(path, table) -> dict[str, np.ndarray]:
    """The tensors that ``table`` slices out of the vector at ``path``, as
    read-only float32 arrays keyed by name.

    The file is mapped, not read into memory: each array is a view of the
    mapped pages, which come in as a reader touches them, and the map goes
    with the last view of it.  Saves replace a checkpoint by renaming a
    complete file over it, so a mapped file never changes under the reader.
    Each payload is checked finite as it is read through one window of
    WINDOW values, so the check leaves none of the file's pages in memory;
    a payload holding NaN or Inf is a CheckpointError naming the tensor.
    """
    sizes = _sizes(path, table)
    total = sum(sizes.values())
    with open(path, "rb") as fh:
        try:
            if np.lib.format.read_magic(fh) != (1, 0):
                raise ValueError("not .npy format 1.0")
            shape, fortran, dtype = np.lib.format.read_array_header_1_0(fh)
        except (ValueError, SyntaxError, TokenError) as exc:    # as numpy's reader raises them
            raise CheckpointError(f"{path}: not a .npy checkpoint ({exc})") from None
        if len(shape) != 1 or fortran or dtype != "<f4":
            raise CheckpointError(f"{path}: holds {dtype} of shape {shape}, not a float32 vector")
        if shape[0] != total:
            raise CheckpointError(f"{path}: holds {shape[0]} values, its table slices {total}")
        start = fh.tell()
        end = os.fstat(fh.fileno()).st_size
        if end != start + 4 * total:
            raise CheckpointError(f"{path}: {end} bytes, not the {start + 4 * total} of its header")
        mapped = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
        window = np.empty(WINDOW, dtype="<f4")
        arrays: dict[str, np.ndarray] = {}
        for name, dims in table:
            size = sizes[name]
            for done in range(0, size, WINDOW):
                part = window[: min(WINDOW, size - done)]
                fh.readinto(part)
                if not np.isfinite(part).all():
                    raise CheckpointError(f"{path}: tensor {name} is not finite")
            try:
                arrays[name] = np.frombuffer(mapped, "<f4", size, offset=start).reshape(dims)
            except ValueError:     # a 0 among dims whose other product overflows
                raise CheckpointError(f"{path}: no array has the dims {dims} of {name!r}") from None
            start += 4 * size
    return arrays


def fingerprint(texts: list[str]) -> str:
    return hashlib.sha256("\n".join(texts).encode("utf-8")).hexdigest()


def save_checkpoint(path, params, config: dict, **identity: list[str]) -> None:
    """Write the parameters to ``path``, then the manifest beside it, with
    the table that slices them.

    Each file is moved into place only once complete, and a non-finite
    tensor is refused before either file is replaced.
    """
    manifest = {"config": config}
    manifest.update({f"{key}_sha256": fingerprint(texts) for key, texts in identity.items()})
    manifest["tensors"] = save_arrays(path, {p.name: p.data for p in params})
    save_text(f"{path}.json", json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def load_checkpoint(path, build, **identity: list[str]):
    """``build(config, saved)`` from the manifest, its parameters taken from
    ``saved``, an :class:`nn.Saved` over the file's tensors.

    The file must hold exactly the parameters the owner takes, in their
    shapes and finite, and the manifest the hashes of the same ``identity``
    lists; any fault is a :class:`CheckpointError`.
    """
    where = f"{path}.json"
    try:
        manifest = json.loads(Path(where).read_text(encoding="utf-8"))
        if not isinstance(manifest, dict):
            raise ValueError("not a JSON object")
    except ValueError as exc:      # also JSONDecodeError, UnicodeDecodeError
        raise CheckpointError(f"{where}: unreadable manifest ({exc})") from None
    for key, texts in identity.items():
        if manifest.get(f"{key}_sha256") != fingerprint(texts):
            raise CheckpointError(f"{where} records no {key}_sha256, or a different {key}")
    if "tensors" not in manifest:
        raise CheckpointError(f"{where} records no tensor table: {path} predates .npy "
                              "checkpoints; rerun the stage that trained it")
    saved = Saved(load_arrays(path, manifest["tensors"]), str(path))
    try:
        owner = build(manifest["config"], saved)
    except CheckpointError:
        raise
    except (KeyError, TypeError, ValueError, KsaqaError) as exc:
        raise CheckpointError(f"{where}: no usable config ({type(exc).__name__}: {exc})") from None
    saved.check_all_taken()
    return owner
