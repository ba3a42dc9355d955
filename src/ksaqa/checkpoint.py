"""Checkpoints: a binary tensor file plus a JSON manifest beside it.

Tensor file layout (all integers little-endian):

    magic   6 bytes  b"KSAQA1"
    count   u32      number of entries
    entry   repeated:
        name_len u32
        name     UTF-8 bytes
        rank     u32
        dims     rank * u32
        payload  prod(dims) * f32

Arrays are saved as float32, each streamed into the file once found finite,
so a save holds one tensor's float32 copy at a time.  They load back as
float32 arrays on the mapped file, each checked finite through a bounded
read window, so a load maps in none of the payload pages and a later read
only what it touches; :class:`ksaqa.nn.Saved` widens each to float64 except
the tables read only through gathers, and gives back the pages it read to
widen.  Loading a file saved from already-float32-valued arrays reproduces
them bit-exactly.

The manifest ``<name>.ckpt.json`` holds the owner's config and a SHA-256 of
each list (vocabulary, relations, entities) the tensors are indexed by.
"""

from __future__ import annotations

import hashlib
import json
import math
import mmap
import os
import struct
from pathlib import Path

import numpy as np

from .artifacts import replacing, save_text
from .errors import (BadMagicError, CheckpointError, DuplicateNameError, KsaqaError,
                     NonFiniteError, TruncatedCheckpointError)
from .nn import Saved

MAGIC = b"KSAQA1"
WINDOW = 1 << 18     # float32 values a load reads at a time to check them (1 MB)


def save_arrays(path, arrays: dict[str, np.ndarray]) -> None:
    """Write named arrays in order; refuses any not finite in float32."""
    items = list(arrays.items())
    names = [name for name, _ in items]
    if len(set(names)) != len(names):
        raise DuplicateNameError("duplicate tensor name in checkpoint input")
    with replacing(path) as fh:
        fh.write(MAGIC + struct.pack("<I", len(items)))
        for name, arr in items:
            nb = name.encode("utf-8")
            a = np.ascontiguousarray(arr, dtype="<f4")
            if not np.isfinite(a).all():
                raise NonFiniteError(f"{path}: tensor {name} is not finite in float32; not saved")
            fh.write(struct.pack(f"<I{len(nb)}sI{a.ndim}I", len(nb), nb, a.ndim, *a.shape))
            fh.write(a)


def load_arrays(path) -> dict[str, np.ndarray]:
    """Read a checkpoint back as read-only float32 arrays, keyed by name.

    The file is mapped, not read into memory: each array is a view of the
    mapped pages, which come in as a reader touches them, and the map goes
    with the last view of it.  Saves replace a checkpoint by renaming a
    complete file over it, so a mapped file never changes under the reader.
    Each payload is checked finite as it is read through one window of
    WINDOW values, so the check leaves none of the file's pages in memory;
    a payload holding NaN or Inf is a CheckpointError naming the tensor.
    """
    with open(path, "rb") as fh:
        end = os.fstat(fh.fileno()).st_size
        # mmap refuses an empty file, which holds no magic anyway
        mapped = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ) if end else b""
        if fh.read(len(MAGIC)) != MAGIC:
            raise BadMagicError(f"{path}: not a KSAQA1 checkpoint")
        off = len(MAGIC)
        window = np.empty(WINDOW, dtype="<f4")

        def skip(n, what):
            """The offset of the next ``n`` bytes, which must be in the file."""
            nonlocal off
            if off + n > end:
                raise TruncatedCheckpointError(off, f"{path}: truncated while reading {what}")
            off += n
            return off - n

        def take(n, what):
            skip(n, what)
            return fh.read(n)

        (count,) = struct.unpack("<I", take(4, "entry count"))
        arrays: dict[str, np.ndarray] = {}
        for _ in range(count):
            (name_len,) = struct.unpack("<I", take(4, "name length"))
            # a garbled name still fails the owner's name check on load
            name = str(take(name_len, "name"), "utf-8", "replace")
            if name in arrays:
                raise DuplicateNameError(f"{path}: duplicate entry {name!r}")
            (rank,) = struct.unpack("<I", take(4, "rank"))
            dims = struct.unpack(f"<{rank}I", take(4 * rank, "dims")) if rank else ()
            size = math.prod(dims)     # Python ints: no wrap
            start = skip(4 * size, f"payload of {name!r}")
            for done in range(0, size, WINDOW):
                part = window[: min(WINDOW, size - done)]
                fh.readinto(part)
                if not np.isfinite(part).all():
                    raise CheckpointError(f"{path}: tensor {name} is not finite")
            try:
                arrays[name] = np.frombuffer(mapped, "<f4", size, offset=start).reshape(dims)
            except ValueError:     # a 0 among dims whose other product overflows
                raise CheckpointError(f"{path}: no array has the dims {dims} of {name!r}") from None
    return arrays


def fingerprint(texts: list[str]) -> str:
    return hashlib.sha256("\n".join(texts).encode("utf-8")).hexdigest()


def save_checkpoint(path, params, config: dict, **identity: list[str]) -> None:
    """Write the parameters to ``path``, then the manifest beside it.

    Each file is moved into place only once complete, and a non-finite
    tensor is refused before either file is replaced.
    """
    manifest = {"config": config}
    manifest.update({f"{key}_sha256": fingerprint(texts) for key, texts in identity.items()})
    save_arrays(path, {p.name: p.data for p in params})
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
    saved = Saved(load_arrays(path), str(path))
    try:
        owner = build(manifest["config"], saved)
    except CheckpointError:
        raise
    except (KeyError, TypeError, ValueError, KsaqaError) as exc:
        raise CheckpointError(f"{where}: no usable config ({type(exc).__name__}: {exc})") from None
    saved.check_all_taken()
    return owner
