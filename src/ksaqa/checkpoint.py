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

Arrays are float64 in memory and float32 on disk.  Loading a file saved from
already-float32-valued arrays reproduces them bit-exactly.

The manifest ``<name>.ckpt.json`` holds the owner's config and a SHA-256 of
each list (vocabulary, relations) the tensors are indexed by.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from pathlib import Path

import numpy as np

from .errors import (BadMagicError, CheckpointError, DuplicateNameError, KsaqaError,
                     NonFiniteError, TruncatedCheckpointError)
from .nn import restore

MAGIC = b"KSAQA1"


def _write_atomic(path, blob: bytes) -> None:
    """Write to a temp file in the same directory, then move it into place."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_bytes(blob)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def save_arrays(path, arrays: dict[str, np.ndarray]) -> None:
    """Write named arrays in order; refuses any not finite in float32."""
    items = list(arrays.items())
    names = [name for name, _ in items]
    if len(set(names)) != len(names):
        raise DuplicateNameError("duplicate tensor name in checkpoint input")
    chunks = [MAGIC, struct.pack("<I", len(items))]
    for name, arr in items:
        nb = name.encode("utf-8")
        a = np.ascontiguousarray(arr, dtype=np.float32)
        if not np.isfinite(a).all():
            raise NonFiniteError(f"{path}: tensor {name} is not finite in float32; not saved")
        chunks.append(struct.pack("<I", len(nb)))
        chunks.append(nb)
        chunks.append(struct.pack("<I", a.ndim))
        chunks.append(struct.pack(f"<{a.ndim}I", *a.shape))
        chunks.append(a.tobytes())
    _write_atomic(path, b"".join(chunks))


def load_arrays(path) -> dict[str, np.ndarray]:
    """Read a checkpoint back as float64 arrays, keyed by name."""
    buf = Path(path).read_bytes()
    if len(buf) < len(MAGIC) or buf[: len(MAGIC)] != MAGIC:
        raise BadMagicError(f"{path}: not a KSAQA1 checkpoint")
    off = len(MAGIC)

    def take(n, what):
        nonlocal off
        if off + n > len(buf):
            raise TruncatedCheckpointError(off, f"{path}: truncated while reading {what}")
        piece = buf[off : off + n]
        off += n
        return piece

    (count,) = struct.unpack("<I", take(4, "entry count"))
    arrays: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<I", take(4, "name length"))
        # a garbled name still fails the owner's name check on load
        name = take(name_len, "name").decode("utf-8", "replace")
        if name in arrays:
            raise DuplicateNameError(f"{path}: duplicate entry {name!r}")
        (rank,) = struct.unpack("<I", take(4, "rank"))
        dims = struct.unpack(f"<{rank}I", take(4 * rank, "dims")) if rank else ()
        n = int(np.prod(dims, dtype=np.int64)) if rank else 1
        payload = take(4 * n, f"payload of {name!r}")
        arrays[name] = np.frombuffer(payload, dtype="<f4").astype(np.float64).reshape(dims)
    return arrays


def fingerprint(texts: list[str]) -> str:
    return hashlib.sha256("\n".join(texts).encode("utf-8")).hexdigest()


def save_checkpoint(path, params, config: dict, **identity: list[str]) -> None:
    """Write the parameters to ``path``, then the manifest beside it.

    Each file is moved into place only once complete, and a non-finite
    tensor is refused before either file is touched.
    """
    manifest = {"config": config}
    manifest.update({f"{key}_sha256": fingerprint(texts) for key, texts in identity.items()})
    save_arrays(path, {p.name: p.data for p in params})
    _write_atomic(f"{path}.json",
                  (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode("utf-8"))


def load_checkpoint(path, build, **identity: list[str]):
    """``build(config)`` from the manifest, with the saved tensors copied in.

    The file must hold exactly the owner's ``parameters()``, in their shapes,
    and the manifest the hashes of the same ``identity`` lists; any fault is
    a :class:`CheckpointError`.
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
    try:
        owner = build(manifest["config"])
    except (KeyError, TypeError, ValueError, KsaqaError) as exc:
        raise CheckpointError(f"{where}: no usable config ({type(exc).__name__}: {exc})") from None
    restore(owner.parameters(), load_arrays(path), source=str(path))
    return owner
