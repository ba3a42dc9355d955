"""Workdir I/O: every file the pipeline leaves is written here, atomically.

Each write goes to a temp file beside its target, renamed over the target
once complete, so a failed or killed write leaves the old file as it was.

The artifacts that later stages read back (``kb.npz``, ``aliases.tsv``,
``vocab.txt`` and the ``*.jsonl`` splits) are sealed: :func:`seal` writes a
sibling manifest ``<name>.json`` holding the SHA-256 of the file's bytes,
and :func:`read_sealed` returns the bytes only while the digest matches, so
a reader parses what its stage wrote without re-validating it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from pathlib import Path

import numpy as np

from .errors import CheckpointError


@contextlib.contextmanager
def replacing(path):
    """A binary file handle on a temp file in the same directory, moved into
    place once the block completes; an exception leaves ``path`` as it was."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def save_text(path, text: str) -> None:
    with replacing(path) as fh:
        fh.write(text.encode("utf-8"))


def save_npz(path, **arrays) -> None:
    """Seal an uncompressed ``.npz`` archive of the named arrays."""
    buf = io.BytesIO()
    np.savez(buf, **arrays)
    seal(path, buf.getvalue())


def seal(path, data: bytes | str) -> None:
    """Write ``data`` (text as UTF-8) to ``path``, then its manifest ``<path>.json``."""
    blob = data.encode("utf-8") if isinstance(data, str) else data
    with replacing(path) as fh:
        fh.write(blob)
    save_text(f"{path}.json", json.dumps({"sha256": hashlib.sha256(blob).hexdigest()}) + "\n")


def read_sealed(path, stage: str) -> bytes:
    """The bytes of a file :func:`seal` wrote for ``stage``.

    A file whose bytes no longer match its manifest, or whose manifest is
    unreadable, is a CheckpointError naming the file and ``stage``.
    """
    blob = Path(path).read_bytes()
    try:
        digest = json.loads(Path(f"{path}.json").read_bytes())["sha256"]
    except (ValueError, TypeError, KeyError):    # also UnicodeDecodeError
        digest = None
    if digest != hashlib.sha256(blob).hexdigest():
        raise CheckpointError(f"{path} changed since {stage} wrote it; rerun {stage}")
    return blob
