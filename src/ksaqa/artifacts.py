"""Workdir I/O: every file the pipeline leaves is written here, atomically.

Each write goes to a temp file beside its target, renamed over the target
once complete, so a failed or killed write leaves the old file as it was.

The artifacts that later stages read back (``kb.npz``, ``aliases.tsv``,
``vocab.txt`` and the ``*.jsonl`` splits) are sealed: :func:`seal` writes a
sibling manifest ``<name>.json`` holding the SHA-256 of the file's bytes,
and :func:`read_sealed` returns the bytes only while the digest matches, so
a reader parses what its stage wrote without re-validating it.  An
archive that :func:`save_npz` sealed is read in place: :func:`npz_views`
gives its arrays as read-only views of the sealed bytes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import struct
import zipfile
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


# an array's data starts this far into its .npy member (``np.lib.format``
# pads the header so), and save_npz starts each member on such a boundary
_ALIGN = 64
_PADDING_FIELD = 0xD935      # the extra-field id of zipalign's padding


def save_npz(path, **arrays) -> None:
    """Seal an uncompressed ``.npz`` archive of the named arrays.

    Each member's local header ends in a padding field that puts the member,
    and so its array data, at a multiple of 64 bytes in the file, where
    :func:`npz_views` reads them aligned.
    """
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w") as zf:
        for name, value in arrays.items():
            info = zipfile.ZipInfo(f"{name}.npy")
            # the local header: 30 fixed bytes, the name, the padding field and
            # the 20-byte ZIP64 field that force_zip64 adds
            pad = -(buf.tell() + 30 + len(info.filename) + 4 + 20) % _ALIGN
            info.extra = struct.pack("<HH", _PADDING_FIELD, pad) + bytes(pad)
            with zf.open(info, "w", force_zip64=True) as fh:
                np.lib.format.write_array(fh, np.asanyarray(value), allow_pickle=False)
    seal(path, buf.getvalue())


def npz_views(blob: bytes) -> dict[str, np.ndarray]:
    """The arrays of a :func:`save_npz` archive's bytes, by name, as read-only
    views of ``blob``: no array is copied."""
    views = {}
    fh = io.BytesIO(blob)        # shares the bytes until written
    with zipfile.ZipFile(fh) as zf:
        members = zf.infolist()
    for info in members:
        name_len, extra_len = struct.unpack_from("<HH", blob, info.header_offset + 26)
        fh.seek(info.header_offset + 30 + name_len + extra_len)
        version = np.lib.format.read_magic(fh)
        shape, fortran, dtype = (np.lib.format.read_array_header_1_0 if version == (1, 0)
                                 else np.lib.format.read_array_header_2_0)(fh)
        views[info.filename.removesuffix(".npy")] = np.frombuffer(
            blob, dtype, math.prod(shape), fh.tell()).reshape(shape, order="F" if fortran else "C")
    return views


def seal(path, data: bytes | str) -> str:
    """Write ``data`` (text as UTF-8) to ``path``, then its manifest
    ``<path>.json``; returns the SHA-256 it records, in hex."""
    blob = data.encode("utf-8") if isinstance(data, str) else data
    with replacing(path) as fh:
        fh.write(blob)
    digest = hashlib.sha256(blob).hexdigest()
    save_text(f"{path}.json", json.dumps({"sha256": digest}) + "\n")
    return digest


def sealed_digest(path) -> str | None:
    """The SHA-256 that ``<path>.json`` records, or None if it records none."""
    try:
        return json.loads(Path(f"{path}.json").read_bytes())["sha256"]
    except (ValueError, TypeError, KeyError):    # also UnicodeDecodeError
        return None


def read_sealed(path, stage: str) -> bytes:
    """The bytes of a file :func:`seal` wrote for ``stage``.

    A file whose bytes no longer match its manifest, or whose manifest is
    unreadable, is a CheckpointError naming the file and ``stage``.
    """
    blob = Path(path).read_bytes()
    if sealed_digest(path) != hashlib.sha256(blob).hexdigest():
        raise CheckpointError(f"{path} changed since {stage} wrote it; rerun {stage}")
    return blob
