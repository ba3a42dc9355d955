"""Byte-level edits of a KSAQA1 checkpoint, for values a save would refuse."""

import math
import mmap
import struct

import numpy as np

from ksaqa.checkpoint import MAGIC

PAGE = mmap.PAGESIZE
# a tensor under a page, then one of several pages that starts mid-page, then
# another under a page
PAGED = {"head": np.ones(5), "wide": np.ones(3 * PAGE // 4 + 7), "tail": np.ones(3)}


def payload_offset(blob: bytes, tensor: str) -> int:
    """The byte offset of the payload of ``tensor`` in the checkpoint ``blob``."""
    off = len(MAGIC) + 4
    while True:
        (name_len,) = struct.unpack_from("<I", blob, off)
        name = blob[off + 4 : off + 4 + name_len].decode("utf-8")
        off += 4 + name_len
        (rank,) = struct.unpack_from("<I", blob, off)
        dims = struct.unpack_from(f"<{rank}I", blob, off + 4)
        off += 4 + 4 * rank
        if name == tensor:
            return off
        off += 4 * math.prod(dims)


def set_value(path, tensor: str, index: int, value: float) -> None:
    """Overwrite float32 ``index`` of the payload of ``tensor`` in the file at ``path``."""
    blob = bytearray(path.read_bytes())
    struct.pack_into("<f", blob, payload_offset(blob, tensor) + 4 * index, value)
    path.write_bytes(bytes(blob))
