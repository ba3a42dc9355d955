"""Byte-level edits of a checkpoint's float32 vector, for values a save would refuse."""

import io
import math
import mmap
import struct

import numpy as np

PAGE = mmap.PAGESIZE
# a tensor under a page, then one of several pages that starts mid-page, then
# another under a page
PAGED = {"head": np.ones(5), "wide": np.ones(3 * PAGE // 4 + 7), "tail": np.ones(3)}


def payload_offset(blob: bytes, table: list, tensor: str) -> int:
    """The byte offset of the payload of ``tensor`` in the checkpoint ``blob``
    that ``table`` slices: the ``.npy`` header, then 4 bytes per value before it."""
    fh = io.BytesIO(blob)
    np.lib.format.read_magic(fh)
    np.lib.format.read_array_header_1_0(fh)
    start = 0
    for name, dims in table:
        if name == tensor:
            return fh.tell() + 4 * start
        start += math.prod(dims)
    raise KeyError(tensor)


def set_value(path, table: list, tensor: str, index: int, value: float) -> None:
    """Overwrite float32 ``index`` of the payload of ``tensor`` in the file at ``path``."""
    blob = bytearray(path.read_bytes())
    struct.pack_into("<f", blob, payload_offset(blob, table, tensor) + 4 * index, value)
    path.write_bytes(bytes(blob))
