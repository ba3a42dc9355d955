"""The artifact module: its writes are atomic, and it is the only writer."""

import ast
from pathlib import Path

import numpy as np
import pytest

from ksaqa.artifacts import replacing
from ksaqa.kb import KnowledgeBase

SRC = Path(__file__).resolve().parent.parent / "src" / "ksaqa"


def _writes(tree):
    """Line numbers of the calls in ``tree`` that write a file: ``open`` in a
    mode other than read (or in a mode not spelled out), ``write_text``,
    ``write_bytes``, ``np.savez`` and ``os.replace``."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        attr = func.attr if isinstance(func, ast.Attribute) else None
        owner = func.value.id if attr and isinstance(func.value, ast.Name) else None
        if attr in ("write_text", "write_bytes", "savez", "savez_compressed") or (
                attr == "replace" and owner == "os"):
            yield node.lineno
        elif (func.id if isinstance(func, ast.Name) else attr) == "open":
            # open(file, mode) and io.open(file, mode), but Path.open(mode)
            at = 0 if attr and owner != "io" else 1
            mode = next((k.value for k in node.keywords if k.arg == "mode"),
                        node.args[at] if len(node.args) > at else None)
            if mode is not None and not (isinstance(mode, ast.Constant)
                                         and set(str(mode.value)) <= set("rbt")):
                yield node.lineno


@pytest.mark.parametrize("path", sorted(SRC.rglob("*.py")), ids=lambda p: p.name)
def test_only_the_artifact_module_writes_files(path):
    writes = list(_writes(ast.parse(path.read_text(encoding="utf-8"))))
    if path.name == "artifacts.py":
        assert writes, "the scan finds no write in the artifact module itself"
    else:
        assert not writes, f"{path.name} writes a file at lines {writes}"


@pytest.mark.parametrize("code,writes", [
    ('open(p, "w")', True), ('open(p, mode="a")', True), ('open(p, "r+")', True),
    ("open(p, m)", True), ('io.open(p, "xb")', True), ('p.open("wb")', True),
    ('p.write_text("x")', True), ('p.write_bytes(b"")', True), ("np.savez(p, a=a)", True),
    ("os.replace(a, b)", True),
    ("open(p)", False), ('open(p, "rb")', False), ('open(p, encoding="utf-8")', False),
    ("p.open()", False), ('s.replace("a", "b")', False), ("np.load(p)", False),
])
def test_the_scan_tells_writes_from_reads(code, writes):
    assert bool(list(_writes(ast.parse(code)))) == writes


def _kb():
    return KnowledgeBase(["e0", "e1"], ["r0"], np.array([1], dtype=np.int64))


class _Raising:
    """An array that raises when a writer asks for its values."""

    def __array__(self, dtype=None, copy=None):
        raise RuntimeError("interrupted mid-payload")


@pytest.mark.parametrize("writer", ["kb.npz", "replacing"])
def test_a_writer_that_raises_mid_payload_leaves_the_old_file(tmp_path, writer):
    path = tmp_path / writer
    _kb().save(path)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    with pytest.raises(RuntimeError, match="mid-payload"):
        if writer == "kb.npz":      # the names are in the archive when the keys raise
            kb = _kb()
            kb.triple_keys = _Raising()
            kb.save(path)
        else:
            with replacing(path) as fh:
                fh.write(b"the first half")
                raise RuntimeError("interrupted mid-payload")
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

