"""Property tests of the input readers: the line parsers fail only with
IngestError and ``load_arrays`` only with CheckpointError, whatever they read."""

import io
import struct

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from ksaqa.checkpoint import MAGIC, load_arrays  # noqa: E402
from ksaqa.dataset import parse_simplequestions  # noqa: E402
from ksaqa.errors import CheckpointError, IngestError  # noqa: E402
from ksaqa.kb import ingest_aliases, ingest_triples  # noqa: E402

PARSERS = [ingest_triples, ingest_aliases, parse_simplequestions]

# lines near the formats, so that the parsers get past the field count
fields = st.text(st.characters(exclude_categories=["Cs"], exclude_characters="\t\n"), max_size=12)
rows = st.builds("\t".join, st.lists(fields, min_size=1, max_size=5))
text = st.one_of(st.text(), st.lists(rows, max_size=6).map("\n".join))


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input"


def _parses_or_refuses(parser, source):
    try:
        parser(source)
    except IngestError:
        pass


@pytest.mark.parametrize("parser", PARSERS, ids=lambda p: p.__name__)
@settings(max_examples=200, deadline=None)
@given(text)
def test_any_text_parses_or_raises_ingest_error(parser, doc):
    _parses_or_refuses(parser, io.StringIO(doc))


@pytest.mark.parametrize("parser", PARSERS, ids=lambda p: p.__name__)
@settings(max_examples=200, deadline=None)
@given(st.one_of(st.binary(max_size=64), text.map(str.encode)))
def test_any_file_bytes_parse_or_raise_ingest_error(parser, scratch, blob):
    scratch.write_bytes(blob)
    _parses_or_refuses(parser, scratch)


# a valid file holding one tensor "a" of shape (2,)
VALID = MAGIC + struct.pack("<II", 1, 1) + b"a" + struct.pack("<II2f", 1, 2, 1.0, 2.0)

# the head of a file: magic, count, name length, name, rank, dims
head = st.builds(lambda count, name, rank, dims: (
    MAGIC + struct.pack("<II", count, len(name)) + name
    + struct.pack(f"<I{len(dims)}I", rank, *dims)),
    st.integers(0, 3), st.binary(max_size=3), st.integers(0, 5),
    st.lists(st.integers(0, 2 ** 32 - 1), max_size=5))


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.binary(max_size=64), st.binary(max_size=64).map(MAGIC.__add__),
                 st.tuples(head, st.binary(max_size=32)).map(b"".join),
                 st.tuples(st.integers(0, len(VALID)), st.binary(max_size=8))
                 .map(lambda cut: VALID[:cut[0]] + cut[1])))
def test_any_bytes_load_or_raise_checkpoint_error(scratch, blob):
    scratch.write_bytes(blob)
    try:
        arrays = load_arrays(scratch)
    except CheckpointError:
        return
    assert all(isinstance(name, str) for name in arrays)
