"""Property tests of the input readers: the line parsers fail only with
IngestError and ``load_arrays`` only with CheckpointError, whatever file and
whatever tensor table it reads."""

import io
import struct

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from ksaqa.checkpoint import load_arrays  # noqa: E402
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


# a valid checkpoint: the vector of tensors "a" of shape (2,) and "b" of shape (1, 2)
TABLE = [["a", [2]], ["b", [1, 2]]]
_buf = io.BytesIO()
np.save(_buf, np.array([1.0, 2.0, 3.0, 4.0], dtype="<f4"))
VALID = _buf.getvalue()
NPY = VALID[:8]      # the .npy magic and format version 1.0

# header texts near the format: each key drawn from right and wrong values
header_text = st.one_of(
    st.builds(lambda descr, fortran, shape: repr(
        {"descr": descr, "fortran_order": fortran, "shape": shape}),
        st.sampled_from(["<f4", ">f4", "<f8", "|u1", "<f4x", "O", ""]),
        st.one_of(st.booleans(), st.integers(-1, 2)),
        st.one_of(st.tuples(st.integers(-2, 2 ** 70)),
                  st.lists(st.integers(-2, 8), max_size=3).map(tuple),
                  st.integers(0, 4))),
    st.text(max_size=40))
header = st.tuples(header_text.map(str.encode), st.integers(0, 2 ** 16 - 1)).map(
    lambda h: NPY + struct.pack("<H", min(len(h[0]), h[1]) if h[1] % 2 else len(h[0])) + h[0])


def _loads_or_refuses(path, table):
    try:
        arrays = load_arrays(path, table)
    except CheckpointError:
        return
    assert [name for name, _ in table] == list(arrays)
    assert all(a.dtype == np.float32 for a in arrays.values())


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.binary(max_size=64), st.binary(max_size=64).map(NPY.__add__),
                 st.tuples(header, st.binary(max_size=24)).map(b"".join),
                 st.tuples(st.integers(0, len(VALID) - 1), st.binary(min_size=1, max_size=8))
                 .map(lambda cut: VALID[:cut[0]] + cut[1] + VALID[cut[0] + len(cut[1]):])))
def test_any_bytes_load_or_raise_checkpoint_error(scratch, blob):
    """Any bytes under a valid table."""
    scratch.write_bytes(blob)
    _loads_or_refuses(scratch, TABLE)


def test_every_truncation_raises_checkpoint_error(scratch):
    for cut in range(len(VALID)):
        scratch.write_bytes(VALID[:cut])
        with pytest.raises(CheckpointError):
            load_arrays(scratch, TABLE)


json_value = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=3)),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=12)
# tables near the format: names that repeat, dims that are negative, not
# ints, or whose product passes numpy's limits
dim = st.one_of(st.integers(0, 4), st.integers(-3, -1), st.integers(2 ** 31, 2 ** 70),
                st.booleans(), st.floats(0, 4), st.text(max_size=1))
entry = st.one_of(st.tuples(st.sampled_from(["a", "b", "c"]), st.lists(dim, max_size=4))
                  .map(list), json_value)
table = st.one_of(json_value, st.lists(entry, max_size=4))


@settings(max_examples=300, deadline=None)
@given(table)
def test_any_json_table_loads_or_raises_checkpoint_error(scratch, tensors):
    scratch.write_bytes(VALID)
    _loads_or_refuses(scratch, tensors)
