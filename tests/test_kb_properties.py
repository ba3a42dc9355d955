"""Property tests of the KB indexes and the alias artifact against the code
they replaced: pair keys against ``np.unique``, and ``AliasTable.load``
against re-ingesting the file with ``ingest_aliases``."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from ksaqa.errors import CheckpointError, IngestError  # noqa: E402
from ksaqa.kb import (AliasTable, KnowledgeBase, ingest_aliases, normalize_text,  # noqa: E402
                      strip_id_prefix, triple_keys)


@st.composite
def kbs(draw):
    """(entity count, sorted unique triple keys) of a random KB, empty ones included."""
    ne = draw(st.integers(1, 9))
    nr = draw(st.integers(1, 5))
    triples = draw(st.lists(st.tuples(st.integers(0, ne - 1), st.integers(0, nr - 1),
                                      st.integers(0, ne - 1)), max_size=40))
    s, r, t = (np.array(col, dtype=np.int64) for col in zip(*triples)) if triples else \
        (np.empty(0, dtype=np.int64),) * 3
    return ne, nr, np.unique(triple_keys(s, r, t, ne, nr))


@settings(max_examples=300, deadline=None)
@given(kbs())
def test_pair_keys_equal_unique_of_the_triple_keys(kb_keys):
    ne, nr, keys = kb_keys
    kb = KnowledgeBase([f"e{i}" for i in range(ne)], [f"r{i}" for i in range(nr)], keys)
    want = np.unique(keys // ne)
    assert kb.pair_keys.dtype == want.dtype == np.int64
    assert np.array_equal(kb.pair_keys, want)


# ids and aliases with prefixes, padding, punctuation and case to strip or normalize
pieces = st.sampled_from(["/", "m/", "www.freebase.com/", " ", "\r", "\x0b", "x", "B", "0",
                          ".", "?", "é", "İ", "ß"])
field = st.one_of(st.lists(pieces, max_size=8).map("".join),
                  st.text(st.characters(exclude_categories=["Cs"], exclude_characters="\t\n"),
                          max_size=10))
lines = st.lists(st.tuples(field, field).map("\t".join), max_size=12)


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("aliases") / "aliases.tsv"


@settings(max_examples=300, deadline=None)
@given(lines)
def test_alias_load_reads_back_what_ingest_built(scratch, rows):
    try:
        table = ingest_aliases(rows)
    except IngestError:
        assume(False)
    table.save(scratch)
    back = AliasTable.load(scratch)
    assert back.map == table.map
    assert back.reverse == table.reverse


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.binary(max_size=64), lines.map(lambda r: "\n".join(r).encode())))
def test_alias_load_reads_any_bytes_or_raises_checkpoint_error(scratch, blob):
    scratch.write_bytes(blob)
    try:
        table = AliasTable.load(scratch)
    except CheckpointError as exc:
        assert str(exc).startswith(f"{scratch}: line ") and "rerun ingest-kb" in str(exc)
        return
    for alias, entities in table.map.items():
        assert alias == normalize_text(alias) and alias
        assert all(e == strip_id_prefix(e) for e in entities)


@settings(max_examples=300, deadline=None)
@given(field)
def test_strip_id_prefix_leaves_a_stripped_id_as_it_is(raw):
    once = strip_id_prefix(raw)
    assert strip_id_prefix(once) == once
