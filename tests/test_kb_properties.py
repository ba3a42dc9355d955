"""Property tests of the KB indexes and the alias artifact against the code
they replaced: pair keys against ``np.unique``, ``AliasTable.load`` against
the table ``ingest_aliases`` built and saved, and ``ingest_triples`` against
stripping every id field as it is read."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings, strategies as st  # noqa: E402

from ksaqa.errors import CheckpointError, IngestError  # noqa: E402
from ksaqa.kb import (AliasTable, Interner, KnowledgeBase, ingest_aliases,  # noqa: E402
                      ingest_triples, read_tsv, strip_id_prefix, triple_keys)


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
    assert (back.entities, back.aliases) == (table.entities, table.aliases)
    assert back.map == table.map


@settings(max_examples=300, deadline=None)
@given(lines, st.one_of(st.binary(max_size=64), lines.map(lambda r: "\n".join(r).encode())))
@example(["m/01\tJohn"], b"01\tjohn\n")
def test_alias_load_reads_any_bytes_or_raises_checkpoint_error(scratch, rows, blob):
    """Bytes other than the ones ``save`` sealed are refused as a whole."""
    try:
        table = ingest_aliases(rows)
    except IngestError:
        assume(False)
    table.save(scratch)
    sealed = scratch.read_bytes()
    scratch.write_bytes(blob)
    if blob == sealed:
        assert AliasTable.load(scratch).map == table.map
        return
    with pytest.raises(CheckpointError) as exc:
        AliasTable.load(scratch)
    assert str(exc.value) == f"{scratch} changed since ingest-kb wrote it; rerun ingest-kb"


@settings(max_examples=300, deadline=None)
@given(field)
def test_strip_id_prefix_leaves_a_stripped_id_as_it_is(raw):
    once = strip_id_prefix(raw)
    assert strip_id_prefix(once) == once


def _ingest_stripping_every_field(rows):
    """(entities in id order, relations, triple texts) as ingest read them
    before raw ids were cached: one ``strip_id_prefix`` call per id field."""
    ents, rels, triples = Interner(), Interner(), set()
    for subj, rel, objs in read_tsv(rows, 3, lambda f: None if (
            f[0].strip() and f[1].strip() and f[2].strip()) else "empty field"):
        s = ents.intern(strip_id_prefix(subj))
        r = rels.intern(strip_id_prefix(rel))
        for obj in objs.split():
            t = ents.intern(strip_id_prefix(obj))
            triples.add((ents.texts[s], rels.texts[r], ents.texts[t]))
    return ents.texts, sorted(rels.texts), triples


# ids nested under "/", "m/" and "www.freebase.com/", padded with whitespace,
# drawn from a small pool so that raw and stripped ids repeat
ids = st.lists(st.sampled_from(["/", "m/", "www.freebase.com/", " ", "\x0b", "a", "b"]),
               min_size=1, max_size=6).map("".join)
triple_rows = st.lists(st.tuples(ids, ids, st.lists(ids, min_size=1, max_size=3).map(" ".join))
                       .map("\t".join), max_size=15)


@settings(max_examples=300, deadline=None)
@given(triple_rows)
def test_ingest_strips_each_raw_id_once_as_a_strip_per_field_would(rows):
    try:
        want_ents, want_rels, want_triples = _ingest_stripping_every_field(rows)
    except IngestError:
        with pytest.raises(IngestError):
            ingest_triples(rows)
        return
    kb = ingest_triples(rows)
    assert kb.entities == want_ents
    assert kb.relations == want_rels
    s, r, t = kb.triples()
    assert {(kb.entities[a], kb.relations[b], kb.entities[c])
            for a, b, c in zip(s, r, t)} == want_triples
    assert kb.triple_count == len(want_triples)
