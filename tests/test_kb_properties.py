"""Property tests of the KB indexes and the alias artifact against the code
they replaced: every bisection lookup against the dicts and pair keys of
``kb_oracle``, on built and on loaded tables, ``AliasTable.load`` against
the table ``ingest_aliases`` built and saved, and ``ingest_triples`` against
stripping every id field as it is read."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings, strategies as st  # noqa: E402

from ksaqa.errors import CheckpointError, IngestError  # noqa: E402
from ksaqa.kb import (AliasTable, Interner, KnowledgeBase, ingest_aliases,  # noqa: E402
                      ingest_triples, read_tsv, strip_id_prefix, triple_keys)

from kb_oracle import AliasOracle, KbOracle, alias_rows  # noqa: E402


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
    """R(e) and the facts, searched in the triple keys, equal what the
    oracle's distinct pair keys give, for every entity and relation and
    for ids out of range."""
    ne, nr, keys = kb_keys
    kb = KnowledgeBase([f"e{i}" for i in range(ne)], [f"r{i}" for i in range(nr)], keys)
    want = KbOracle(kb.entities, kb.relations, keys)
    for e in range(-1, ne + 1):
        got = kb.subgraph_relations(e)
        assert got.dtype == np.int64 and got.tolist() == want.subgraph_relations(e)
        for r in range(-1, nr + 1):
            assert kb.has_fact(e, r) == want.has_fact(e, r)


# names from a few letters, so that one is often a prefix of another ("ab",
# "abc"), with non-ASCII letters of two, three and four UTF-8 bytes
letters = st.sampled_from(["a", "b", "c", " ", ".", "é", "中", "\U0001f600"])
names = st.text(letters, max_size=4)


def _near(texts):
    """Each text, the text less its last letter, and the text with one more."""
    return {t for text in texts for t in (text, text[:-1], text + "a", text + "\uffff")}


@st.composite
def worlds(draw):
    """(entity names, sorted relation names, sorted unique triple keys)."""
    entities = draw(st.lists(names, unique=True, max_size=12))
    relations = sorted(draw(st.lists(names, unique=True, max_size=5)))
    ne, nr = max(len(entities), 1), max(len(relations), 1)
    triples = draw(st.lists(st.tuples(st.integers(0, ne - 1), st.integers(0, nr - 1),
                                      st.integers(0, ne - 1)),
                            max_size=30 if entities and relations else 0))
    s, r, t = (np.array(col, dtype=np.int64) for col in zip(*triples)) if triples else \
        (np.empty(0, dtype=np.int64),) * 3
    return entities, relations, np.unique(triple_keys(s, r, t, ne, nr))


@pytest.fixture(scope="module")
def kb_path(tmp_path_factory):
    return tmp_path_factory.mktemp("kb") / "kb.npz"


@settings(max_examples=300, deadline=None)
@given(worlds(), st.lists(names, max_size=4))
@example((["ab", "abc", "a", ""], ["r", "r.", "é"], np.array([1, 40], dtype=np.int64)), ["\ud800"])
def test_name_lookups_equal_the_dict_oracle(kb_path, world, extra):
    entities, relations, keys = world
    built = KnowledgeBase(entities, relations, keys)
    built.save(kb_path)
    want = KbOracle(entities, relations, keys)
    queries = _near([*entities, *relations, *extra])
    for kb in (built, KnowledgeBase.load(kb_path)):
        assert (kb.entities, kb.relations) == (entities, relations)
        assert [kb.entity_name(e) for e in range(len(entities))] == entities
        for text in queries:
            assert kb.entity_id(text) == want.entity_id(text), text
            assert kb.relation_id(text) == want.relation_id(text), text
        for e in range(len(entities)):
            assert kb.subgraph_relations(e).tolist() == want.subgraph_relations(e)


# alias rows over a few entities and aliases: prefixes of each other, non-ASCII,
# one alias shared by many entities; an empty table too
alias_lines = st.lists(st.tuples(st.sampled_from(["01", "010", "0", "é1", "中", "b"]),
                                 st.sampled_from(["ab", "abc", "a", "é", "中 文", "x y", "ab c"])),
                       max_size=20)


@settings(max_examples=300, deadline=None)
@given(alias_lines, st.lists(names, max_size=4))
@example([], ["ab"])
@example([(e, "ab") for e in ("b", "01", "中", "0", "é1")] + [("01", "a"), ("0", "ab c")], [])
def test_alias_lookups_equal_the_dict_oracle(scratch, lines, extra):
    """The rows' own first-seen order is the oracle of ``aliases_of``, which
    the CLI's entity labels print the first of."""
    want = AliasOracle(dict.fromkeys(lines))
    table = ingest_aliases([f"{entity}\t{alias}\n" for entity, alias in lines])
    table.save(scratch)
    for got in (table, AliasTable.load(scratch)):
        assert len(got) == len(want)
        for text in _near([alias for _, alias in lines] + extra):
            assert got.entities_for_alias(text) == want.entities_for_alias(text), text
        assert got.entities_for_alias(["a", "b"]) == want.entities_for_alias(["a", "b"])
        for entity in _near([entity for entity, _ in lines] + extra):
            assert got.aliases_of(entity) == want.aliases_of(entity), entity


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
    assert back.rows == table.rows and np.array_equal(back.by_alias, table.by_alias)
    assert len(back) == len(table) == len(AliasOracle(alias_rows(table)))


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
        assert AliasTable.load(scratch).rows == table.rows
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
