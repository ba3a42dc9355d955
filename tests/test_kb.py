import numpy as np
import pytest

from ksaqa.errors import IngestError
from ksaqa.kb import (AliasTable, KnowledgeBase, distinct_sorted, ingest_aliases,
                      ingest_triples, normalize_text, strip_id_prefix, tokenize, triple_keys)

from corpus_util import EPREFIX, RPREFIX, micro_world
from kb_oracle import KbOracle, alias_rows


def test_tokenize_lowercases_and_splits_punctuation():
    assert tokenize("Who wrote Malcolm X?") == ["who", "wrote", "malcolm", "x", "?"]
    assert tokenize("it's  a test!") == ["it", "'", "s", "a", "test", "!"]
    assert tokenize("") == []


def test_tokenize_idempotent_on_own_output():
    toks = tokenize("Hello, World! (again)")
    assert tokenize(" ".join(toks)) == toks


def test_normalize_text_collapses_whitespace():
    assert normalize_text("  A   b\tC ") == "a b c"


def test_strip_id_prefix():
    assert strip_id_prefix("www.freebase.com/m/0f6v") == "0f6v"
    assert strip_id_prefix("/m/0f6v") == "0f6v"
    assert strip_id_prefix("www.freebase.com/book/author/works_written") == \
        "book/author/works_written"
    assert strip_id_prefix("plain") == "plain"


def test_ingest_counts_dedup_and_multi_object(micro):
    kb, _, _ = micro
    # 9 triple lines, one with two objects -> 10 logical triples, all unique
    assert kb.triple_count == 10
    assert kb.entity_count == 13
    assert kb.relation_count == 5


def test_duplicate_lines_are_deduplicated():
    line = f"{EPREFIX}a\t{RPREFIX}r/x\t{EPREFIX}b\n"
    kb = ingest_triples([line, line, line])
    assert kb.triple_count == 1


@pytest.mark.parametrize("n, high", [(0, 1), (1, 10), (2, 1), (50, 5), (5000, 2**40),
                                     (5000, 300)])
def test_sort_and_first_of_each_run_equal_np_unique(n, high):
    keys = np.random.default_rng(n + high).integers(0, high, n, dtype=np.int64)
    if n > 10:
        keys = np.concatenate([keys, keys[: n // 3]])   # duplicates apart from each other
    got, want = distinct_sorted(np.sort(keys)), np.unique(keys)
    assert got.dtype == want.dtype == np.int64
    np.testing.assert_array_equal(got, want)


def test_relations_are_lexicographically_ordered(micro):
    kb, _, _ = micro
    assert kb.relations == sorted(kb.relations)
    want = KbOracle(kb.entities, kb.relations, kb.triple_keys)
    assert [kb.subgraph_relations(e).tolist() for e in range(kb.entity_count)] == \
        [want.subgraph_relations(e) for e in range(kb.entity_count)]


def test_subgraph_relations_canonical_order(micro):
    kb, _, _ = micro
    e = kb.entity_id("01")
    rels = [kb.relations[r] for r in kb.subgraph_relations(e)]
    assert rels == ["book/author/works_written", "people/person/place_of_birth"]
    assert rels == sorted(rels)


def test_subgraph_of_object_only_entity_is_empty(micro):
    kb, _, _ = micro
    assert kb.subgraph_relations(kb.entity_id("40")).size == 0
    assert kb.subgraph_relations(-1).size == 0


def test_has_fact_and_objects(micro):
    kb, _, _ = micro
    s = kb.entity_id("01")
    r = kb.relation_id("book/author/works_written")
    assert kb.has_fact(s, r)
    objs = sorted(kb.entities[t] for t in kb.objects(s, r))
    assert objs == ["10", "11"]
    assert not kb.has_fact(s, kb.relation_id("music/artist/genre"))
    assert kb.objects(s, kb.relation_id("music/artist/genre")).size == 0


def test_triples_and_contains_round_trip(micro):
    kb, _, _ = micro
    hs, rs, ts = kb.triples()
    assert hs.size == kb.triple_count
    for h, r, t in zip(hs, rs, ts):
        assert kb.has_fact(int(h), int(r))
        assert int(t) in kb.objects(int(h), int(r)).tolist()
    assert kb.contains(hs, rs, ts).all()
    # every other tail of a present (h, r) pair is absent
    others = (ts + 1) % kb.entity_count
    want = [int(o) in kb.objects(int(h), int(r)).tolist() for h, r, o in zip(hs, rs, others)]
    assert kb.contains(hs, rs, others).tolist() == want
    assert kb.contains(hs[:0], rs[:0], ts[:0]).shape == (0,)


def test_triple_keys_refuse_an_int64_overflow():
    # checked before any index is read: no array of 2**31 entities is built
    with pytest.raises(IngestError, match="2147483648 entities and 4 relations"):
        triple_keys(0, 0, 0, 2 ** 31, 4)
    assert triple_keys(2 ** 31 - 1, 1, 2 ** 31 - 1, 2 ** 31, 2) == 2 ** 63 - 1


def test_lookups_of_the_last_entity_at_the_key_limit():
    """NE**2 * NR = 2**63, the most ingest takes: the last entity's key range
    ends at 2**63, past int64.  No KB of 2**31 names fits in memory, so the
    store is given only the counts and keys its triple lookups read."""
    ne, nr = 2 ** 31, 2
    kb = KnowledgeBase.__new__(KnowledgeBase)
    kb._ne, kb._nr = ne, nr
    kb.triple_keys = triple_keys(np.array([0, ne - 1, ne - 1]), np.array([1, 0, 1]),
                                 np.array([ne - 1, 5, ne - 1]), ne, nr)
    assert kb.triple_keys[-1] == 2 ** 63 - 1
    assert kb.subgraph_relations(ne - 1).tolist() == [0, 1]
    assert kb.subgraph_relations(0).tolist() == [1]
    assert kb.has_fact(ne - 1, 1) and kb.has_fact(ne - 1, 0) and not kb.has_fact(0, 0)
    assert kb.objects(ne - 1, 1).tolist() == [ne - 1]
    assert kb.objects(ne - 1, 0).tolist() == [5]


def _owner(a):
    """The object at the end of an array's chain of bases."""
    while isinstance(a, np.ndarray):
        a = a.base
    return a


def test_a_loaded_kb_and_alias_index_view_the_sealed_bytes(tmp_path, micro):
    kb, aliases, _ = micro
    kb.save(tmp_path / "kb.npz")
    aliases.save(tmp_path / "aliases.tsv")
    loaded = KnowledgeBase.load(tmp_path / "kb.npz")
    table = AliasTable.load(tmp_path / "aliases.tsv")
    for arrays, name in (((loaded.names, loaded.entity_order, loaded.triple_keys), "kb.npz"),
                         ((table.by_alias,), "aliases.idx.npz")):
        blob = _owner(arrays[0])
        assert isinstance(blob, bytes) and blob == (tmp_path / name).read_bytes()
        whole = np.frombuffer(blob, dtype=np.uint8)
        for a in arrays:
            assert _owner(a) is blob and np.shares_memory(a, whole)
            assert a.flags.aligned and not a.flags.writeable
    assert table.rows == (tmp_path / "aliases.tsv").read_bytes()


def test_kb_save_load_round_trip(tmp_path, micro):
    kb, _, _ = micro
    kb.save(tmp_path / "kb.npz")
    assert (tmp_path / "kb.npz.json").exists()      # its seal
    kb2 = KnowledgeBase.load(tmp_path / "kb.npz")
    assert kb2.entities == kb.entities
    assert kb2.relations == kb.relations
    assert np.array_equal(kb2.triple_keys, kb.triple_keys)
    assert np.array_equal(kb2.entity_order, kb.entity_order)
    assert [kb.entities[i] for i in kb.entity_order] == sorted(kb.entities)


def test_ingest_rejects_wrong_field_count():
    with pytest.raises(IngestError) as exc:
        ingest_triples(["a\tb\n"])
    assert exc.value.line_no == 1


def test_ingest_rejects_empty_field():
    with pytest.raises(IngestError) as exc:
        ingest_triples([f"{EPREFIX}a\t\t{EPREFIX}b\n"])
    assert exc.value.line_no == 1


def test_ingest_reports_correct_line_number():
    good = f"{EPREFIX}a\t{RPREFIX}r\t{EPREFIX}b\n"
    with pytest.raises(IngestError) as exc:
        ingest_triples([good, good, "broken line\n"])
    assert exc.value.line_no == 3


def test_alias_lookup_normalizes(micro):
    _, aliases, _ = micro
    assert aliases.entities_for_alias("John Smith") == {"01", "02"}
    assert aliases.entities_for_alias("john   smith") == {"01", "02"}
    assert aliases.entities_for_alias(["john", "smith"]) == {"01", "02"}
    assert aliases.entities_for_alias("no such alias") == set()


def test_alias_of_preserves_first_seen_order(micro):
    _, aliases, _ = micro
    assert aliases.aliases_of("01") == ["john smith", "j . smith"]
    assert aliases.aliases_of("unknown") == []


def test_alias_save_load_round_trip(tmp_path, micro):
    _, aliases, _ = micro
    aliases.save(tmp_path / "aliases.tsv")
    assert (tmp_path / "aliases.idx.npz.json").exists()      # the index is sealed too
    back = AliasTable.load(tmp_path / "aliases.tsv")
    assert back.entities_for_alias("mary jones") == {"03", "04"}
    assert len(back) == len(aliases)
    assert back.rows == aliases.rows and np.array_equal(back.by_alias, aliases.by_alias)


def test_alias_ingest_rejects_bad_line():
    with pytest.raises(IngestError):
        ingest_aliases(["only one field\n"])


def _alias_rows(table):
    return {e: table.aliases_of(e) for e, _ in alias_rows(table)}


def test_lone_carriage_return_is_field_text_in_files_and_strings(tmp_path):
    lines = ["01\tjohn\rsmith\n", "02\tmary\n"]
    path = tmp_path / "aliases.txt"
    path.write_bytes("".join(lines).encode("utf-8"))
    from_file, from_lines = ingest_aliases(path), ingest_aliases(lines)
    assert _alias_rows(from_file) == _alias_rows(from_lines)
    assert from_file.entities_for_alias("john smith") == {"01"}


def test_crlf_file_ingests_as_lf(tmp_path):
    lf = ["01\tjohn smith\n", "02\tmary jones\n", "\n", "03\tj . smith\n"]
    crlf = tmp_path / "crlf.txt"
    crlf.write_bytes("".join(line.replace("\n", "\r\n") for line in lf).encode("utf-8"))
    assert _alias_rows(ingest_aliases(crlf)) == _alias_rows(ingest_aliases(lf))
    triples = tmp_path / "triples.txt"
    triples.write_bytes(f"{EPREFIX}a\t{RPREFIX}r\t{EPREFIX}b\r\n".encode("utf-8"))
    assert ingest_triples(triples).entities == ingest_triples(
        [f"{EPREFIX}a\t{RPREFIX}r\t{EPREFIX}b\n"]).entities


def test_world_builder_consistency():
    world = micro_world()
    kb, _, _ = world.build()
    assert kb.triple_count == len(world.triples)
    for s, r, o in sorted(world.triples)[:5]:
        assert kb.has_fact(kb.entity_id(s), kb.relation_id(r))
