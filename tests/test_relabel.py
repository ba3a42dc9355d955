import json

import numpy as np
import pytest

from ksaqa.artifacts import seal
from ksaqa.autodiff import Rng
from ksaqa.dataset import format_question
from ksaqa.errors import CheckpointError
from ksaqa.kb import ingest_aliases, ingest_triples
from ksaqa.relabel import (ambiguity_rate, build_pattern_index, export_jsonl,
                           is_ambiguous, load_jsonl, negative_pool,
                           plausible_set, relabel_dataset, sample_negatives,
                           write_report)

from corpus_util import (micro_world, oracle_pattern_index, oracle_plausible,
                         oracle_negative_pool, random_instance)


@pytest.fixture(scope="module")
def labeled(micro_module):
    kb, aliases, records = micro_module
    formatted = [format_question(r, aliases) for r in records]
    index = build_pattern_index(records, formatted)
    examples, skipped = relabel_dataset(records, formatted, kb, aliases, index)
    return kb, aliases, records, index, examples, skipped


@pytest.fixture(scope="module")
def micro_module():
    return micro_world().build()


def test_gold_always_contained(labeled):
    _, _, _, _, examples, _ = labeled
    for ex in examples:
        assert ex.gold in ex.positives


def test_cross_entity_alias_creates_ambiguity(labeled):
    _, _, _, _, examples, _ = labeled
    by_text = {" ".join(ex.record.tokens): ex for ex in examples}
    ex = by_text["what did john smith write"]
    assert ex.positives == {("01", "book/author/works_written"),
                            ("02", "book/author/works_written")}
    assert ex.ambiguous
    assert is_ambiguous(ex)


def test_unambiguous_when_pattern_unique(labeled):
    _, _, _, _, examples, _ = labeled
    by_text = {" ".join(ex.record.tokens): ex for ex in examples}
    ex = by_text["what genre is mary"]
    assert ex.positives == {("04", "music/artist/genre")}
    assert not ex.ambiguous


def test_has_fact_gate_blocks_unattested_pairs(labeled):
    kb, _, _, _, examples, _ = labeled
    for ex in examples:
        for s, r in ex.positives:
            assert kb.has_fact(kb.entity_id(s), kb.relation_id(r))


def test_ambiguity_rate_matches_manual_count(labeled):
    _, _, _, _, examples, _ = labeled
    manual = sum(1 for ex in examples if len(ex.positives) >= 2) / len(examples)
    assert ambiguity_rate(examples) == manual


def test_pattern_index_union_over_duplicates(labeled):
    _, _, records, index, _, _ = labeled
    # "which film stars <e>" appears with two different subjects, one relation
    rels = index.relations_for("which film stars <e>")
    assert rels == {"film/actor/film"}
    assert index.relations_for("never seen pattern") == set()


def test_monotonicity_adding_patterns_never_shrinks_sets():
    world = micro_world()
    kb, aliases, records = world.build()
    formatted = [format_question(r, aliases) for r in records]
    half_index = build_pattern_index(records[:4], formatted[:4])
    full_index = build_pattern_index(records, formatted)
    for rec, fq in zip(records, formatted):
        if fq is None:
            continue
        small = plausible_set(rec, fq, kb, aliases, half_index).pairs
        big = plausible_set(rec, fq, kb, aliases, full_index).pairs
        assert small <= big


def test_negative_pool_excludes_plausible_relations(labeled):
    kb, _, _, _, examples, _ = labeled
    by_text = {" ".join(ex.record.tokens): ex for ex in examples}
    ex = by_text["what did john smith write"]
    pool = negative_pool(ex, "01", kb)
    assert pool == [kb.relation_id("people/person/place_of_birth")]
    assert pool == sorted(pool)


def test_sample_negatives_deterministic_and_capped():
    pool = [f"r{i}" for i in range(10)]
    a = sample_negatives(pool, 5, Rng(11))
    b = sample_negatives(pool, 5, Rng(11))
    assert a == b
    assert len(a) == 5 and len(set(a)) == 5
    assert sample_negatives(pool[:2], 5, Rng(1)) and \
        len(sample_negatives(pool[:2], 5, Rng(1))) == 2
    assert sample_negatives([], 5, Rng(1)) == []


def test_jsonl_round_trip(tmp_path, labeled):
    _, _, _, _, examples, _ = labeled
    path = tmp_path / "ex.jsonl"
    export_jsonl(examples, path)
    back = load_jsonl(path, "train")
    assert len(back) == len(examples)
    for a, b in zip(examples, back):
        assert a.record.tokens == b.record.tokens
        assert a.positives == b.positives
        assert a.candidates == b.candidates
        assert a.formatted.mention_span == b.formatted.mention_span
        assert a.gold == b.gold
    row = json.loads(path.read_text().splitlines()[0])
    assert set(row) >= {"question", "formatted", "mention", "candidates",
                        "positives", "ambiguous"}
    assert row["candidates"] == sorted(row["candidates"])


_ROW = {"question": "where was john smith born", "formatted": "where was <e> born",
        "mention": "john smith", "candidates": ["01"], "positives": [["01", "born_in"]],
        "gold": ["01", "born_in"], "ambiguous": False}


@pytest.mark.parametrize("second", [
    b"[1, 2]\n",
    json.dumps({**_ROW, "mention": "john smith was born now"}).encode() + b"\n",
    json.dumps({k: v for k, v in _ROW.items() if k != "candidates"}).encode() + b"\n",
    json.dumps({**_ROW, "positives": [["01"]]}).encode() + b"\n",
    json.dumps({**_ROW, "question": "caf\u00e9"}, ensure_ascii=False).encode("latin-1") + b"\n",
], ids=["not-an-object", "mention-too-long", "no-candidates", "short-pair", "not-utf8"])
def test_load_jsonl_refuses_a_line_export_does_not_write(tmp_path, second):
    """Any line after the ones ``export_jsonl`` sealed refuses the file as a whole."""
    path = tmp_path / "ex.jsonl"
    seal(path, json.dumps(_ROW) + "\n")
    assert load_jsonl(path)[0].formatted.mention_span == (2, 4)
    path.write_bytes(json.dumps(_ROW).encode() + b"\n" + second)
    with pytest.raises(CheckpointError) as err:
        load_jsonl(path)
    assert str(err.value) == f"{path} changed since relabel wrote it; rerun relabel"


def test_reports_written_with_headers(tmp_path, labeled):
    _, _, _, _, examples, _ = labeled
    alias_path = tmp_path / "alias.tsv"
    pattern_path = tmp_path / "pattern.tsv"
    write_report(examples, alias_path, pattern_path)
    alias_lines = alias_path.read_text().splitlines()
    pattern_lines = pattern_path.read_text().splitlines()
    assert alias_lines[0].split("\t") == ["alias", "entity"]
    assert pattern_lines[0].split("\t") == ["pattern", "relation", "questions"]
    by_pattern = {}
    for line in pattern_lines[1:]:
        pat, _rel, n = line.split("\t")
        by_pattern.setdefault(pat, []).append(int(n))
    for counts in by_pattern.values():  # high-count relations first per pattern
        assert counts == sorted(counts, reverse=True)


def test_skipped_count_for_unformatable():
    world = micro_world()
    world.question_lines.append(
        "www.freebase.com/m/01\twww.freebase.com/book/author/works_written\t"
        "www.freebase.com/m/10\tno alias appears here\n")
    kb, aliases, records = world.build()
    formatted = [format_question(r, aliases) for r in records]
    index = build_pattern_index(records, formatted)
    examples, skipped = relabel_dataset(records, formatted, kb, aliases, index)
    assert skipped == 1
    assert len(examples) == len(records) - 1


def test_oracle_equivalence_one_seed():
    world = random_instance(123)
    kb, aliases, records = world.build()
    formatted = [format_question(r, aliases) for r in records]
    index = build_pattern_index(records, formatted)
    oracle_index = oracle_pattern_index(records, formatted)
    examples, skipped = relabel_dataset(records, formatted, kb, aliases, index)
    assert skipped == sum(1 for f in formatted if f is None)
    it = iter(examples)
    for rec, fq in zip(records, formatted):
        if fq is None:
            continue
        ex = next(it)
        want = oracle_plausible(rec, fq, world, oracle_index)
        assert ex.positives == want
        for s in sorted({s for s, _ in ex.positives}):
            assert [kb.relations[r] for r in negative_pool(ex, s, kb)] == \
                oracle_negative_pool(world, s, want)
