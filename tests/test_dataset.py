import pytest

from ksaqa.dataset import (ENT, PAD, RESERVED, START, UNK, Vocabulary,
                           build_vocabulary, find_span, format_question,
                           parse_simplequestions, write_formatted_tsv)
from ksaqa.errors import IngestError
from ksaqa.kb import ingest_aliases

from corpus_util import EPREFIX, RPREFIX


def _aliases(pairs):
    return ingest_aliases([f"{EPREFIX}{e}\t{a}\n" for e, a in pairs])


def test_parse_strips_prefixes_and_tokenizes():
    line = (f"{EPREFIX}0f6v\t{RPREFIX}book/author/works_written\t"
            f"{EPREFIX}0abc\tWho wrote Malcolm X?\n")
    (rec,) = parse_simplequestions([line], "test")
    assert rec.subject == "0f6v"
    assert rec.relation == "book/author/works_written"
    assert rec.object == "0abc"
    assert rec.tokens == ["who", "wrote", "malcolm", "x", "?"]
    assert rec.split == "test"


def test_parse_rejects_wrong_field_count():
    with pytest.raises(IngestError) as exc:
        parse_simplequestions(["a\tb\tc\n"], "train")
    assert exc.value.line_no == 1


def test_parse_errors_in_a_file_name_the_file(tmp_path):
    path = tmp_path / "questions.txt"
    path.write_text(f"{EPREFIX}s1\t{RPREFIX}r/x\t{EPREFIX}o1\tok\na\tb\tc\n")
    with pytest.raises(IngestError) as exc:
        parse_simplequestions(path, "train")
    assert exc.value.line_no == 2
    assert str(exc.value) == f"{path}: line 2: expected 4 tab-separated fields, got 3"


def test_find_span_is_the_leftmost_occurrence():
    tokens = ["a", "b", "a", "b", "c"]
    assert find_span(tokens, ["a", "b"]) == (0, 2)
    assert find_span(tokens, ["b", "c"]) == (3, 5)
    assert find_span(tokens, ["c", "a"]) is None
    assert find_span(tokens, tokens + ["d"]) is None
    assert find_span(tokens, []) is None


def test_format_replaces_mention_with_placeholder():
    aliases = _aliases([("s1", "Malcolm X")])
    (rec,) = parse_simplequestions(
        [f"{EPREFIX}s1\t{RPREFIX}r/x\t{EPREFIX}o1\twho wrote malcolm x ?\n"], "train")
    fq = format_question(rec, aliases)
    assert fq.tokens == ["who", "wrote", ENT, "?"]
    assert fq.mention_span == (2, 4)
    assert fq.mention_text == "malcolm x"
    assert fq.restore() == rec.tokens


def test_format_prefers_longest_match():
    aliases = _aliases([("s1", "New York"), ("s1", "New York City")])
    (rec,) = parse_simplequestions(
        [f"{EPREFIX}s1\t{RPREFIX}r/x\t{EPREFIX}o1\tpeople of new york city today\n"],
        "train")
    fq = format_question(rec, aliases)
    assert fq.mention_text == "new york city"
    assert fq.tokens == ["people", "of", ENT, "today"]


def test_format_breaks_ties_leftmost():
    aliases = _aliases([("s1", "ab"), ("s1", "cd")])
    (rec,) = parse_simplequestions(
        [f"{EPREFIX}s1\t{RPREFIX}r/x\t{EPREFIX}o1\tx cd y ab z\n"], "train")
    fq = format_question(rec, aliases)
    assert fq.mention_span == (1, 2)
    assert fq.mention_text == "cd"


def test_format_returns_none_without_match():
    aliases = _aliases([("s1", "something else")])
    (rec,) = parse_simplequestions(
        [f"{EPREFIX}s1\t{RPREFIX}r/x\t{EPREFIX}o1\twho wrote this\n"], "train")
    assert format_question(rec, aliases) is None


def test_format_only_uses_subject_aliases():
    # the question contains another entity's alias, not the subject's
    aliases = _aliases([("s1", "right name"), ("s2", "wrong name")])
    (rec,) = parse_simplequestions(
        [f"{EPREFIX}s1\t{RPREFIX}r/x\t{EPREFIX}o1\tabout wrong name here\n"], "train")
    assert format_question(rec, aliases) is None


def test_reserved_tokens_occupy_fixed_slots():
    vocab = build_vocabulary([["hello", "world"]])
    assert vocab.tokens[:4] == [PAD, UNK, ENT, START]
    assert RESERVED == (PAD, UNK, ENT, START)
    assert vocab.lookup(PAD) == 0
    assert vocab.lookup("hello") == 4


def test_vocabulary_unknown_maps_to_unk():
    vocab = build_vocabulary([["hello"]])
    assert vocab.lookup("never seen") == vocab.lookup(UNK) == 1
    ids = vocab.encode(["hello", "nope"])
    assert ids.tolist() == [4, 1]


def test_vocabulary_min_count_filters():
    vocab = build_vocabulary([["a", "a", "b"], ["a", "c", "b"]], min_count=2)
    assert "a" in vocab.tokens and "b" in vocab.tokens
    assert "c" not in vocab.tokens


def test_vocabulary_save_load_round_trip(tmp_path):
    vocab = build_vocabulary([["alpha", "beta", "?"]])
    vocab.save(tmp_path / "v.txt")
    back = Vocabulary.load(tmp_path / "v.txt")
    assert back.tokens == vocab.tokens


def test_placeholder_in_question_counts_once():
    # reserved tokens in raw text must not duplicate the reserved block
    vocab = build_vocabulary([[ENT, "real", "word"]])
    assert vocab.tokens.count(ENT) == 1


def test_write_formatted_tsv(tmp_path):
    aliases = _aliases([("s1", "Malcolm X")])
    recs = parse_simplequestions(
        [f"{EPREFIX}s1\t{RPREFIX}r/x\t{EPREFIX}o1\twho wrote malcolm x\n",
         f"{EPREFIX}s1\t{RPREFIX}r/x\t{EPREFIX}o1\tno mention here\n"], "train")
    fqs = [format_question(r, aliases) for r in recs]
    out = tmp_path / "fmt.tsv"
    write_formatted_tsv(out, recs, fqs)
    lines = out.read_text().splitlines()
    assert lines[0] == "who wrote malcolm x\twho wrote <e>\ts1\tr/x"
    assert lines[1] == "no mention here\t\ts1\tr/x"
