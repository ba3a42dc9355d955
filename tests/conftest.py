import pytest

from ksaqa.cli import main
from ksaqa.dataset import build_vocabulary, format_question
from ksaqa.relabel import build_pattern_index, relabel_dataset
from corpus_util import micro_world


@pytest.fixture(scope="session")
def micro():
    """(kb, aliases, records) for the hand-written micro world."""
    return micro_world().build()


@pytest.fixture(scope="session")
def micro_raw():
    return micro_world()


@pytest.fixture(scope="session")
def world(micro):
    """(kb, vocab, examples): the micro world with relabeling applied."""
    kb, aliases, records = micro
    formatted = [format_question(r, aliases) for r in records]
    index = build_pattern_index(records, formatted)
    examples, skipped = relabel_dataset(records, formatted, kb, aliases, index)
    assert skipped == 0
    streams = [r.tokens for r in records]
    streams.extend(f.tokens for f in formatted if f is not None)
    return kb, build_vocabulary(streams), examples


CFG_TEMPLATE = """
kb_triples = {data}/triples.txt
kb_aliases = {data}/aliases.txt
train_file = {data}/train.txt
valid_file = {data}/valid.txt
test_file  = {data}/test.txt
workdir    = {work}

seed = 0
dropout = 0.0
d_word = 16
d_rel = 12
d_hidden = 10
attention_hidden = 8
lr = 0.05
epochs = 10
batch_size = 8

transe_dim = 12
transe_epochs = 10
transe_batch_size = 4
transe_lr = 0.05

tagger_d_word = 12
tagger_hidden = 8
tagger_lr = 0.02
tagger_epochs = 40
tagger_patience = 40
"""


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory, micro_raw):
    """Run every build stage once; returns (cfg_path, data_dir, work_dir)."""
    root = tmp_path_factory.mktemp("cli")
    data, work = root / "data", root / "work"
    data.mkdir()
    (data / "triples.txt").write_text("".join(micro_raw.triple_lines))
    (data / "aliases.txt").write_text("".join(micro_raw.alias_lines))
    (data / "train.txt").write_text("".join(micro_raw.question_lines))
    (data / "valid.txt").write_text("".join(micro_raw.question_lines[:4]))
    (data / "test.txt").write_text("".join(micro_raw.question_lines[4:]))
    cfg = root / "pipeline.cfg"
    cfg.write_text(CFG_TEMPLATE.format(data=data, work=work))
    for argv in (["ingest-kb"], ["relabel"], ["pretrain-transe"],
                 ["train-tagger"], ["train"]):
        assert main(argv + ["--config", str(cfg)]) == 0, argv
    return cfg, data, work
