import pytest

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
