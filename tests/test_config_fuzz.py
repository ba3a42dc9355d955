"""Property tests of the config parser: it fails only with ConfigError, and
a config written as ``key = value`` lines parses back to an equal one."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from ksaqa.config import KEYS, PipelineConfig, load_config, parse_config  # noqa: E402
from ksaqa.errors import ConfigError  # noqa: E402

KEY_NAMES = sorted(KEYS) + ["lambda"]

lines = st.one_of(
    st.text(),
    st.builds(lambda k, v: f"{k} = {v}", st.sampled_from(KEY_NAMES), st.text()),
    st.builds(lambda k, v: f"{k} = {v!r}", st.sampled_from(KEY_NAMES),
              st.one_of(st.integers(), st.floats(), st.booleans())))


@pytest.fixture(scope="module")
def cfg_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "pipeline.cfg"


def _loads_or_refuses(path):
    try:
        parse_config(path)
        load_config(path)
    except ConfigError:
        pass


@settings(max_examples=300, deadline=None)
@given(st.lists(lines, max_size=8))
def test_any_text_loads_or_raises_config_error(cfg_path, text_lines):
    cfg_path.write_text("\n".join(text_lines), encoding="utf-8")
    _loads_or_refuses(cfg_path)


@settings(max_examples=100, deadline=None)
@given(st.binary(max_size=64))
def test_any_bytes_load_or_raise_config_error(cfg_path, blob):
    cfg_path.write_bytes(blob)
    _loads_or_refuses(cfg_path)


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.one_of(st.sampled_from(KEY_NAMES), st.text()),
                       st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
                                 st.text()), max_size=6))
def test_any_overrides_load_or_raise_config_error(overrides):
    try:
        load_config(None, overrides)
    except ConfigError:
        pass


# the valid range of every key (the oracle the config classes must agree with)
SIZE = st.integers(1, 10 ** 6)
POSITIVE = st.floats(0, 1e6, exclude_min=True)
TEXT = st.text("abcxyz019_./-", max_size=12)
IN_RANGE = {
    "kb_triples": TEXT, "kb_aliases": TEXT, "train_file": TEXT, "valid_file": TEXT,
    "test_file": TEXT, "workdir": TEXT, "backend": st.sampled_from(["auto", "numpy", "numba"]),
    "seed": st.integers(0, 2 ** 64 - 1), "min_count": SIZE,
    "pattern_splits": st.sampled_from(["train", "valid", "train,valid", "valid , train"]),
    "gold_spans": st.booleans(), "skip_detection_failures": st.booleans(),
    "variant": st.sampled_from(["BiGRU", "KS-BiGRU", "KSA-BiGRU"]),
    "d_word": SIZE, "d_rel": SIZE, "d_hidden": SIZE, "attention_hidden": SIZE,
    "dropout": st.floats(0, 1, exclude_max=True), "lam": st.floats(0, 1, exclude_min=True,
                                                                    exclude_max=True),
    "negatives_per_positive": SIZE, "lr": POSITIVE, "epochs": SIZE, "batch_size": SIZE,
    "shuffle_augment": st.booleans(), "negatives_from_empty_candidates": st.booleans(),
    "tagger_d_word": SIZE, "tagger_hidden": SIZE, "tagger_lr": POSITIVE,
    "tagger_epochs": SIZE, "tagger_patience": st.integers(-10, 10 ** 6),
    "transe_dim": SIZE, "transe_margin": POSITIVE, "transe_norm": st.sampled_from(["l1", "l2"]),
    "transe_lr": POSITIVE, "transe_epochs": SIZE, "transe_batch_size": SIZE,
}


def test_every_key_has_a_range():
    assert set(IN_RANGE) == set(KEYS)


@settings(max_examples=200, deadline=None)
@given(st.fixed_dictionaries({}, optional=IN_RANGE))
def test_written_config_parses_back_equal(cfg_path, values):
    cfg_path.write_text("".join(f"{'lambda' if k == 'lam' else k} = "
                                f"{v if isinstance(v, str) else repr(v)}\n"
                                for k, v in values.items()), encoding="utf-8")
    assert load_config(cfg_path) == PipelineConfig(**values)
