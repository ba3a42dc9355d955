"""Config parsing: layering, aliases, comments, typed coercion, diagnostics."""

import pytest

from ksaqa.config import PipelineConfig, load_config, parse_config, stage_config
from ksaqa.errors import ConfigError
from ksaqa.model import ModelConfig
from ksaqa.tagger import TaggerConfig
from ksaqa.transe import TransEConfig


def _write(tmp_path, text):
    path = tmp_path / "pipeline.cfg"
    path.write_text(text, encoding="utf-8")
    return path


def test_defaults_match_the_paper_scale_model():
    cfg = PipelineConfig()
    assert (cfg.d_word, cfg.d_rel, cfg.d_hidden) == (500, 300, 300)
    assert cfg.attention_hidden == 650
    assert cfg.dropout == 0.1
    assert cfg.lam == 0.5
    assert cfg.negatives_per_positive == 5
    assert cfg.variant == "KSA-BiGRU"
    assert cfg.backend == "auto"
    assert cfg.pattern_splits == "train"


def test_parse_reads_typed_values_and_comments(tmp_path):
    path = _write(tmp_path, """
# pipeline for the smoke corpus
d_hidden = 16          # narrow hidden state
dropout=0.0
shuffle_augment = yes
variant = BiGRU

workdir = out/run1     # relative to the invocation dir
""")
    values = parse_config(path)
    assert values == {"d_hidden": 16, "dropout": 0.0, "shuffle_augment": True,
                      "variant": "BiGRU", "workdir": "out/run1"}
    assert isinstance(values["d_hidden"], int)
    assert isinstance(values["dropout"], float)


def test_lambda_alias_maps_to_lam(tmp_path):
    path = _write(tmp_path, "lambda = 0.3\n")
    assert parse_config(path) == {"lam": 0.3}
    cfg = load_config(path)
    assert cfg.lam == 0.3
    assert load_config(None, {"lambda": 0.7}).lam == 0.7


@pytest.mark.parametrize("raw,expect", [
    ("true", True), ("1", True), ("yes", True),
    ("false", False), ("0", False), ("no", False),
    ("TRUE", True), ("No", False),
])
def test_bool_spellings(tmp_path, raw, expect):
    path = _write(tmp_path, f"gold_spans = {raw}\n")
    assert parse_config(path)["gold_spans"] is expect


def test_unknown_key_reports_the_line_number(tmp_path):
    path = _write(tmp_path, "seed = 1\nd_hiden = 32\n")
    with pytest.raises(ConfigError, match=r":2: unknown config key 'd_hiden'"):
        parse_config(path)


def test_malformed_line_reports_the_line_number(tmp_path):
    path = _write(tmp_path, "seed = 1\njust some words\n")
    with pytest.raises(ConfigError, match=r":2: expected 'key = value'"):
        parse_config(path)


@pytest.mark.parametrize("line,kind", [
    ("epochs = soon", "int"),
    ("dropout = none", "float"),
    ("gold_spans = maybe", "bool"),
])
def test_bad_literals_name_the_expected_type(tmp_path, line, kind):
    path = _write(tmp_path, line + "\n")
    with pytest.raises(ConfigError, match=kind):
        parse_config(path)


def test_missing_file_raises_config_error(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        parse_config(tmp_path / "nope.cfg")


def test_layering_defaults_file_overrides(tmp_path):
    path = _write(tmp_path, "seed = 11\nepochs = 3\n")
    cfg = load_config(path, {"epochs": 9, "lr": None})
    assert cfg.seed == 11          # from the file
    assert cfg.epochs == 9         # override beats the file
    assert cfg.lr == 0.001         # None overrides are ignored -> default


def test_load_without_file_uses_defaults():
    assert load_config() == PipelineConfig()


def test_override_with_unknown_key_is_rejected():
    with pytest.raises(ConfigError, match="unknown config key"):
        load_config(None, {"d_hiden": 32})


def test_value_may_contain_equals_sign(tmp_path):
    path = _write(tmp_path, "workdir = out/run=2\n")
    assert parse_config(path)["workdir"] == "out/run=2"


@pytest.mark.parametrize("key,bad", [
    ("d_word", 0), ("d_rel", -3), ("d_hidden", 0), ("attention_hidden", 0),
    ("negatives_per_positive", 0), ("epochs", 0), ("batch_size", 0),
    ("dropout", 1.0), ("dropout", -0.1), ("lr", 0.0), ("lr", float("nan")),
    ("tagger_d_word", 0), ("tagger_hidden", 0), ("tagger_epochs", 0), ("tagger_lr", -1.0),
    ("transe_dim", 0), ("transe_epochs", 0), ("transe_batch_size", 0),
    ("transe_lr", -1.0), ("transe_margin", 0.0), ("transe_norm", "l3"),
    ("min_count", 0), ("seed", -1), ("seed", 2 ** 64), ("pattern_splits", "test"),
])
def test_out_of_range_values_are_refused_by_key(key, bad):
    with pytest.raises(ConfigError, match=key):
        load_config(None, {key: bad})


def test_stage_keys_take_the_stage_prefix():
    tagger = stage_config(PipelineConfig(seed=4, tagger_hidden=7), TaggerConfig)
    assert (tagger.hidden, tagger.seed) == (7, 4)
    transe = stage_config(PipelineConfig(transe_batch_size=9), TransEConfig)
    assert transe.batch_size == 9
    model = stage_config(PipelineConfig(seed=2, lam=0.25), ModelConfig)
    assert (model.lam, model.seed) == (0.25, 2)
