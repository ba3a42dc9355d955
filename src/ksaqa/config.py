"""Flat key=value pipeline configuration.

One ``key = value`` per line, ``#`` starts a comment, blank lines ignored.
Unknown keys are rejected so typos fail loudly.  CLI flags override file
values; both override the defaults.

Each stage dataclass (``ModelConfig``, ``TaggerConfig``, ``TransEConfig``)
is the only declaration of its knobs: name, type, default and valid range.
A stage field's key is the stage's ``key_prefix`` plus the field name
(``d_word``, ``tagger_hidden``, ``transe_batch_size``); every stage's
``seed`` is the pipeline ``seed``.  ``PipelineConfig`` declares only the
keys no stage owns and derives the rest.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass, fields, make_dataclass
from pathlib import Path

from .errors import ConfigError
from .model import ModelConfig
from .tagger import TaggerConfig
from .transe import TransEConfig

STAGES = (ModelConfig, TaggerConfig, TransEConfig)

_BOOLS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def stage_keys(stage) -> dict[str, str]:
    """{pipeline key: field name} for ``stage``'s knobs, all but its seed."""
    return {stage.key_prefix + f.name: f.name for f in fields(stage) if f.name != "seed"}


def stage_config(cfg, stage):
    """``stage``'s config built from the pipeline config ``cfg``."""
    return stage(seed=cfg.seed, **{name: getattr(cfg, key)
                                   for key, name in stage_keys(stage).items()})


@dataclass
class _SharedKeys:
    # paths
    kb_triples: str = ""
    kb_aliases: str = ""
    train_file: str = ""
    valid_file: str = ""
    test_file: str = ""
    workdir: str = "work"
    # shared
    seed: int = 0
    min_count: int = 1
    # relabeler
    pattern_splits: str = "train"    # or "train,valid"
    # evaluation
    gold_spans: bool = False
    skip_detection_failures: bool = False

    def __post_init__(self):
        if not 0 <= self.seed < 2 ** 64:
            raise ConfigError(f"seed must lie in [0, 2**64), got {self.seed}")
        if self.min_count < 1:
            raise ConfigError(f"min_count must be at least 1, got {self.min_count}")
        for s in self.pattern_split_names:
            if s not in ("train", "valid"):
                raise ConfigError(f"pattern_splits may name train/valid only, got {s!r}")
        for stage in STAGES:
            stage_config(self, stage)

    @property
    def pattern_split_names(self) -> list[str]:
        return [s.strip() for s in self.pattern_splits.split(",") if s.strip()]


PipelineConfig = make_dataclass(
    "PipelineConfig",
    [(key, typing.get_type_hints(stage)[name], stage.__dataclass_fields__[name].default)
     for stage in STAGES for key, name in stage_keys(stage).items()],
    bases=(_SharedKeys,), namespace={"__module__": __name__})

# every key and its type
KEYS: dict[str, type] = typing.get_type_hints(PipelineConfig)

# "lambda" is the natural config-file spelling; the dataclass field is lam
_ALIASES = {"lambda": "lam"}


def _coerce(key: str, value):
    """``value`` as ``key``'s type: strings are parsed, ints widen to float."""
    kind = KEYS[key]
    if isinstance(value, str):
        raw = value.strip()
        try:
            if kind is bool:
                return _BOOLS[raw.lower()]
            return kind(raw)
        except (KeyError, ValueError):
            pass
    elif type(value) is kind:
        return value
    elif kind is float and type(value) is int:
        return float(value)
    raise ConfigError(f"config key {key!r}: cannot parse {value!r} as {kind.__name__}")


def parse_config(path) -> dict:
    """Read a flat config file into a {key: typed value} dict."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    out: dict = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{line_no}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        key = _ALIASES.get(key, key)
        if key not in KEYS:
            raise ConfigError(f"{path}:{line_no}: unknown config key {key!r}")
        out[key] = _coerce(key, value)
    return out


def load_config(path=None, overrides: dict | None = None) -> PipelineConfig:
    """Defaults, then file values, then overrides; later sources win."""
    values = parse_config(path) if path is not None else {}
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        key = _ALIASES.get(key, key)
        if key not in KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        values[key] = _coerce(key, value)
    return PipelineConfig(**values)
