"""Flat key=value pipeline configuration.

One ``key = value`` per line, ``#`` starts a comment, blank lines ignored.
Unknown keys are rejected so typos fail loudly.  CLI flags override file
values; both override the defaults below.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path

from .errors import ConfigError

_BOOLS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


@dataclass
class PipelineConfig:
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
    backend: str = "auto"            # kernels lane: auto | numba | numpy
    # relabeler
    pattern_splits: str = "train"    # or "train,valid"
    # model
    variant: str = "KSA-BiGRU"
    d_word: int = 500
    d_rel: int = 300
    d_hidden: int = 300
    question_layers: int = 2
    attention_hidden: int = 650
    dropout: float = 0.1
    lam: float = 0.5
    negatives_per_positive: int = 5
    lr: float = 0.001
    epochs: int = 45
    batch_size: int = 64
    shuffle_augment: bool = False
    negatives_from_empty_candidates: bool = False
    # transe
    transe_dim: int = 300
    transe_margin: float = 1.0
    transe_norm: str = "l2"
    transe_lr: float = 0.01
    transe_epochs: int = 100
    transe_batch_size: int = 128
    # tagger
    tagger_d_word: int = 500
    tagger_hidden: int = 300
    tagger_lr: float = 0.001
    tagger_epochs: int = 20
    tagger_patience: int = 5
    # evaluation
    gold_spans: bool = False
    skip_detection_failures: bool = False

    def __post_init__(self):
        if not 0.0 < self.lam < 1.0:
            raise ConfigError(f"lambda must lie in (0, 1), got {self.lam}")


# "lambda" is the natural config-file spelling; the dataclass field is lam
_ALIASES = {"lambda": "lam"}


def _coerce(name: str, kind, raw: str):
    raw = raw.strip()
    try:
        if kind is bool:
            if raw.lower() not in _BOOLS:
                raise ValueError(raw)
            return _BOOLS[raw.lower()]
        if kind is int:
            return int(raw)
        if kind is float:
            return float(raw)
        return raw
    except ValueError:
        raise ConfigError(f"config key {name!r}: cannot parse {raw!r} as {kind.__name__}") from None


def parse_config(path) -> dict:
    """Read a flat config file into a {field: typed value} dict."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    py_types = {f.name: type(getattr(PipelineConfig(), f.name)) for f in fields(PipelineConfig)}
    out: dict = {}
    for line_no, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{line_no}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        key = _ALIASES.get(key, key)
        if key not in py_types:
            raise ConfigError(f"{path}:{line_no}: unknown config key {key!r}")
        out[key] = _coerce(key, py_types[key], value)
    return out


def load_config(path=None, overrides: dict | None = None) -> PipelineConfig:
    """Defaults, then file values, then overrides; later sources win."""
    values: dict = {}
    if path is not None:
        values.update(parse_config(path))
    for key, val in (overrides or {}).items():
        if val is None:
            continue
        key = _ALIASES.get(key, key)
        if key not in {f.name for f in fields(PipelineConfig)}:
            raise ConfigError(f"unknown config key {key!r}")
        values[key] = val
    return PipelineConfig(**values)
