"""Exception types shared across the package."""


class KsaqaError(Exception):
    """Base class for all package errors."""


class IngestError(KsaqaError):
    """Malformed input line; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class ShapeError(KsaqaError):
    """Operands with incompatible shapes; message names both."""


class NonFiniteError(KsaqaError):
    """An operation produced NaN or Inf."""


class ConfigError(KsaqaError):
    """Unreadable, unknown-key, ill-typed or out-of-range configuration."""


def require_positive(config, *names: str) -> None:
    """ConfigError for the first knob not above 0, named by its pipeline key.

    ``config`` is a stage dataclass; its ``key_prefix`` turns a field name
    into the key (``hidden`` -> ``tagger_hidden``).
    """
    for name in names:
        value = getattr(config, name)
        if not value > 0:
            raise ConfigError(f"{config.key_prefix}{name} must be positive, got {value}")


class CheckpointError(KsaqaError):
    """Base class for checkpoint I/O failures."""


class BadMagicError(CheckpointError):
    """File does not start with the expected magic bytes."""


class TruncatedCheckpointError(CheckpointError):
    """File ends mid-entry; carries the byte offset where data ran out."""

    def __init__(self, offset: int, message: str = "checkpoint truncated"):
        super().__init__(f"{message} at byte offset {offset}")
        self.offset = offset


class DuplicateNameError(CheckpointError):
    """The same tensor name appears twice."""
