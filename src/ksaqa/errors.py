"""Exception types shared across the package."""


class KsaqaError(Exception):
    """Base class for all package errors."""


class IngestError(KsaqaError):
    """Malformed input; carries the 1-based line number, or None for the whole input.

    ``path`` names the file the line came from, when one is known.
    """

    def __init__(self, line_no: int | None, message: str, path=None):
        prefix = "" if path is None else f"{path}: "
        if line_no is not None:
            prefix += f"line {line_no}: "
        super().__init__(prefix + message)
        self.line_no = line_no
        self.message = message


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


def require_rate(config) -> None:
    """ConfigError for a learning rate ``lr`` outside (0, 1].

    The range refuses a bad input, not a divergence: Adam moves each weight
    by about ``lr`` a step, so a rate of 1 is already far past any that
    trains, and a legal rate can still grow huge finite weights.
    """
    if not 0 < config.lr <= 1:
        raise ConfigError(f"{config.key_prefix}lr must lie in (0, 1], got {config.lr}")


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
