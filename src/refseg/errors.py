"""Exception types shared across the package."""


class RefsegError(Exception):
    """Base class for all package-specific failures."""


class DimensionError(RefsegError):
    """Operand shapes are incompatible for the requested operation."""


class PrecisionError(RefsegError):
    """Mixed single/double operands."""


class ConfigError(RefsegError):
    """A configuration value violates a structural requirement."""


class VocabularyError(RefsegError):
    """An expression contains a word outside the vocabulary."""


class GenerationError(RefsegError):
    """Scene generation could not satisfy its constraints."""


class CheckpointError(RefsegError):
    """A checkpoint file is malformed, truncated, or version-incompatible."""


class NumericalError(RefsegError):
    """A non-finite value appeared where the computation requires finite ones."""
