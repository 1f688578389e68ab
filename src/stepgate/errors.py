"""Exception types shared across the package."""


class StepgateError(Exception):
    """Base class for every package-specific error."""


class DimensionError(StepgateError, ValueError):
    """Operands have incompatible shapes; the message names both."""


class DomainError(StepgateError, ValueError):
    """A value lies outside an operation's domain."""


class ContractError(StepgateError, RuntimeError):
    """A caller violated an internal precondition."""


class FormatError(StepgateError, RuntimeError):
    """A serialized file is corrupt, truncated, or carries an unsupported version."""


class GenerationError(StepgateError, ValueError):
    """A dataset request cannot be satisfied by the generator."""


class ConfigError(StepgateError, ValueError):
    """An experiment configuration is malformed."""


class TrainingDivergence(StepgateError, RuntimeError):
    """Training produced a non-finite loss or weight."""
