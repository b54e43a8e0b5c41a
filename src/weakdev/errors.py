"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation.

    ``field`` names the offending argument or field when one exists.
    """

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field


class ValidationError(ValueError):
    """Structured input validation failure.

    ``field`` names the offending field or index when one exists.
    """

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field


class NoValidBlockSizeError(ValueError):
    """A block-size selection found no admissible k and a bound was requested anyway."""


class ConfigError(ValidationError):
    """Experiment configuration rejected (unknown key, bad type, bad value)."""
