"""Exception types shared across the package."""


class ValidationError(ValueError):
    """An input lies outside the domain of an operation.

    ``field`` names the offending argument, field or index when one exists.
    """

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field


class ConfigError(ValidationError):
    """Experiment configuration rejected (unknown key, bad type, bad value)."""
