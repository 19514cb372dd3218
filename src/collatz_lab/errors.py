"""Exception types shared across the package."""


class DomainError(ValueError):
    """Input lies outside an operation's domain (sign, parity, or range)."""


class ConfigurationError(ValueError):
    """Invalid parameter set or run configuration."""


class InnerSplitUndefined(DomainError):
    """The nested odd/shift split does not exist (m is one less than a power of two)."""


class BFileParseError(ValueError):
    """A b-file line could not be parsed; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str) -> None:
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def require_int(
    value, name: str, minimum: int, error: type[ValueError] = DomainError
) -> None:
    """Raise error unless value is an int (not a bool) of at least minimum."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise error(f"{name} must be an int, got {type(value).__name__}")
    if value < minimum:
        raise error(f"{name} must be >= {minimum}, got {value}")
