"""Exception types shared across the package."""


class ShapeMismatchError(ValueError):
    """An array argument does not conform to the expected shape."""


class ParameterError(ValueError):
    """A scalar or structural parameter is out of its admissible range.

    Attributes:
        field: name of the offending parameter, when one is to blame.
    """

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field


class DegenerateRetractionError(ArithmeticError):
    """The retraction target is degenerate (zero norm / rank deficient)."""


class NumericalFailureError(RuntimeError):
    """A solver produced a non-finite quantity.

    Attributes:
        iteration: index of the iteration at which the failure occurred.
    """

    def __init__(self, message: str, iteration: int):
        super().__init__(f"{message} (iteration {iteration})")
        self.iteration = iteration


class ProbeInconclusiveError(RuntimeError):
    """A sampling probe could not collect enough informative samples."""


class InsufficientDataError(ValueError):
    """Not enough trace records to perform the requested fit."""


class TraceFormatError(ValueError):
    """A trace CSV file is malformed.

    Attributes:
        line: 1-based line number of the offending row.
    """

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class ConfigError(ValueError):
    """A run configuration document failed validation.

    Attributes:
        field: dotted path of the offending field.
    """

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field
