"""Exception types shared across the reqtrace pipeline."""


class ReqTraceError(Exception):
    """Base class for all reqtrace errors."""


class ConfigurationError(ReqTraceError):
    """Invalid pipeline configuration or unusable input layout."""


class ParameterError(ReqTraceError):
    """An argument is outside the range an operation accepts."""


class XmlParseError(ReqTraceError):
    """The facts file is not well-formed XML."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class XmlSchemaError(ReqTraceError):
    """Well-formed XML that violates the code-facts schema."""

    def __init__(self, message: str, element: str):
        super().__init__(f"<{element}>: {message}")
        self.element = element


class EmptyCorpusError(ReqTraceError):
    """No usable terms survive preprocessing; the pipeline cannot run."""


class DegenerateMatrixError(ReqTraceError):
    """A matrix decomposition was requested on an all-zero matrix."""


class GoldCoverageError(ReqTraceError):
    """The gold-link file is not a JSON object of class lists, misses a traced
    requirement or names an unknown class."""
