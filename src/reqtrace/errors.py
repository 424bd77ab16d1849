"""Exception types shared across the reqtrace pipeline, and `read_input`,
the one reader of its text inputs (requirements, stop words, gold links and
links), so that each fails the same way.  Java sources keep their own reader,
which falls back to ISO-8859-1 with a diagnostic; the facts XML is read as
bytes, because it declares its own encoding."""

from pathlib import Path
from typing import Callable, TypeVar

T = TypeVar("T")


class ReqTraceError(Exception):
    """Base class for all reqtrace errors."""


class ConfigurationError(ReqTraceError):
    """Invalid pipeline configuration, an unusable input layout, or an input
    file that cannot be read, decoded or parsed."""


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
    """The gold links miss a traced requirement or name an unknown class."""


def read_input(path: str | Path, what: str, parse: Callable[[str], T] = str) -> T:
    """`parse` of the text of the file `path`, read as UTF-8 less a leading
    byte-order mark; ConfigurationError "`what` `path`: reason" if the file
    cannot be read or decoded, or `parse` raises ValueError or RecursionError."""
    try:
        return parse(Path(path).read_text(encoding="utf-8-sig"))
    except (OSError, ValueError, RecursionError) as exc:
        raise ConfigurationError(f"{what} {path}: {exc}") from exc
