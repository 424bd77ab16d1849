"""Exception types shared across the reqtrace pipeline, and `refused`: in
it, an input that cannot be opened, read, decoded or parsed becomes the
ConfigurationError "<what> <path>: <reason>", for every input of every
command.  `read_input` reads the text inputs; Java sources keep their own
per-file reader, and the facts XML is read as bytes (it names its encoding)."""

from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator, TypeVar

T = TypeVar("T")


class ReqTraceError(Exception):
    """Base class for all reqtrace errors."""


class ConfigurationError(ReqTraceError):
    """Invalid configuration, or an input that cannot be read, decoded or parsed."""


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


@contextmanager
def refused(what: str, path: str | Path) -> Iterator[None]:
    """Run the block; an OSError, ValueError, RecursionError or ReqTraceError
    that it raises becomes ConfigurationError "`what` `path`: reason"."""
    try:
        yield
    except (OSError, ValueError, RecursionError, ReqTraceError) as exc:
        raise ConfigurationError(f"{what} {path}: {exc}") from exc


def read_input(path: str | Path, what: str, parse: Callable[[str], T] = str) -> T:
    """`parse` of `path`'s UTF-8 text less a byte-order mark, refused as `what`."""
    with refused(what, path):
        return parse(Path(path).read_text(encoding="utf-8-sig"))
