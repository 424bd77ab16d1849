"""Command-line front end: one runner for the extract, trace and evaluate
commands.

The runner calls the `pipeline` function of the command's name, which reads
every input and computes every artifact.  It prints the parse diagnostics
to stderr, also when a later stage fails, then writes every file to a temp
file beside it (with the mode that the umask gives a new file) and renames
them only once all are written, then prints the summary.  A file's value
(`pipeline.Run.files`) is its text, its bytes, or an iterable of byte
chunks, which is written chunk by chunk and never joined; a chunk source
may render its chunks as they are asked for, so the CSVs of
`--dump-intermediates` are rendered here, while they are written.  A run
that fails, also while a file is being rendered or written, writes nothing,
and two runs over identical inputs produce byte-identical outputs.

Exit codes: 0 success, 2 configuration failure, 3 empty corpus after
preprocessing.  Every input is refused in `errors.refused`, so an OSError
that reaches `main` comes from writing the outputs.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys
import tempfile
from pathlib import Path
from typing import Iterable

from . import pipeline
from .errors import EmptyCorpusError, ReqTraceError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_EMPTY_CORPUS = 3


def _write_all(files: dict[Path, str | bytes | Iterable[bytes]]) -> None:
    """Write each file to a temp file beside it, with the mode that `open`
    would give it, and only then rename them all; if a step fails, unlink
    every temp file left and raise."""
    umask = os.umask(0)
    os.umask(umask)
    temps: list[tuple[str, Path]] = []
    try:
        for path, data in files.items():
            # no rename can replace a directory: refuse it before any rename
            if path.is_dir():
                message = os.strerror(errno.EISDIR)
                raise IsADirectoryError(errno.EISDIR, message, str(path))
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
            temps.append((tmp_name, path))
            if isinstance(data, str):
                data = data.encode("utf-8")
            with os.fdopen(fd, "wb") as handle:
                handle.writelines([data] if isinstance(data, bytes) else data)
            os.chmod(tmp_name, 0o666 & ~umask)  # mkstemp makes the file 0600
        for tmp_name, path in temps:
            os.replace(tmp_name, path)
    except BaseException:
        for tmp_name, _ in temps:
            if os.path.exists(tmp_name):
                os.unlink(tmp_name)
        raise


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reqtrace",
        description="Recover requirement-to-code trace links from Java sources",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    extract = commands.add_parser(
        "extract", help="parse Java sources into a code-facts XML file"
    )
    extract.add_argument("--src", type=Path, required=True, help="source root")
    extract.add_argument(
        "--out", type=Path, required=True, help="output facts XML path"
    )

    trace = commands.add_parser(
        "trace", help="run the full trace-link recovery pipeline"
    )
    source = trace.add_mutually_exclusive_group(required=True)
    source.add_argument("--src", type=Path, help="Java source root")
    source.add_argument("--facts", type=Path, help="code-facts XML file")
    trace.add_argument(
        "--reqs", type=Path, required=True, help="directory of requirement .txt files"
    )
    trace.add_argument(
        "--threshold",
        type=float,
        default=0.70,
        help="cosine at or above which a class is linked (default: 0.70)",
    )
    trace.add_argument(
        "--topics",
        type=int,
        default=None,
        help="LSI topics k (default: full rank, plain count cosine)",
    )
    trace.add_argument(
        "--stopwords",
        type=Path,
        default=None,
        help="stop-word file, one word per line (default: the built-in list)",
    )
    trace.add_argument("--out", type=Path, required=True, help="output directory")
    trace.add_argument(
        "--gold",
        type=Path,
        default=None,
        help="gold-links JSON file; also writes report.json and report.csv",
    )
    trace.add_argument(
        "--dump-intermediates",
        action="store_true",
        help="also write tdm.csv, tqm.csv, csm.csv and context.csv",
    )

    evaluate = commands.add_parser(
        "evaluate", help="score a links.json against a gold-links file"
    )
    evaluate.add_argument(
        "--links", type=Path, required=True, help="links.json written by trace"
    )
    evaluate.add_argument(
        "--gold", type=Path, required=True, help="gold-links JSON file"
    )
    evaluate.add_argument("--out", type=Path, required=True, help="output directory")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    run = pipeline.Run()
    try:
        try:
            getattr(pipeline, args.command)(args, run)
        finally:
            # a write per 1,000 lines: to an unbuffered stderr each `print`
            # is a system call, and one write of every line would hold a
            # second copy of them all, above `extract`'s own peak
            diagnostics = run.diagnostics
            for at in range(0, len(diagnostics), 1000):
                sys.stderr.write(
                    "".join(
                        f"{d.severity}: {d.file}:{d.line}: {d.message}\n"
                        for d in diagnostics[at : at + 1000]
                    )
                )
        _write_all(run.files)
        print(run.summary, end="")
        return EXIT_OK
    except (ReqTraceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EMPTY_CORPUS if isinstance(exc, EmptyCorpusError) else EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
