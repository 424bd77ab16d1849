"""A fork that fails does not fail the command.

On a host at its process limit `os.fork` raises `OSError(EAGAIN)`.  The
parse pool of `extract` and `trace --src` (its worker count forced to 2)
and the reader of `trace --facts` then run their step in this process:
the files written, stdout, stderr and the exit code must be those of a run
that never forks, whether the first fork fails or only the second, and no
forked process may be left.  A worker left waiting for work once kept the
interpreter from exiting, so a test that could hang is stopped by an alarm,
and a worker that a test leaves is killed after it is counted.
"""

from __future__ import annotations

import errno
import multiprocessing
import os
from pathlib import Path

import pytest

from reqtrace import javaparser
from reqtrace.cli import EXIT_OK, main

from test_facts_reader import alarm, ds_facts  # noqa: F401  (fixtures)


def failing_fork(fails_at: int, monkeypatch) -> list[int]:
    """Make `os.fork` raise `OSError(EAGAIN)` from its call `fails_at` on;
    return the list of the pids that it forks before that."""
    fork = os.fork
    pids = []

    def limited() -> int:
        if len(pids) + 1 >= fails_at:
            raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", limited)
    return pids


def run(argv: list[str], out: Path, capsys) -> tuple:
    """Exit code, stdout, stderr and the files written at or under `out` of
    `main(argv)`."""
    code = main([*argv, "--out", str(out)])
    stdout, stderr = capsys.readouterr()
    written = {}
    if out.is_file():
        written[out.name] = out.read_bytes()
    elif out.is_dir():
        written = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
    return code, stdout, stderr, written


@pytest.mark.parametrize("fails_at", [1, 2], ids=["first fork", "second fork"])
@pytest.mark.parametrize("command", ["extract", "trace --src", "trace --facts"])
def test_a_failed_fork_gives_what_one_process_gives(
    tmp_path, monkeypatch, capsys, alarm, ds_source, ds_requirements, ds_gold,
    ds_facts, command, fails_at,
):
    if command == "extract":
        argv = ["extract", "--src", str(ds_source)]
        out = tmp_path / "facts.xml"
    else:
        source = ["--src", str(ds_source)] if command == "trace --src" else [
            "--facts", str(ds_facts)
        ]
        argv = ["trace", *source, "--reqs", str(ds_requirements)]
        argv += ["--gold", str(ds_gold), "--dump-intermediates"]
        out = tmp_path / "out"
    with monkeypatch.context() as alone:
        alone.setattr(javaparser, "_worker_count", lambda files: 1)
        alone.delattr(os, "fork")
        expected = run(argv, tmp_path / "alone" / out.name, capsys)
    assert expected[0] == EXIT_OK

    monkeypatch.setattr(javaparser, "_worker_count", lambda files: 2)
    pids = failing_fork(fails_at, monkeypatch)
    try:
        assert run(argv, out, capsys) == expected
    finally:  # a worker left waiting would keep the interpreter from exiting
        left = multiprocessing.active_children()
        for child in left:
            child.kill()
            child.join()
    assert left == []
    assert len(pids) == fails_at - 1
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)
