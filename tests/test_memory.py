"""What `extract` and `trace` hold, against the size of what they write or
read.

Each command writes its outputs chunk by chunk, so the Python memory it
holds at its peak (tracemalloc's count) stays within a small multiple of
the facts XML, and the CSV dumps add less than the largest of them.
`trace --src` turns each class into its document text as its file is
parsed, and `trace --facts` as the class is read from the facts file, so
neither holds the records of the whole input.  Every command
runs once untraced first, so that lazy set-up (compiled patterns, imports)
is not counted, and parses in this process: tracemalloc does not see into
worker processes.  For the same reason the facts file is read in this
process (no `os.fork`), except in the test that compares the two: the
forked reader must leave this process no more to hold.  The corpus is
`perfbench/corpus_gen.py`'s, at 300 classes.
"""

from __future__ import annotations

import os
import sys
import tracemalloc
from pathlib import Path
from typing import Iterator

import pytest

from reqtrace import javaparser
from reqtrace.cli import EXIT_OK, main
from reqtrace.facts import load_facts_xml
from reqtrace.javaparser import parse_source_tree

PERFBENCH = Path(__file__).parent.parent / "perfbench"


@pytest.fixture(scope="module")
def corpus(tmp_path_factory) -> Iterator[Path]:
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(PERFBENCH))
        import corpus_gen
    root = tmp_path_factory.mktemp("corpus")
    corpus_gen.generate(root, classes=300, requirements=30, seed=3)
    # `pathlib` interns each part of a path it parses, and a command parses
    # the path of each source and requirement file.  Freed after each run,
    # those names would take new slots in the interpreter's one table of
    # interned strings each time, and late in a test session a resize of
    # that table (1.9 MB) fell into a traced run.  Held here, they keep
    # their slots.
    names = {sys.intern(part) for path in root.rglob("*") for part in path.parts}
    yield root
    del names


@pytest.fixture(autouse=True)
def one_process(monkeypatch) -> None:
    monkeypatch.setattr(javaparser, "_worker_count", lambda files: 1)


def traced_peak(argv: list[str]) -> int:
    """Peak bytes that tracemalloc sees during `main(argv)`, after one
    untraced run of the same command."""
    assert main(argv) == EXIT_OK
    tracemalloc.start()
    try:
        assert main(argv) == EXIT_OK
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_extract_holds_less_than_twice_its_xml(tmp_path, corpus, capsys):
    out = tmp_path / "facts.xml"
    peak = traced_peak(["extract", "--src", str(corpus / "src"), "--out", str(out)])
    capsys.readouterr()
    assert peak < 2 * out.stat().st_size


def test_dumping_intermediates_adds_less_than_the_largest_csv(
    tmp_path, corpus, capsys
):
    argv = ["trace", "--src", str(corpus / "src"), "--reqs", str(corpus / "reqs")]
    argv += ["--threshold", "0.15"]
    without = traced_peak(argv + ["--out", str(tmp_path / "plain")])
    dumped = tmp_path / "dumped"
    peak = traced_peak(argv + ["--dump-intermediates", "--out", str(dumped)])
    capsys.readouterr()
    largest = max(path.stat().st_size for path in dumped.glob("*.csv"))
    assert peak - without < largest


def test_trace_from_sources_holds_less_than_the_records_of_the_tree(
    tmp_path, corpus, capsys
):
    src = str(corpus / "src")
    tracemalloc.start()
    try:
        facts = parse_source_tree(src)
        records = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    del facts
    argv = ["trace", "--src", src, "--reqs", str(corpus / "reqs")]
    peak = traced_peak(argv + ["--threshold", "0.15", "--out", str(tmp_path)])
    capsys.readouterr()
    assert peak < records


@pytest.fixture(scope="module")
def corpus_facts(tmp_path_factory, corpus) -> Path:
    facts = tmp_path_factory.mktemp("facts") / "facts.xml"
    argv = ["extract", "--src", str(corpus / "src"), "--out", str(facts)]
    assert main(argv) == EXIT_OK
    return facts


def facts_argv(facts: Path, corpus: Path, out: Path) -> list[str]:
    argv = ["trace", "--facts", str(facts), "--reqs", str(corpus / "reqs")]
    return argv + ["--threshold", "0.15", "--out", str(out)]


def test_trace_from_facts_holds_less_than_the_records_of_the_file(
    tmp_path, corpus, corpus_facts, capsys, monkeypatch
):
    data = corpus_facts.read_bytes()
    tracemalloc.start()
    try:
        facts = load_facts_xml(data)
        records = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    del facts, data
    # the facts are read in this process, where tracemalloc sees the read
    monkeypatch.delattr(os, "fork")
    peak = traced_peak(facts_argv(corpus_facts, corpus, tmp_path / "out"))
    capsys.readouterr()
    assert peak < records


def test_a_forked_reader_leaves_this_process_no_more_to_hold(
    tmp_path, corpus, corpus_facts, capsys, monkeypatch
):
    argv = facts_argv(corpus_facts, corpus, tmp_path / "out")
    forked = traced_peak(argv)
    monkeypatch.delattr(os, "fork")
    alone = traced_peak(argv)
    capsys.readouterr()
    assert forked <= alone
