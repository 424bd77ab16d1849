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
worker processes.  The corpus is `perfbench/corpus_gen.py`'s, at 300
classes.
"""

from __future__ import annotations

import tracemalloc
from pathlib import Path

import pytest

from reqtrace import javaparser
from reqtrace.cli import EXIT_OK, main
from reqtrace.facts import load_facts_xml
from reqtrace.javaparser import parse_source_tree

PERFBENCH = Path(__file__).parent.parent / "perfbench"


@pytest.fixture(scope="module")
def corpus(tmp_path_factory) -> Path:
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(PERFBENCH))
        import corpus_gen
    root = tmp_path_factory.mktemp("corpus")
    corpus_gen.generate(root, classes=300, requirements=30, seed=3)
    return root


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


def test_trace_from_facts_holds_less_than_the_records_of_the_file(
    tmp_path, corpus, capsys
):
    facts_xml = tmp_path / "facts.xml"
    argv = ["extract", "--src", str(corpus / "src"), "--out", str(facts_xml)]
    assert main(argv) == EXIT_OK
    data = facts_xml.read_bytes()
    tracemalloc.start()
    try:
        facts = load_facts_xml(data)
        records = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    del facts, data
    argv = ["trace", "--facts", str(facts_xml), "--reqs", str(corpus / "reqs")]
    peak = traced_peak(argv + ["--threshold", "0.15", "--out", str(tmp_path / "out")])
    capsys.readouterr()
    assert peak < records
