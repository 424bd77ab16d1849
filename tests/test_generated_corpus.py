"""End-to-end properties of the CLI on a small seeded corpus.

The corpus is written by `perfbench/corpus_gen.py`, with one hand-written
class added whose comments and types hold `&`, `<`, `>` and both quote
kinds.  It lies under a directory whose name holds those characters and a
tab, so the provenance attribute escapes them all.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from reqtrace.cli import EXIT_OK, main
from reqtrace.facts import load_facts_xml, save_facts_xml
from reqtrace.javaparser import parse_source_tree

PERFBENCH = Path(__file__).parent.parent / "perfbench"

ODD_CLASS = """package com.bench.odd;

import java.util.List;
import java.util.Map;

/** Holds "double" & 'single' quotes and <tags>. */
public class OddChars {
    private Map<String, List<Integer>> index;

    /** Returns a < b && c > d, or "none" if it's 'empty'. */
    public List<String> names(Map<String, int[]> byName) {
        Map<String, Integer> rows = null; // a & "b" > 'c'
        return null;
    }
}
"""


@pytest.fixture(scope="module")
def corpus(tmp_path_factory) -> Path:
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(PERFBENCH))
        import corpus_gen
    root = tmp_path_factory.mktemp("corpus") / "odd \"a\" & 'b' <c>\td"
    corpus_gen.generate(root, classes=40, requirements=10, seed=7)
    odd = root / "src" / "com" / "bench" / "odd" / "OddChars.java"
    odd.parent.mkdir(parents=True)
    odd.write_text(ODD_CLASS, encoding="utf-8")
    return root


def written(root: Path) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in root.iterdir()}


def test_src_gives_the_bytes_of_extract_then_facts(tmp_path, corpus, capsys):
    trace = ["trace", "--reqs", str(corpus / "reqs"), "--gold", str(corpus / "gold.json")]
    trace += ["--threshold", "0.15", "--dump-intermediates"]
    src, facts = tmp_path / "src", tmp_path / "facts.xml"

    assert main(trace + ["--src", str(corpus / "src"), "--out", str(src)]) == EXIT_OK
    from_src = capsys.readouterr()
    assert main(["extract", "--src", str(corpus / "src"), "--out", str(facts)]) == EXIT_OK
    extracted = capsys.readouterr()
    out = tmp_path / "facts"
    assert main(trace + ["--facts", str(facts), "--out", str(out)]) == EXIT_OK
    from_facts = capsys.readouterr()

    assert written(src) == written(out)
    assert from_src.out == from_facts.out
    assert from_src.err == extracted.err
    assert "generic type arguments ignored" in extracted.err
    assert from_facts.err == ""


def test_facts_xml_round_trips(corpus):
    facts, _ = parse_source_tree(corpus / "src")
    data = save_facts_xml(facts)
    for escaped in (b"&amp;", b"&lt;", b"&gt;", b"&quot;", b"&#9;", b"'"):
        assert escaped in data
    assert load_facts_xml(data) == facts
    assert save_facts_xml(load_facts_xml(data)) == data
