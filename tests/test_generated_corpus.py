"""End-to-end properties of the CLI on a small seeded corpus.

The corpus is written by `perfbench/corpus_gen.py`, with one hand-written
class added whose comments and types hold `&`, `<`, `>` and both quote
kinds.  It lies under a directory whose name holds those characters and a
tab, so the provenance attribute escapes them all.  Every trace runs at
full rank, except where a test passes `--topics`.
"""

from __future__ import annotations

import json
import shutil
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


def traced(out: Path, *args: str, threshold: str = "0.15") -> dict:
    """The links.json of one `trace` at full rank."""
    argv = ["trace", *args, "--out", str(out), "--threshold", threshold]
    assert main(argv) == EXIT_OK
    return json.loads((out / "links.json").read_text(encoding="utf-8"))


def link_sets(payload: dict) -> dict[str, set[str]]:
    return {req: set(classes) for req, classes in payload["links"].items()}


def test_raising_the_threshold_never_adds_a_link(tmp_path, corpus):
    facts = tmp_path / "facts.xml"
    assert main(["extract", "--src", str(corpus / "src"), "--out", str(facts)]) == EXIT_OK
    inputs = ("--facts", str(facts), "--reqs", str(corpus / "reqs"))
    thresholds = ("0.0", "0.05", "0.1", "0.15", "0.2", "0.3", "0.5", "0.7", "1.0")
    runs = [
        link_sets(traced(tmp_path / value, *inputs, threshold=value))
        for value in thresholds
    ]
    for lower, higher in zip(runs, runs[1:]):
        assert all(higher[req] <= lower[req] for req in lower)
    assert sum(map(len, runs[0].values())) > sum(map(len, runs[-1].values()))


def reversed_tree(src: Path, target: Path) -> Path:
    """A copy of the `.java` files of `src` under `target`, at paths whose
    sorted order reverses theirs."""
    for rank, path in enumerate(reversed(sorted(src.rglob("*.java")))):
        copy = target / f"d{rank:03d}" / path.name
        copy.parent.mkdir(parents=True)
        shutil.copyfile(path, copy)
    return target


def test_reversing_the_sorted_order_of_the_java_paths_keeps_the_links(
    tmp_path, corpus
):
    reversed_src = reversed_tree(corpus / "src", tmp_path / "reversed")
    reqs = ("--reqs", str(corpus / "reqs"))
    before = traced(tmp_path / "before", "--src", str(corpus / "src"), *reqs)
    after = traced(tmp_path / "after", "--src", str(reversed_src), *reqs)
    assert link_sets(after) == link_sets(before)
    assert after["unlinked_classes"] != before["unlinked_classes"]  # reordered
    for key in ("unlinked_classes", "unlinked_requirements"):
        assert set(after[key]) == set(before[key])


def test_reversing_the_java_paths_keeps_the_links_under_topics(tmp_path, corpus):
    # The d x d eigenproblem of `--topics` sees the documents permuted.  k
    # is at most the 41 documents here, so it keeps about half of them.
    reversed_src = reversed_tree(corpus / "src", tmp_path / "reversed")
    reqs = ("--reqs", str(corpus / "reqs"), "--topics", "20")
    before = traced(tmp_path / "before", "--src", str(corpus / "src"), *reqs)
    after = traced(tmp_path / "after", "--src", str(reversed_src), *reqs)
    assert link_sets(after) == link_sets(before)
    assert sum(map(len, link_sets(before).values())) > 0
    for key in ("unlinked_classes", "unlinked_requirements"):
        assert set(after[key]) == set(before[key])


def test_renaming_the_requirement_files_renames_only_the_link_keys(tmp_path, corpus):
    # A file's name is part of its requirement's text, so the new names keep
    # its words ("req") and reverse the sorted order by their serials.
    files = sorted((corpus / "reqs").glob("*.txt"))
    renamed_reqs = tmp_path / "reqs"
    renamed_reqs.mkdir()
    new_names = {}
    for path, serial in zip(files, range(len(files), 0, -1)):
        shutil.copyfile(path, renamed_reqs / f"req_{9000 + serial}.txt")
        new_names[path.stem.replace("_", " ")] = f"req {9000 + serial}"
    src = ("--src", str(corpus / "src"))
    before = traced(tmp_path / "before", *src, "--reqs", str(corpus / "reqs"))
    after = traced(tmp_path / "after", *src, "--reqs", str(renamed_reqs))
    assert after.keys() == before.keys()
    assert after["links"] == {new_names[req]: c for req, c in before["links"].items()}
    assert after["unlinked_classes"] == before["unlinked_classes"]
    renamed = [new_names[req] for req in before["unlinked_requirements"]]
    assert sorted(after["unlinked_requirements"]) == sorted(renamed)
