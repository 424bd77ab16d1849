"""End-to-end tests of the command-line front end on the Drawing Shapes app."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from reqtrace.cli import EXIT_CONFIG, EXIT_EMPTY_CORPUS, EXIT_OK, main

DS_POSET_DOT = r"""digraph aoc_poset {
  rankdir=BT;
  node [shape=box, fontname="Helvetica"];
  c0 [label="Concept_0\\nobjects: Draw a line\\nattributes: MyLine"];
  c1 [label="Concept_1\\nobjects: Draw oval\\nattributes: MyOval"];
  c2 [label="Concept_2\\nobjects: Draw rectangle\\nattributes: MyRectangle"];
  c3 [label="Concept_3\\nobjects: -\\nattributes: DrawingShapes, PaintJPanel, MyShape"];
  c3 -> c0;
  c3 -> c1;
  c3 -> c2;
}
"""

ARTEFACTS = {
    "links.json",
    "poset.dot",
    "tracelinks.dot",
    "tdm.csv",
    "tqm.csv",
    "csm.csv",
    "context.csv",
    "report.json",
    "report.csv",
}


def trace(out: Path, ds_requirements: Path, *args: str) -> int:
    return main(["trace", "--reqs", str(ds_requirements), "--out", str(out), *args])


def ds_trace_args(ds_source: Path, ds_gold: Path) -> list[str]:
    return ["--src", str(ds_source), "--gold", str(ds_gold), "--dump-intermediates"]


def read_all(directory: Path) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in directory.iterdir()}


@pytest.fixture(scope="module")
def ds_out(tmp_path_factory, ds_source, ds_requirements, ds_gold) -> Path:
    out = tmp_path_factory.mktemp("ds")
    assert trace(out, ds_requirements, *ds_trace_args(ds_source, ds_gold)) == EXIT_OK
    return out


def test_trace_reproduces_the_paper_at_default_threshold(ds_out, ds_gold):
    report = json.loads((ds_out / "report.json").read_text(encoding="utf-8"))
    assert report["micro_precision"] == 1.0
    assert report["micro_recall"] == 1.0
    links = json.loads((ds_out / "links.json").read_text(encoding="utf-8"))
    gold = json.loads(ds_gold.read_text(encoding="utf-8"))
    assert links["links"] == gold


def test_poset_dot_is_pinned(ds_out):
    assert (ds_out / "poset.dot").read_text(encoding="utf-8") == DS_POSET_DOT


def test_rerun_is_byte_identical(
    ds_out, tmp_path, ds_source, ds_requirements, ds_gold
):
    assert trace(tmp_path, ds_requirements, *ds_trace_args(ds_source, ds_gold)) == 0
    first, second = read_all(ds_out), read_all(tmp_path)
    assert set(first) == ARTEFACTS
    assert second == first


def test_src_and_extracted_facts_agree(ds_out, tmp_path, ds_source, ds_requirements):
    facts = tmp_path / "facts.xml"
    assert main(["extract", "--src", str(ds_source), "--out", str(facts)]) == EXIT_OK
    out = tmp_path / "out"
    assert trace(out, ds_requirements, "--facts", str(facts)) == EXIT_OK
    for name in ("links.json", "poset.dot"):
        assert (out / name).read_bytes() == (ds_out / name).read_bytes()


def test_evaluate_reproduces_the_trace_report(ds_out, tmp_path, ds_gold):
    argv = ["evaluate", "--links", str(ds_out / "links.json"), "--gold", str(ds_gold)]
    assert main([*argv, "--out", str(tmp_path)]) == EXIT_OK
    for name in ("report.json", "report.csv"):
        assert (tmp_path / name).read_bytes() == (ds_out / name).read_bytes()


def test_full_rank_svd_and_count_cosine_agree(
    ds_out, tmp_path, ds_source, ds_requirements
):
    # six classes bound the rank at 6; the default run skips the SVD
    code = trace(tmp_path, ds_requirements, "--src", str(ds_source), "--topics", "6")
    assert code == EXIT_OK
    for name in ("links.json", "poset.dot", "tracelinks.dot"):
        assert (tmp_path / name).read_bytes() == (ds_out / name).read_bytes()
    assert "-0.000000000" not in (ds_out / "csm.csv").read_text(encoding="utf-8")


@pytest.mark.parametrize(
    "option",
    [
        ["--threshold", "1.5"],
        ["--topics", "0"],
        ["--topics", "7"],  # six classes bound the rank at 6
    ],
)
def test_bad_configuration_exits_2(tmp_path, ds_source, ds_requirements, option):
    code = trace(tmp_path, ds_requirements, "--src", str(ds_source), *option)
    assert code == EXIT_CONFIG
    assert not (tmp_path / "links.json").exists()


def test_source_tree_without_classes_exits_3(tmp_path, ds_requirements):
    src = tmp_path / "src"
    src.mkdir()
    (src / "Empty.java").write_text("package empty;\n", encoding="utf-8")
    out = tmp_path / "out"
    assert trace(out, ds_requirements, "--src", str(src)) == EXIT_EMPTY_CORPUS
    assert not out.exists()
