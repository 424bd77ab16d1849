"""End-to-end tests of the command-line front end on the Drawing Shapes app."""

from __future__ import annotations

import argparse
import csv
import errno
import io
import json
import os
import shutil
import sys
import uuid
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, seed, settings, strategies as st

from reqtrace import cli, fca
from reqtrace.cli import EXIT_CONFIG, EXIT_EMPTY_CORPUS, EXIT_OK, main
from reqtrace.lsi import SimilarityMatrix

from test_lsi import query_matrix, svd_cosines, synthetic

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

DS_LINKS_JSON = """{
  "links": {
    "Draw a line": [
      "MyLine"
    ],
    "Draw oval": [
      "MyOval"
    ],
    "Draw rectangle": [
      "MyRectangle"
    ]
  },
  "unlinked_classes": [
    "DrawingShapes",
    "PaintJPanel",
    "MyShape"
  ],
  "unlinked_requirements": []
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


def test_trace_reads_the_context_as_row_masks(
    tmp_path, ds_source, ds_requirements, ds_gold, monkeypatch
):
    def dense_table(ctx):
        raise AssertionError("trace rebuilt the dense incidence table")

    def lattice(*args):
        raise AssertionError("trace went through the concept lattice")

    monkeypatch.setattr(fca.FormalContext, "incidence", property(dense_table))
    monkeypatch.setattr(fca, "enumerate_concepts", lattice)
    monkeypatch.setattr(fca, "build_aoc_poset", lattice)
    assert trace(tmp_path, ds_requirements, *ds_trace_args(ds_source, ds_gold)) == 0
    assert (tmp_path / "links.json").read_text(encoding="utf-8") == DS_LINKS_JSON


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


DS_FACTS_XML = r"""<?xml version="1.0" encoding="UTF-8"?>
<codefacts provenance="{src}">
  <package name="Drawing.Shapes.app">
    <class name="DrawingShapes" superclass="JFrame">
      <comment kind="class-level">Main window: combo boxes pick the kind and the color, the panel shows the picture.</comment>
      <attribute name="paintPanel" type="PaintJPanel"/>
      <attribute name="shapeChooser" type="JComboBox"/>
      <attribute name="colorChooser" type="JComboBox"/>
      <attribute name="statusLabel" type="JLabel"/>
      <attribute name="shapeNames" type="String[]"/>
      <attribute name="colorNames" type="String[]"/>
      <method name="DrawingShapes">
        <access name="shapeNames"/>
        <access name="colorNames"/>
        <access name="paintPanel"/>
        <access name="shapeChooser"/>
        <access name="colorChooser"/>
        <access name="statusLabel"/>
        <access name="shapeChooser"/>
        <access name="paintPanel"/>
        <access name="statusLabel"/>
        <invoke name="PaintJPanel"/>
        <invoke name="JComboBox"/>
        <invoke name="JComboBox"/>
        <invoke name="JLabel"/>
        <invoke name="add"/>
        <invoke name="add"/>
        <invoke name="add"/>
        <invoke name="setSize"/>
        <invoke name="setVisible"/>
      </method>
      <method name="main">
        <param name="args" type="String[]"/>
        <local name="application" type="DrawingShapes"/>
        <invoke name="DrawingShapes"/>
        <invoke name="setDefaultCloseOperation"/>
      </method>
    </class>
  </package>
  <package name="Drawing.Shapes.coreElements">
    <class name="MyLine" superclass="MyShape">
      <comment kind="class-level">Line shape: a line connects two end points; the user can draw a single line.</comment>
      <method name="MyLine"/>
      <method name="MyLine">
        <param name="x1" type="int"/>
        <param name="y1" type="int"/>
        <param name="x2" type="int"/>
        <param name="y2" type="int"/>
        <param name="color" type="Color"/>
      </method>
      <method name="draw">
        <param name="g" type="Graphics"/>
        <access name="X1"/>
        <access name="Y1"/>
        <access name="X2"/>
        <access name="Y2"/>
        <invoke name="setColor"/>
        <invoke name="getShapeColor"/>
        <invoke name="drawLine"/>
        <comment kind="method-level">draw a line on the drawing zone; the user can choose the right color of the drawn line</comment>
      </method>
    </class>
    <class name="MyOval" superclass="MyShape">
      <comment kind="class-level">Oval shape: the user can draw a single oval inside a bounding box.</comment>
      <method name="MyOval">
        <param name="x1" type="int"/>
        <param name="y1" type="int"/>
        <param name="x2" type="int"/>
        <param name="y2" type="int"/>
        <param name="color" type="Color"/>
      </method>
      <method name="draw">
        <param name="g" type="Graphics"/>
        <local name="ovalWidth" type="int"/>
        <local name="ovalHeight" type="int"/>
        <invoke name="setColor"/>
        <invoke name="getShapeColor"/>
        <invoke name="drawOval"/>
        <comment kind="method-level">draw an oval on the drawing zone; the user can choose the right color of the drawn oval</comment>
      </method>
    </class>
    <class name="MyRectangle" superclass="MyShape">
      <comment kind="class-level">Rectangle shape: the user can draw a single rectangle with four corners.</comment>
      <method name="MyRectangle">
        <param name="x1" type="int"/>
        <param name="y1" type="int"/>
        <param name="x2" type="int"/>
        <param name="y2" type="int"/>
        <param name="color" type="Color"/>
      </method>
      <method name="draw">
        <param name="g" type="Graphics"/>
        <local name="rectangleWidth" type="int"/>
        <local name="rectangleHeight" type="int"/>
        <invoke name="setColor"/>
        <invoke name="getShapeColor"/>
        <invoke name="drawRect"/>
        <comment kind="method-level">draw a rectangle on the drawing zone; the user can choose the right color of the drawn rectangle</comment>
      </method>
    </class>
  </package>
  <package name="Drawing.Shapes.gui">
    <class name="PaintJPanel" superclass="JPanel">
      <comment kind="class-level">Panel holding the drawing zone: stores every finished shape and the shape being dragged.</comment>
      <attribute name="shapes" type="MyShape[]"/>
      <attribute name="shapeCount" type="int"/>
      <attribute name="currentShapeType" type="int"/>
      <attribute name="currentShapeColor" type="Color"/>
      <attribute name="currentShape" type="MyShape"/>
      <method name="PaintJPanel">
        <access name="shapes"/>
        <access name="shapeCount"/>
        <access name="currentShapeType"/>
        <access name="currentShapeColor"/>
        <access name="currentShape"/>
      </method>
      <method name="paintComponent">
        <param name="g" type="Graphics"/>
        <local name="index" type="int"/>
        <access name="shapeCount"/>
        <access name="shapes"/>
        <access name="currentShape"/>
        <access name="currentShape"/>
        <invoke name="paintComponent"/>
        <invoke name="draw"/>
        <invoke name="draw"/>
        <comment kind="method-level">paint every stored shape, then the shape under the mouse</comment>
      </method>
      <method name="mousePressed">
        <param name="event" type="MouseEvent"/>
        <local name="pressedX" type="int"/>
        <local name="pressedY" type="int"/>
        <access name="currentShapeType"/>
        <access name="currentShape"/>
        <access name="currentShapeColor"/>
        <access name="currentShapeType"/>
        <access name="currentShape"/>
        <access name="currentShapeColor"/>
        <access name="currentShapeType"/>
        <access name="currentShape"/>
        <access name="currentShapeColor"/>
        <invoke name="getX"/>
        <invoke name="getY"/>
        <invoke name="MyLine"/>
        <invoke name="MyOval"/>
        <invoke name="MyRectangle"/>
        <invoke name="repaint"/>
        <comment kind="method-level">the pressed mouse button starts a new shape of the selected kind</comment>
      </method>
      <method name="mouseDragged">
        <param name="event" type="MouseEvent"/>
        <access name="currentShape"/>
        <access name="currentShape"/>
        <access name="currentShape"/>
        <invoke name="setX2"/>
        <invoke name="getX"/>
        <invoke name="setY2"/>
        <invoke name="getY"/>
        <invoke name="repaint"/>
        <comment kind="method-level">the dragged mouse resizes the shape under construction</comment>
      </method>
      <method name="mouseReleased">
        <param name="event" type="MouseEvent"/>
        <access name="currentShape"/>
        <access name="shapes"/>
        <access name="shapeCount"/>
        <access name="currentShape"/>
        <access name="shapeCount"/>
        <access name="shapeCount"/>
        <access name="currentShape"/>
        <invoke name="repaint"/>
        <comment kind="method-level">the released mouse button stores the finished shape</comment>
      </method>
      <method name="setCurrentShapeType">
        <param name="type" type="int"/>
        <access name="currentShapeType"/>
      </method>
      <method name="setCurrentShapeColor">
        <param name="color" type="Color"/>
        <access name="currentShapeColor"/>
      </method>
    </class>
  </package>
  <package name="Drawing.Shapes.model">
    <class name="MyShape">
      <comment kind="class-level">Base class for every shape that can be drawn: keeps the two end points and the color.</comment>
      <attribute name="X1" type="int"/>
      <attribute name="Y1" type="int"/>
      <attribute name="X2" type="int"/>
      <attribute name="Y2" type="int"/>
      <attribute name="shapeColor" type="Color"/>
      <method name="MyShape">
        <access name="X1"/>
        <access name="Y1"/>
        <access name="X2"/>
        <access name="Y2"/>
        <access name="shapeColor"/>
      </method>
      <method name="MyShape">
        <param name="x1" type="int"/>
        <param name="y1" type="int"/>
        <param name="x2" type="int"/>
        <param name="y2" type="int"/>
        <param name="color" type="Color"/>
        <access name="X1"/>
        <access name="Y1"/>
        <access name="X2"/>
        <access name="Y2"/>
        <access name="shapeColor"/>
      </method>
      <method name="getX1">
        <access name="X1"/>
      </method>
      <method name="setX1">
        <param name="x1" type="int"/>
        <access name="X1"/>
      </method>
      <method name="getY1">
        <access name="Y1"/>
      </method>
      <method name="setY1">
        <param name="y1" type="int"/>
        <access name="Y1"/>
      </method>
      <method name="getX2">
        <access name="X2"/>
      </method>
      <method name="setX2">
        <param name="x2" type="int"/>
        <access name="X2"/>
      </method>
      <method name="getY2">
        <access name="Y2"/>
      </method>
      <method name="setY2">
        <param name="y2" type="int"/>
        <access name="Y2"/>
      </method>
      <method name="getShapeColor">
        <access name="shapeColor"/>
      </method>
      <method name="setShapeColor">
        <param name="color" type="Color"/>
        <access name="shapeColor"/>
      </method>
      <method name="draw">
        <param name="g" type="Graphics"/>
        <comment kind="method-level">every concrete shape paints itself</comment>
      </method>
    </class>
  </package>
</codefacts>
"""

DS_EXTRACT_SUMMARY = """packages (NOP)      4
classes (NOC)       6
attributes (NOA)    16
methods (NOM)       29
identifiers         95
comments            14
local variables     8
method invocations  35
attribute accesses  63
"""


def test_extract_output_is_pinned(tmp_path, ds_source, capsys):
    facts = tmp_path / "facts.xml"
    assert main(["extract", "--src", str(ds_source), "--out", str(facts)]) == EXIT_OK
    xml = facts.read_text(encoding="utf-8")
    xml = xml.replace(f'provenance="{ds_source}"', 'provenance="{src}"')
    assert xml == DS_FACTS_XML
    out, err = capsys.readouterr()
    assert out == DS_EXTRACT_SUMMARY
    assert err == ""  # no diagnostic lines


def extract_and_trace(tmp_path, ds_source, ds_requirements, capsys, name, data):
    """`extract` and `trace --src` on a copy of the DS sources plus one file.

    Returns the path of that file and, for each command, its exit code and
    stderr; the outputs go to `facts.xml` and `out/` under `tmp_path`.
    """
    src = tmp_path / "src"
    shutil.copytree(ds_source, src)
    (src / name).write_bytes(data)
    argv = ["extract", "--src", str(src), "--out", str(tmp_path / "facts.xml")]
    extracted = main(argv), capsys.readouterr().err
    args = ["--src", str(src), "--dump-intermediates"]
    traced = trace(tmp_path / "out", ds_requirements, *args), capsys.readouterr().err
    return src / name, extracted, traced


def traced_classes(out: Path) -> list[str]:
    return (out / "csm.csv").read_text(encoding="utf-8").splitlines()[0].split(",")[1:]


def test_parse_errors_do_not_abort_extract_or_trace(
    tmp_path, ds_source, ds_requirements, capsys
):
    broken = b"class Broken {\n  void m() {}\n"
    path, extracted, traced = extract_and_trace(
        tmp_path, ds_source, ds_requirements, capsys, "Broken.java", broken
    )
    message = f"error: {path}:1: unterminated body of class 'Broken'\n"
    assert extracted == traced == (EXIT_OK, message)
    assert '<class name="Broken">' in (tmp_path / "facts.xml").read_text("utf-8")
    assert "Broken" in traced_classes(tmp_path / "out")


def test_java_file_not_in_utf8_is_read_as_latin1(
    tmp_path, ds_source, ds_requirements, capsys
):
    legacy = b"package legacy;\n// caf\xe9\nclass Legacy { void brew() {} }\n"
    path, extracted, traced = extract_and_trace(
        tmp_path, ds_source, ds_requirements, capsys, "Legacy.java", legacy
    )
    message = f"warning: {path}:1: not UTF-8; decoded as ISO-8859-1\n"
    assert extracted == traced == (EXIT_OK, message)
    xml = (tmp_path / "facts.xml").read_text(encoding="utf-8")
    assert '<comment kind="class-level">caf\u00e9</comment>' in xml
    assert "Legacy" in traced_classes(tmp_path / "out")


def test_java_file_with_a_byte_order_mark_reads_as_without(
    tmp_path, ds_source, ds_requirements, capsys
):
    bom = "\ufeffpackage marked;\nclass Marked { void m() {} }\n".encode("utf-8")
    _, extracted, traced = extract_and_trace(
        tmp_path, ds_source, ds_requirements, capsys, "Marked.java", bom
    )
    assert extracted == traced == (EXIT_OK, "")
    assert "Marked" in traced_classes(tmp_path / "out")


def test_comment_of_2000_ys_does_not_abort_trace(
    tmp_path, ds_source, ds_requirements, capsys
):
    # each "y" after a consonant is a vowel; the stemmer must not recurse per letter
    text = f"/** {'y' * 2000}ed */\nclass Why {{ void m() {{}} }}\n".encode("utf-8")
    _, extracted, traced = extract_and_trace(
        tmp_path, ds_source, ds_requirements, capsys, "Why.java", text
    )
    assert extracted == traced == (EXIT_OK, "")
    assert "Why" in traced_classes(tmp_path / "out")


@pytest.mark.parametrize(
    "directory, provenance",
    [(b"src\xff", "src\ufffd"), (b"src\x01x", "src\ufffdx")],
    ids=["not UTF-8", "control character"],
)
def test_source_root_path_the_xml_cannot_hold(
    tmp_path, ds_source, ds_requirements, ds_gold, directory, provenance
):
    src = tmp_path / os.fsdecode(directory)
    shutil.copytree(ds_source, src)
    facts = tmp_path / "facts.xml"
    assert main(["extract", "--src", str(src), "--out", str(facts)]) == EXIT_OK
    assert f'provenance="{tmp_path}/{provenance}"' in facts.read_text("utf-8")
    args = ["--facts", str(facts), "--gold", str(ds_gold)]
    assert trace(tmp_path / "out", ds_requirements, *args) == EXIT_OK
    report = json.loads((tmp_path / "out" / "report.json").read_text("utf-8"))
    assert report["micro_precision"] == report["micro_recall"] == 1.0


def test_outputs_take_the_mode_of_the_umask(tmp_path, ds_source, ds_requirements):
    facts = tmp_path / "facts.xml"
    previous = os.umask(0o022)
    try:
        extracted = main(["extract", "--src", str(ds_source), "--out", str(facts)])
        traced = trace(tmp_path / "out", ds_requirements, "--facts", str(facts))
    finally:
        os.umask(previous)
    assert extracted == traced == EXIT_OK
    assert facts.stat().st_mode & 0o777 == 0o644
    assert (tmp_path / "out" / "links.json").stat().st_mode & 0o777 == 0o644


def test_evaluate_reproduces_the_trace_report(ds_out, tmp_path, ds_gold):
    argv = ["evaluate", "--links", str(ds_out / "links.json"), "--gold", str(ds_gold)]
    assert main([*argv, "--out", str(tmp_path)]) == EXIT_OK
    for name in ("report.json", "report.csv"):
        assert (tmp_path / name).read_bytes() == (ds_out / name).read_bytes()


def with_a_byte_order_mark(path: Path, copy: Path) -> Path:
    copy.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    return copy


def test_trace_reads_a_gold_file_with_a_byte_order_mark(
    ds_out, tmp_path, ds_source, ds_requirements, ds_gold
):
    gold = with_a_byte_order_mark(ds_gold, tmp_path / "gold.json")
    out = tmp_path / "out"
    args = ["--src", str(ds_source), "--gold", str(gold), "--dump-intermediates"]
    assert trace(out, ds_requirements, *args) == EXIT_OK
    assert read_all(out) == read_all(ds_out)


def test_evaluate_reads_links_and_gold_with_a_byte_order_mark(
    ds_out, tmp_path, ds_gold
):
    links = with_a_byte_order_mark(ds_out / "links.json", tmp_path / "links.json")
    gold = with_a_byte_order_mark(ds_gold, tmp_path / "gold.json")
    argv = ["evaluate", "--links", str(links), "--gold", str(gold)]
    assert main([*argv, "--out", str(tmp_path / "out")]) == EXIT_OK
    for name in ("report.json", "report.csv"):
        assert (tmp_path / "out" / name).read_bytes() == (ds_out / name).read_bytes()


def test_full_rank_svd_and_count_cosine_agree(
    ds_out, tmp_path, ds_source, ds_requirements
):
    # six classes bound the rank at 6; the default run skips the SVD
    code = trace(tmp_path, ds_requirements, "--src", str(ds_source), "--topics", "6")
    assert code == EXIT_OK
    for name in ("links.json", "poset.dot", "tracelinks.dot"):
        assert (tmp_path / name).read_bytes() == (ds_out / name).read_bytes()
    assert "-0.000000000" not in (ds_out / "csm.csv").read_text(encoding="utf-8")


def read_matrix_csv(path: Path) -> tuple[list[str], np.ndarray]:
    """Header names after the first cell, and the numeric body."""
    rows = list(csv.reader(path.read_text(encoding="utf-8").splitlines()))
    return rows[0][1:], np.array([[float(v) for v in row[1:]] for row in rows[1:]])


@pytest.mark.parametrize("topics", [2, 4, 6])
def test_topics_similarity_matches_the_svd_oracle(
    tmp_path, ds_source, ds_requirements, topics
):
    args = ["--src", str(ds_source), "--topics", str(topics), "--dump-intermediates"]
    assert trace(tmp_path, ds_requirements, *args) == EXIT_OK
    doc_names, docs = read_matrix_csv(tmp_path / "tdm.csv")
    query_names, queries = read_matrix_csv(tmp_path / "tqm.csv")
    tdm = synthetic(docs.astype(int))
    tqm = query_matrix(tdm, queries.astype(int), tuple(query_names))
    _, expected = svd_cosines(tdm, tqm, topics)
    shown_docs, shown = read_matrix_csv(tmp_path / "csm.csv")
    assert shown_docs == doc_names
    assert np.abs(shown - expected).max() <= 0.5e-9 + 1e-12
    oracle = SimilarityMatrix(tuple(query_names), tuple(doc_names), expected)
    context = b"".join(fca.export_context_csv(fca.binarize(oracle, 0.70)))
    assert (tmp_path / "context.csv").read_bytes() == context


BAD_CONFIGURATIONS = {
    ("--threshold", "1.5"): "threshold 1.5 outside [-1, 1]",
    ("--topics", "0"): "topics 0 outside 1..min(terms, documents)",
    ("--topics", "7"): "topics 7 outside 1..6",  # six classes bound the rank at 6
    ("--threshold", "-1.5"): "threshold -1.5 outside [-1, 1]",
    ("--threshold", "nan"): "threshold nan outside [-1, 1]",
}


@pytest.mark.parametrize("option", [list(option) for option in BAD_CONFIGURATIONS])
def test_bad_configuration_exits_2(
    tmp_path, ds_source, ds_requirements, capsys, option
):
    code = trace(tmp_path, ds_requirements, "--src", str(ds_source), *option)
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err == f"error: {BAD_CONFIGURATIONS[tuple(option)]}\n"
    assert not (tmp_path / "links.json").exists()


def test_threshold_minus_one_links_every_requirement_to_every_class(
    tmp_path, ds_source, ds_requirements
):
    # [-1, 1] is the range of a cosine, and `fca.binarize` takes all of it
    option = ["--src", str(ds_source), "--threshold", "-1.0"]
    assert trace(tmp_path, ds_requirements, *option) == EXIT_OK
    links = json.loads((tmp_path / "links.json").read_text(encoding="utf-8"))
    classes = "DrawingShapes MyLine MyOval MyRectangle MyShape PaintJPanel".split()
    assert {req: sorted(names) for req, names in links["links"].items()} == {
        req: classes for req in ("Draw a line", "Draw oval", "Draw rectangle")
    }
    assert links["unlinked_classes"] == links["unlinked_requirements"] == []


def test_class_name_shared_by_two_packages_is_qualified(tmp_path):
    sources = {
        "a/Circle.java": "package a;\n/** Round circle drawn by radius. */\n"
        "public class Circle { int radius; void drawCircle() {} }\n",
        "a/Shape.java": "package a;\n/** Filled polygon shape. */\n"
        "public class Shape { void fillPolygon() {} }\n",
        "b/Shape.java": "package b;\n/** Shape outline border. */\n"
        "public class Shape { void strokeBorder() {} }\n",
    }
    for relative, text in sources.items():
        path = tmp_path / "src" / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    reqs = tmp_path / "reqs"
    reqs.mkdir()
    (reqs / "Fill_polygon.txt").write_text("Fill a polygon.", encoding="utf-8")
    (reqs / "Stroke_border.txt").write_text("Stroke the border.", encoding="utf-8")
    gold = tmp_path / "gold.json"
    gold.write_text(
        json.dumps({"Fill polygon": ["a.Shape"], "Stroke border": ["b.Shape"]}),
        encoding="utf-8",
    )
    out = tmp_path / "out"
    args = ["--src", str(tmp_path / "src"), "--gold", str(gold), "--threshold", "0.5"]
    assert trace(out, reqs, *args, "--dump-intermediates") == EXIT_OK
    header = (out / "csm.csv").read_text(encoding="utf-8").splitlines()[0]
    assert header == "query,Circle,a.Shape,b.Shape"
    links = json.loads((out / "links.json").read_text(encoding="utf-8"))["links"]
    assert links == {"Fill polygon": ["a.Shape"], "Stroke border": ["b.Shape"]}
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert report["micro_precision"] == report["micro_recall"] == 1.0


# Every input of the CLI, by what its refusal calls it: its path, the
# (command, option) pairs that take it (no option for a requirement file,
# which `--reqs` lists), and the bytes of each fault of its content.  Each
# input also has the faults of any path: missing, and of the wrong kind (a
# file for a directory, a directory for a file).  A name that UTF-8 cannot
# encode is a lone surrogate: in a JSON file an escape, and in a file name a
# byte that is not UTF-8.
INPUTS = {
    "source root": ("src", [("extract", "--src"), ("trace", "--src")], {}),
    "facts file": (
        "facts.xml",
        [("trace", "--facts")],
        {
            "undecodable": b'<?xml version="1.0" encoding="x-none"?><codefacts/>',
            "malformed": b"<codefacts><package>",
        },
    ),
    "requirement directory": ("reqs", [("trace", "--reqs")], {}),
    "requirement file": (
        "reqs/Latin.txt",
        [("trace", None)],
        {"not UTF-8": "café".encode("iso-8859-1"), "name not UTF-8": b"Draw"},
    ),
    "stop-word file": (
        "stops.txt",
        [("trace", "--stopwords")],
        {"not UTF-8": "the\nété\n".encode("iso-8859-1")},
    ),
    "gold file": (
        "gold.json",
        [("trace", "--gold"), ("evaluate", "--gold")],
        {
            "not UTF-8": '{"Draw a line": ["Café"]}'.encode("iso-8859-1"),
            "malformed": b'{"Draw a line": "MyLine"}',
            "name not UTF-8": b'{"Draw a line": ["Caf\\udce9"]}',
        },
    ),
    "links file": (
        "links.json",
        [("evaluate", "--links")],
        {
            "not UTF-8": '{"links": {"Draw a line": ["Café"]}}'.encode("iso-8859-1"),
            "malformed": b'{"links": ["MyLine"]}',
            "name not UTF-8": b'{"links": {"a\\udce9": ["X"]}}',
        },
    ),
}
DIRECTORIES = {"source root", "requirement directory"}
REQUIRED = {
    "extract": ["--src"],
    "trace": ["--src", "--reqs"],
    "evaluate": ["--links", "--gold"],
}


@pytest.mark.parametrize(
    "what, fault",
    [
        (what, fault)
        for what, (_, _, contents) in INPUTS.items()
        for fault in ["missing", "wrong kind", *contents]
    ],
)
def test_text_input_missing_or_not_in_utf8_exits_2(
    tmp_path, ds_source, ds_requirements, ds_gold, monkeypatch, what, fault
):
    # Named for its first rows, the text inputs: it now covers every input.
    path, commands, contents = INPUTS[what]
    bad = tmp_path / path
    links = tmp_path / "valid-links.json"
    links.write_text(DS_LINKS_JSON, encoding="utf-8")
    given = {
        "--src": ds_source,
        "--reqs": ds_requirements,
        "--links": links,
        "--gold": ds_gold,
    }
    if what == "requirement file":
        given["--reqs"] = shutil.copytree(ds_requirements, bad.parent)
        if fault == "name not UTF-8":
            bad = bad.with_name(os.fsdecode(b"Caf\xe9_line.txt"))
    if fault in contents:
        bad.write_bytes(contents[fault])
    elif fault == "wrong kind" and what in DIRECTORIES:
        bad.write_bytes(b"")
    elif fault == "wrong kind":
        bad.mkdir()
    elif what == "requirement file":
        bad.symlink_to(tmp_path / "nowhere.txt")  # listed, but not there
    out = tmp_path / "out"
    for command, option in commands:
        inputs = {key: given[key] for key in REQUIRED[command]}
        if option == "--facts":
            del inputs["--src"]
        if option is not None:
            inputs[option] = bad
        argv = [command, *(str(arg) for item in inputs.items() for arg in item)]
        # a lone surrogate in a path: sys.stderr escapes it, capsys would raise
        stderr = io.StringIO()
        monkeypatch.setattr(sys, "stderr", stderr)
        assert main([*argv, "--out", str(out)]) == EXIT_CONFIG
        err = stderr.getvalue()
        assert err.startswith(f"error: {what} {bad}: ")
        assert err.count("\n") == 1
        assert not out.exists()


def test_the_input_table_names_every_input_option():
    # A new input option must join INPUTS, and so be refused like the others.
    parser = cli._build_parser()
    (commands,) = [
        action
        for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    options = {
        (command, option)
        for command, subparser in commands.choices.items()
        for action in subparser._actions
        if action.type is Path
        for option in action.option_strings
        if option != "--out"
    }
    listed = {pair for _, pairs, _ in INPUTS.values() for pair in pairs}
    assert options == listed - {("trace", None)}


@pytest.mark.parametrize("encoding", ["x-none", "utf-7"])
def test_facts_in_an_encoding_expat_cannot_decode_exits_2(
    tmp_path, ds_requirements, capsys, encoding
):
    facts = tmp_path / "facts.xml"
    facts.write_bytes(
        f'<?xml version="1.0" encoding="{encoding}"?><codefacts/>'.encode("ascii")
    )
    out = tmp_path / "out"
    assert trace(out, ds_requirements, "--facts", str(facts)) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"error: facts file {facts}: line 1: ")
    assert err.count("\n") == 1
    assert not out.exists()


def test_facts_that_break_a_model_invariant_exit_2(tmp_path, ds_requirements, capsys):
    facts = tmp_path / "facts.xml"
    facts.write_bytes(
        b'<codefacts><package name="p"><class name="C">'
        b'<attribute name="a" type="int"/><attribute name="a" type="long"/>'
        b"</class></package></codefacts>"
    )
    out = tmp_path / "out"
    assert trace(out, ds_requirements, "--facts", str(facts)) == EXIT_CONFIG
    err = capsys.readouterr().err
    message = "<attribute>: duplicate attribute 'a' in class 'C'"
    assert err == f"error: facts file {facts}: {message}\n"
    assert not out.exists()


@pytest.fixture()
def misspelt_gold(tmp_path) -> Path:
    gold = tmp_path / "gold.json"
    gold.write_text(
        json.dumps(
            {
                "Draw a line": ["Lin"],
                "Draw oval": ["Oval"],
                "Draw rectangle": ["Rectangl", "MyRectangle"],
            }
        ),
        encoding="utf-8",
    )
    return gold


UNKNOWN_GOLD_MESSAGE = "not documents: Lin, Oval, Rectangl"


def test_trace_gold_naming_unknown_classes_exits_2(
    tmp_path, ds_source, ds_requirements, misspelt_gold, capsys
):
    out = tmp_path / "out"
    args = ["--src", str(ds_source), "--gold", str(misspelt_gold)]
    assert trace(out, ds_requirements, *args) == EXIT_CONFIG
    assert UNKNOWN_GOLD_MESSAGE in capsys.readouterr().err
    assert not (out / "report.json").exists()


def test_failed_trace_writes_nothing(
    tmp_path, ds_source, ds_requirements, misspelt_gold
):
    out = tmp_path / "out"
    out.mkdir()
    args = ["--src", str(ds_source), "--gold", str(misspelt_gold)]
    args += ["--dump-intermediates"]
    assert trace(out, ds_requirements, *args) == EXIT_CONFIG
    assert list(out.iterdir()) == []


@pytest.mark.parametrize(
    "earlier", [None, b"an earlier run\n"], ids=["no links.json", "links.json"]
)
def test_failed_write_leaves_every_file_as_it_was(
    tmp_path, ds_source, ds_requirements, capsys, earlier
):
    out = tmp_path / "out"
    (out / "poset.dot").mkdir(parents=True)  # the rename target is a directory
    if earlier is not None:
        (out / "links.json").write_bytes(earlier)
    args = ["--src", str(ds_source), "--threshold", "0.7"]
    assert trace(out, ds_requirements, *args) == EXIT_CONFIG
    assert "Is a directory" in capsys.readouterr().err
    left = {"poset.dot"} if earlier is None else {"poset.dot", "links.json"}
    assert {path.name for path in out.iterdir()} == left
    assert list((out / "poset.dot").iterdir()) == []
    if earlier is not None:
        assert (out / "links.json").read_bytes() == earlier


class FullDisk(io.FileIO):
    """An unbuffered file whose third write fails as on a full disk."""

    writes_left = 2

    def write(self, data):
        if not self.writes_left:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        self.writes_left -= 1
        return super().write(data)


def chunks_then_failure():
    yield b"a first chunk\n"
    raise RuntimeError("rendering failed")


@pytest.mark.parametrize("failure", ["chunk source raises", "third write fails"])
def test_failed_chunked_write_leaves_every_file_as_it_was(
    tmp_path, monkeypatch, failure
):
    earlier = {"a.json": b"{}\n", "b.csv": b"old,row\n", "c.dot": b"digraph {}\n"}
    for name, data in earlier.items():
        (tmp_path / name).write_bytes(data)
    files = {
        tmp_path / "a.json": "{\"new\": 1}\n",
        tmp_path / "new.txt": b"no earlier version\n",
        tmp_path / "b.csv": [b"x,y\n", b"1,2\n", b"3,4\n", b"5,6\n"],
        tmp_path / "c.dot": (line for line in [b"digraph {\n", b"}\n"]),
    }
    if failure == "chunk source raises":
        files[tmp_path / "b.csv"] = chunks_then_failure()
        expected = pytest.raises(RuntimeError, match="rendering failed")
    else:
        monkeypatch.setattr(cli.os, "fdopen", lambda fd, mode: FullDisk(fd, mode))
        expected = pytest.raises(OSError, match=os.strerror(errno.ENOSPC))
    with expected:
        cli._write_all(files)
    assert read_all(tmp_path) == earlier  # no temp file left, nothing renamed


def test_gold_that_is_not_json_exits_2_before_parsing(
    tmp_path, ds_requirements, capsys
):
    src = tmp_path / "src"
    src.mkdir()
    (src / "I.java").write_text("interface I {}\n", encoding="utf-8")
    gold = tmp_path / "gold.json"
    gold.write_text("not json", encoding="utf-8")
    out = tmp_path / "out"
    args = ["--src", str(src), "--gold", str(gold)]
    assert trace(out, ds_requirements, *args) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"gold file {gold}" in err
    assert "interface declaration skipped" not in err
    assert not out.exists()


def test_evaluate_gold_naming_unknown_classes_exits_2(
    ds_out, tmp_path, misspelt_gold, capsys
):
    argv = ["evaluate", "--links", str(ds_out / "links.json")]
    argv += ["--gold", str(misspelt_gold), "--out", str(tmp_path / "out")]
    assert main(argv) == EXIT_CONFIG
    assert UNKNOWN_GOLD_MESSAGE in capsys.readouterr().err
    assert not (tmp_path / "out" / "report.json").exists()


def test_source_tree_without_classes_exits_3(tmp_path, ds_requirements):
    src = tmp_path / "src"
    src.mkdir()
    (src / "Empty.java").write_text("package empty;\n", encoding="utf-8")
    out = tmp_path / "out"
    assert trace(out, ds_requirements, "--src", str(src)) == EXIT_EMPTY_CORPUS
    assert not out.exists()


FUZZ_CLASS = b"class Shape { int size; void drawShape() { size = 2; } }\n"


def fuzz_bytes() -> st.SearchStrategy[bytes]:
    """Raw bytes, UTF-8 text, or a valid class with bytes on either side."""
    return st.one_of(
        st.binary(max_size=120),
        st.text(max_size=120).map(lambda text: text.encode("utf-8")),
        st.tuples(st.binary(max_size=20), st.binary(max_size=20)).map(
            lambda ends: ends[0] + FUZZ_CLASS + ends[1]
        ),
    )


@seed(7)
@settings(
    max_examples=150, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    requirement=fuzz_bytes(),
    stop_words=fuzz_bytes(),
    java=fuzz_bytes(),
    topics=st.sampled_from([[], ["--topics", "1"]]),
)
def test_trace_on_arbitrary_bytes_exits_0_2_or_3(
    tmp_path, requirement, stop_words, java, topics
):
    run = tmp_path / uuid.uuid4().hex
    (run / "reqs").mkdir(parents=True)
    (run / "src").mkdir()
    (run / "reqs" / "Fuzzed_requirement.txt").write_bytes(requirement)
    (run / "stops.txt").write_bytes(stop_words)
    (run / "src" / "Fuzzed.java").write_bytes(java)
    (run / "src" / "Shape.java").write_bytes(FUZZ_CLASS)
    args = ["--src", str(run / "src"), "--stopwords", str(run / "stops.txt")]
    code = trace(run / "out", run / "reqs", *args, "--dump-intermediates", *topics)
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_EMPTY_CORPUS)


DS_GOLD = {
    "Draw a line": ["MyLine"],
    "Draw oval": ["MyOval"],
    "Draw rectangle": ["MyRectangle"],
}


@pytest.mark.parametrize(
    "links, gold",
    [
        ({"links": []}, DS_GOLD),
        ({"links": {"r": "abc"}}, {"r": ["a", "b", "c"]}),  # not the classes a, b, c
    ],
    ids=["links a list", "classes a string"],
)
def test_evaluate_links_not_a_map_of_class_lists_exits_2(
    tmp_path, capsys, links, gold
):
    (tmp_path / "links.json").write_text(json.dumps(links), encoding="utf-8")
    (tmp_path / "gold.json").write_text(json.dumps(gold), encoding="utf-8")
    out = tmp_path / "out"
    argv = ["evaluate", "--links", str(tmp_path / "links.json")]
    argv += ["--gold", str(tmp_path / "gold.json"), "--out", str(out)]
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"error: links file {tmp_path / 'links.json'}: ")
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "entry", [["MyLine", 7], ["MyLine", ["x"]]], ids=["number", "nested list"]
)
@pytest.mark.parametrize("command", ["trace", "evaluate"])
def test_gold_entry_not_a_list_of_names_exits_2(
    ds_out, tmp_path, ds_source, ds_requirements, capsys, command, entry
):
    gold = tmp_path / "gold.json"
    gold.write_text(json.dumps({**DS_GOLD, "Draw a line": entry}), encoding="utf-8")
    out = tmp_path / "out"
    if command == "trace":
        code = trace(out, ds_requirements, "--src", str(ds_source), "--gold", str(gold))
    else:
        argv = ["evaluate", "--links", str(ds_out / "links.json")]
        code = main([*argv, "--gold", str(gold), "--out", str(out)])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == (
        f"error: gold file {gold}: entry for 'Draw a line'"
        " must be a list of class names\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("command", ["trace", "evaluate"])
def test_json_nested_too_deep_to_decode_exits_2(
    ds_out, tmp_path, ds_source, ds_requirements, ds_gold, capsys, command
):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    out = tmp_path / "out"
    if command == "trace":
        code = trace(out, ds_requirements, "--src", str(ds_source), "--gold", str(deep))
        prefix = f"error: gold file {deep}: "
    else:
        argv = ["evaluate", "--links", str(deep), "--gold", str(ds_gold)]
        code = main([*argv, "--out", str(out)])
        prefix = f"error: links file {deep}: "
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(prefix)
    assert err.count("\n") == 1
    assert not out.exists()


DS_CLASSES = [
    "DrawingShapes", "MyLine", "MyOval", "MyRectangle", "PaintJPanel", "MyShape"
]


def json_values() -> st.SearchStrategy:
    """Any JSON value; strings and keys are often DS requirement or class names."""
    names = st.sampled_from([*DS_GOLD, *DS_CLASSES]) | st.text(max_size=6)
    scalars = st.none() | st.booleans() | st.integers() | st.floats() | names
    return st.recursive(
        scalars,
        lambda inner: st.lists(inner, max_size=4)
        | st.dictionaries(names, inner, max_size=4),
        max_leaves=12,
    )


def class_maps() -> st.SearchStrategy:
    """A map of every DS requirement to DS class names, or such a map with
    one entry replaced by any JSON value."""
    classes = st.lists(st.sampled_from(DS_CLASSES), max_size=3)
    maps = st.fixed_dictionaries({requirement: classes for requirement in DS_GOLD})
    broken = st.builds(
        lambda good, requirement, value: {**good, requirement: value},
        maps,
        st.sampled_from(list(DS_GOLD)),
        json_values(),
    )
    return maps | broken


def links_files() -> st.SearchStrategy:
    """Any JSON value, or an object with the fields of links.json."""
    names = st.lists(st.sampled_from(DS_CLASSES) | json_values(), max_size=4)
    return json_values() | st.fixed_dictionaries(
        {"links": class_maps()},
        optional={"unlinked_classes": names, "unlinked_requirements": names},
    )


@seed(11)
@settings(
    max_examples=100, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(gold=json_values() | class_maps(), links=links_files())
def test_json_inputs_exit_0_or_2(
    tmp_path, ds_source, ds_requirements, ds_gold, gold, links
):
    run = tmp_path / uuid.uuid4().hex
    run.mkdir()
    (run / "gold.json").write_text(json.dumps(gold), encoding="utf-8")
    (run / "links.json").write_text(json.dumps(links), encoding="utf-8")
    args = ["--src", str(ds_source), "--gold", str(run / "gold.json")]
    assert trace(run / "trace", ds_requirements, *args) in (EXIT_OK, EXIT_CONFIG)
    argv = ["evaluate", "--links", str(run / "links.json")]
    argv += ["--gold", str(ds_gold), "--out", str(run / "evaluate")]
    assert main(argv) in (EXIT_OK, EXIT_CONFIG)
