"""End-to-end tests of the command-line front end on the Drawing Shapes app."""

from __future__ import annotations

import csv
import json
import uuid
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, seed, settings, strategies as st

from reqtrace import fca
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
    context = fca.export_context_csv(fca.binarize(oracle, 0.70))
    assert (tmp_path / "context.csv").read_text(encoding="utf-8") == context


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


def test_requirement_file_not_in_utf8_exits_2(
    tmp_path, ds_source, ds_requirements, capsys
):
    reqs = tmp_path / "reqs"
    reqs.mkdir()
    for path in ds_requirements.glob("*.txt"):
        (reqs / path.name).write_bytes(path.read_bytes())
    (reqs / "Latin.txt").write_bytes(b"caf\xe9")
    out = tmp_path / "out"
    assert trace(out, reqs, "--src", str(ds_source)) == EXIT_CONFIG
    assert str(reqs / "Latin.txt") in capsys.readouterr().err
    assert not out.exists()


def test_stop_word_file_not_in_utf8_exits_2(
    tmp_path, ds_source, ds_requirements, capsys
):
    stops = tmp_path / "stops.txt"
    stops.write_bytes(b"the\n\xe9t\xe9\n")
    out = tmp_path / "out"
    args = ["--src", str(ds_source), "--stopwords", str(stops)]
    assert trace(out, ds_requirements, *args) == EXIT_CONFIG
    assert f"stop-word file {stops}" in capsys.readouterr().err
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
