"""The pipeline functions behind the CLI: their files, stages and diagnostics."""

from __future__ import annotations

import csv
import gc
import io
import json
from pathlib import Path
from traceback import walk_stack

import pytest

from dotreader import parse_dot
from reqtrace import pipeline
from reqtrace.cli import EXIT_EMPTY_CORPUS, EXIT_OK, _build_parser, main
from reqtrace.errors import EmptyCorpusError
from reqtrace.facts import save_facts_xml
from reqtrace.javaparser import parse_source_tree
from test_facts import one_pass_metrics

PERFBENCH = Path(__file__).parent.parent / "perfbench"

FULL_RANK_SRC_STAGES = [
    "javaparser.parse",
    "corpus.build",
    "textprep.preprocess",
    "lsi.matrix",
    "lsi.cosine",
    "fca.binarize",
    "fca.aoc",
    "links.assemble",
    "links.emit",
]

TOPICS_FACTS_STAGES = [
    "facts.load",
    "corpus.build",
    "textprep.preprocess",
    "lsi.matrix",
    "lsi.svd",
    "lsi.cosine",
    "fca.binarize",
    "fca.aoc",
    "links.assemble",
    "links.emit",
]


def run_command(argv: list[str]) -> pipeline.Run:
    args = _build_parser().parse_args(argv)
    return getattr(pipeline, args.command)(args, pipeline.Run())


def as_bytes(run: pipeline.Run) -> dict[Path, bytes]:
    """Each file of `run` as the bytes `cli._write_all` writes; a chunk
    source is read, and so used up."""
    return {
        path: data.encode("utf-8") if isinstance(data, str)
        else data if isinstance(data, bytes) else b"".join(data)
        for path, data in run.files.items()
    }


def written(root: Path) -> dict[Path, bytes]:
    return {path: path.read_bytes() for path in root.rglob("*") if path.is_file()}


def sizes(run: pipeline.Run) -> dict[str, dict[str, int]]:
    return {name: counts for name, _, counts in run.stages}


@pytest.fixture(scope="module")
def ds_facts(tmp_path_factory, ds_source) -> Path:
    facts = tmp_path_factory.mktemp("facts") / "facts.xml"
    assert main(["extract", "--src", str(ds_source), "--out", str(facts)]) == EXIT_OK
    return facts


def src_argv(out, ds_source, ds_requirements, ds_gold) -> list[str]:
    argv = ["trace", "--src", str(ds_source), "--reqs", str(ds_requirements)]
    return argv + ["--gold", str(ds_gold), "--dump-intermediates", "--out", str(out)]


def topics_argv(out, ds_facts, ds_requirements) -> list[str]:
    argv = ["trace", "--facts", str(ds_facts), "--reqs", str(ds_requirements)]
    return argv + ["--topics", "2", "--dump-intermediates", "--out", str(out)]


def test_extract_gives_the_cli_bytes(tmp_path, ds_source, ds_facts):
    out = tmp_path / "facts.xml"
    run = run_command(["extract", "--src", str(ds_source), "--out", str(out)])
    assert as_bytes(run) == {out: ds_facts.read_bytes()}
    assert [name for name, _, _ in run.stages] == ["javaparser.parse", "facts.save"]
    assert sizes(run)["facts.save"] == {"bytes": len(ds_facts.read_bytes())}
    assert sizes(run)["javaparser.parse"] == {"warnings": 0, "errors": 0}


# Source trees (path -> text, bytes, or None for a directory named like a
# source) and the packages each must give, with their classes in order.
ODD_TREES = {
    "packages not contiguous": (
        {
            "a/A.java": "package p; class A { int x; }",
            "b/B.java": "package q; /** Bee. */ class B { void m() {} }",
            "c/C.java": "package p; class C extends A { }",
        },
        {"p": ["A", "C"], "q": ["B"]},
    ),
    "package without a class": (
        {"P.java": "package only;", "Q.java": "package p; class Q { }"},
        {"only": [], "p": ["Q"]},
    ),
    "one class in two files": (
        {
            "a/A.java": "package p; class A { int x; }",
            "b/A.java": "package p; class A { int y; } class Z { }",
        },
        {"p": ["A", "Z"]},
    ),
    "ISO-8859-1 file": (
        {"Legacy.java": b"package p;\n// caf\xe9 & <cr\xe8me>\nclass Legacy { }\n"},
        {"p": ["Legacy"]},
    ),
    "unreadable file": (
        {"Bad.java": None, "Good.java": "package p; class Good { }"},
        {"p": ["Good"]},
    ),
}


def write_tree(root: Path, files: dict[str, str | bytes | None]) -> None:
    for relative, data in files.items():
        path = root / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        if data is None:
            path.mkdir()  # matches *.java, but cannot be read
        else:
            path.write_bytes(data.encode("utf-8") if isinstance(data, str) else data)


@pytest.mark.parametrize("tree", [*ODD_TREES, "generated corpus"])
def test_extract_gives_what_the_whole_tree_path_gives(tmp_path, tree):
    src = tmp_path / "src"
    if tree == "generated corpus":
        with pytest.MonkeyPatch.context() as patch:
            patch.syspath_prepend(str(PERFBENCH))
            import corpus_gen
        corpus_gen.generate(tmp_path, classes=40, requirements=5, seed=7)
    else:
        files, packages = ODD_TREES[tree]
        write_tree(src, files)
    out = tmp_path / "facts.xml"
    run = run_command(["extract", "--src", str(src), "--out", str(out)])

    facts, diagnostics = parse_source_tree(src)
    if tree != "generated corpus":
        assert {p.name: [c.name for c in p.classes] for p in facts.packages} == packages
    data = save_facts_xml(facts)
    assert as_bytes(run) == {out: data}
    assert run.diagnostics == diagnostics
    assert run.summary == pipeline._metrics_summary(one_pass_metrics(facts))
    warnings = sum(d.severity == "warning" for d in diagnostics)
    assert sizes(run) == {
        "javaparser.parse": {"warnings": warnings, "errors": len(diagnostics) - warnings},
        "facts.save": {"bytes": len(data)},
    }


@pytest.mark.parametrize("variant", ["src full rank", "facts topics 2"])
def test_trace_gives_the_cli_bytes_and_stages(
    tmp_path, capsys, ds_source, ds_requirements, ds_gold, ds_facts, variant
):
    out = tmp_path / "out"
    if variant == "src full rank":
        argv = src_argv(out, ds_source, ds_requirements, ds_gold)
        stages = FULL_RANK_SRC_STAGES
    else:
        argv = topics_argv(out, ds_facts, ds_requirements)
        stages = TOPICS_FACTS_STAGES
    run = run_command(argv)
    assert main(argv) == EXIT_OK
    assert as_bytes(run) == written(out)
    assert capsys.readouterr().out == run.summary
    assert [name for name, _, _ in run.stages] == stages
    assert all(seconds >= 0.0 for _, seconds, _ in run.stages)


@pytest.mark.parametrize("variant", ["src full rank", "facts topics 2"])
def test_stage_sizes_agree_with_the_artefacts(
    tmp_path, ds_source, ds_requirements, ds_gold, ds_facts, variant
):
    out = tmp_path / "out"
    if variant == "src full rank":
        run = run_command(src_argv(out, ds_source, ds_requirements, ds_gold))
    else:
        run = run_command(topics_argv(out, ds_facts, ds_requirements))
    files = {path.name: data.decode("utf-8") for path, data in as_bytes(run).items()}
    counts = sizes(run)

    context = list(csv.reader(io.StringIO(files["context.csv"])))
    assert counts["fca.binarize"] == {
        "incidences": sum(row[1:].count("1") for row in context[1:])
    }
    poset = parse_dot(files["poset.dot"])
    assert counts["fca.aoc"] == {
        "concepts": len(poset.nodes),
        "edges": len(poset.edges),
    }
    links = json.loads(files["links.json"])["links"]
    assert counts["links.assemble"] == {
        "links": sum(len(classes) for classes in links.values())
    }

    tdm = list(csv.reader(io.StringIO(files["tdm.csv"])))
    assert counts["lsi.matrix"] == {
        "terms": len(tdm) - 1,
        "nonzeros": sum(cell != "0" for row in tdm[1:] for cell in row[1:]),
    }
    assert counts["corpus.build"] == {
        "documents": len(tdm[0]) - 1,
        "queries": len(links),
    }
    assert counts["links.emit"] == {}
    if variant == "facts topics 2":
        assert counts["lsi.svd"] == {"k": 2}
        assert counts["facts.load"] == {"bytes": len(ds_facts.read_bytes())}


def test_source_tree_of_one_interface_prints_its_diagnostic_and_exits_3(
    tmp_path, ds_requirements, capsys
):
    src = tmp_path / "src"
    src.mkdir()
    (src / "I.java").write_text("interface I {}\n", encoding="utf-8")
    out = tmp_path / "out"
    argv = ["trace", "--src", str(src), "--reqs", str(ds_requirements)]
    argv += ["--out", str(out)]
    assert main(argv) == EXIT_EMPTY_CORPUS
    assert capsys.readouterr().err == (
        f"warning: {src / 'I.java'}:1: interface declaration skipped\n"
        "error: no classes found; document corpus is empty\n"
    )
    assert not out.exists()

    run = pipeline.Run()
    with pytest.raises(EmptyCorpusError):
        pipeline.trace(_build_parser().parse_args(argv), run)
    assert [d.message for d in run.diagnostics] == ["interface declaration skipped"]
    assert run.files == {}


@pytest.fixture(params=[True, False], ids=["gc-enabled", "gc-disabled"])
def gc_state(request):
    """Run the test with cyclic GC enabled or disabled; restore the state after."""
    was_enabled = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was_enabled else gc.disable)()


def command_argvs(out: Path, ds_source, ds_requirements, ds_gold) -> list[list[str]]:
    """The argv of an `extract`, a `trace` and an `evaluate` on DS, writing
    under `out`; the trace is run once first, so that `evaluate` has links."""
    trace = ["trace", "--src", str(ds_source), "--reqs", str(ds_requirements)]
    assert main(trace + ["--out", str(out / "trace")]) == EXIT_OK
    return [
        ["extract", "--src", str(ds_source), "--out", str(out / "facts.xml")],
        trace + ["--out", str(out / "trace")],
        ["evaluate", "--links", str(out / "trace" / "links.json")]
        + ["--gold", str(ds_gold), "--out", str(out / "evaluate")],
    ]


def test_cyclic_gc_state_is_restored(
    tmp_path, ds_source, ds_requirements, ds_gold, gc_state
):
    for argv in command_argvs(tmp_path, ds_source, ds_requirements, ds_gold):
        run_command(argv)
        assert gc.isenabled() is gc_state


def test_cyclic_gc_state_is_restored_when_the_parse_raises(
    tmp_path, monkeypatch, ds_source, gc_state
):
    enabled_during_the_parse = []

    def fail(src):
        enabled_during_the_parse.append(gc.isenabled())
        raise RuntimeError("parse failed")
        yield  # a generator, as `parse_source_files` is

    monkeypatch.setattr(pipeline, "parse_source_files", fail)
    with pytest.raises(RuntimeError, match="parse failed"):
        run_command(["extract", "--src", str(ds_source), "--out", str(tmp_path)])
    assert enabled_during_the_parse == [False]
    assert gc.isenabled() is gc_state


def test_no_collection_runs_during_a_command(
    tmp_path, ds_source, ds_requirements, ds_gold
):
    parser = _build_parser()
    argvs = command_argvs(tmp_path, ds_source, ds_requirements, ds_gold)
    commands = [
        (getattr(pipeline, args.command), args, pipeline.Run())
        for args in map(parser.parse_args, argvs)
    ]
    collections = []

    def record(phase, info):
        # a collection that starts inside a command has its frames on the stack
        modules = [frame.f_globals["__name__"] for frame, _ in walk_stack(None)]
        if phase == "start" and "reqtrace.pipeline" in modules:
            collections.append(modules)

    threshold, was_enabled = gc.get_threshold(), gc.isenabled()
    gc.set_threshold(1)  # on, the collector would run at every allocation
    gc.enable()
    gc.callbacks.append(record)
    try:
        for command, args, run in commands:
            command(args, run)
    finally:
        gc.callbacks.remove(record)
        gc.set_threshold(*threshold)
        (gc.enable if was_enabled else gc.disable)()
    assert collections == []
