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
    return {
        path: data.encode("utf-8") if isinstance(data, str) else data
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
    files = {path.name: data for path, data in run.files.items()}
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

    monkeypatch.setattr(pipeline, "parse_source_tree", fail)
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
