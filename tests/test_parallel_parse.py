"""A source tree parsed in worker processes gives what one process gives.

Each command runs with the worker count forced to 1 and to 2, on a
`perfbench/corpus_gen.py` tree with more files than a pool needs, plus a
class declared twice in one package, a file that is not UTF-8 and a
directory named like a source file.  The files written, stdout, stderr and
the exit code must be byte-identical, also when a file's parse or the
making of a class's value raises, and no worker process may outlive the
command.  The parser gives no class that the model refuses, and `extract`
does not check one, so the tests of a refusal patch `pipeline.class_xml`
to raise one (the workers are forked, so they run the patched one too).
The worker count itself is tested with the CPU count and the start
methods patched, starting no process.
"""

from __future__ import annotations

import concurrent.futures
import multiprocessing
import os
from pathlib import Path

import pytest

from reqtrace import javaparser, pipeline
from reqtrace.cli import EXIT_CONFIG, EXIT_OK, _build_parser, main
from reqtrace.errors import XmlSchemaError

PERFBENCH = Path(__file__).parent.parent / "perfbench"


@pytest.fixture(scope="module")
def corpus(tmp_path_factory) -> Path:
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(PERFBENCH))
        import corpus_gen
    root = tmp_path_factory.mktemp("corpus")
    classes = 2 * javaparser.FILES_PER_WORKER + 20
    corpus_gen.generate(root, classes=classes, requirements=12, seed=26)
    extra = root / "src" / "extra"
    extra.mkdir()
    (extra / "First.java").write_text("package extra; class Twice { int a; }\n")
    (extra / "Second.java").write_text("package extra; class Twice { int a, c; }\n")
    legacy = b"package extra;\n// caf\xe9\nclass Legacy { }\n"
    (extra / "Legacy.java").write_bytes(legacy)
    (extra / "Folder.java").mkdir()
    return root


@pytest.fixture
def pools(monkeypatch) -> list[int]:
    """The worker count of each pool started."""
    started = []

    class Recorded(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, workers, *args, **kwargs):
            started.append(workers)
            super().__init__(workers, *args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorded)
    return started


def run(argv, workers, out: Path, monkeypatch, capsys):
    """Exit code, stdout, stderr and the files written under `out` of
    `main(argv)` on `workers` worker processes; or, for what it raises, its
    type and text in place of the exit code."""
    monkeypatch.setattr(javaparser, "_worker_count", lambda files: workers)
    try:
        code = main([*argv, "--out", str(out)])
    except RecursionError as exc:
        code = (type(exc), str(exc))
    stdout, stderr = capsys.readouterr()
    assert multiprocessing.active_children() == []
    written = {}
    if out.is_file():
        written[out.name] = out.read_bytes()
    elif out.is_dir():
        written = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    return code, stdout, stderr, written


def in_both(argv, tmp_path, monkeypatch, capsys, pools, out_name="out"):
    alone = run(argv, 1, tmp_path / "alone" / out_name, monkeypatch, capsys)
    assert pools == []
    pooled = run(argv, 2, tmp_path / "pooled" / out_name, monkeypatch, capsys)
    assert pools == [2]
    assert pooled == alone
    return alone


def test_extract_in_a_pool_writes_what_one_process_writes(
    corpus, tmp_path, monkeypatch, capsys, pools
):
    argv = ["extract", "--src", str(corpus / "src")]
    code, stdout, stderr, written = in_both(
        argv, tmp_path, monkeypatch, capsys, pools, "facts.xml"
    )
    assert code == EXIT_OK
    assert b'<class name="Twice">\n      <attribute name="a"' in written["facts.xml"]
    assert b'<class name="Legacy">' in written["facts.xml"]
    assert "duplicate class 'Twice' in package 'extra' skipped" in stderr
    assert "not UTF-8; decoded as ISO-8859-1" in stderr
    assert "Folder.java:1: unreadable file: " in stderr
    assert stdout.startswith("packages")


def test_trace_in_a_pool_writes_what_one_process_writes(
    corpus, tmp_path, monkeypatch, capsys, pools
):
    argv = ["trace", "--src", str(corpus / "src"), "--reqs", str(corpus / "reqs")]
    argv += ["--threshold", "0.15", "--gold", str(corpus / "gold.json")]
    code, stdout, _, written = in_both(argv, tmp_path, monkeypatch, capsys, pools)
    assert code == EXIT_OK
    assert {"links.json", "poset.dot", "tracelinks.dot", "report.json"} <= set(
        written
    )
    assert stdout.startswith("traced 12 requirements")


def test_a_refusal_in_a_pool_is_the_refusal_of_one_process(
    corpus, tmp_path, monkeypatch, capsys, pools
):
    files = sorted((corpus / "src").rglob("*.java"))
    refused = files[len(files) // 2].stem
    encode = pipeline.class_xml

    def refusing(cls):
        if cls.name == refused:
            raise XmlSchemaError(f"{cls.name} refused", "class")
        return encode(cls)

    monkeypatch.setattr(pipeline, "class_xml", refusing)
    argv = ["extract", "--src", str(corpus / "src")]
    code, stdout, stderr, written = in_both(
        argv, tmp_path, monkeypatch, capsys, pools, "facts.xml"
    )
    assert code == EXIT_CONFIG
    assert (stdout, written) == ("", {})
    assert stderr.endswith(f"error: <class>: {refused} refused\n")
    assert stderr.count("\n") > 1  # the diagnostics of the files before it


def test_a_refusal_is_raised_in_file_order_not_package_order(
    tmp_path, monkeypatch, capsys, pools
):
    # `early` is the first package, but the first refusal is in `late`
    src = tmp_path / "src"
    files = {
        "a/First.java": "package early; class Fine { }\n",
        "b/Second.java": "package late; class RefusedFirst { }\n",
        "c/Third.java": "package early; class RefusedLater implements Runnable { }\n",
    }
    for name, text in files.items():
        (src / name).parent.mkdir(parents=True)
        (src / name).write_text(text)
    encode = pipeline.class_xml

    def refusing(cls):
        if cls.name.startswith("Refused"):
            raise XmlSchemaError(f"{cls.name} refused", "class")
        return encode(cls)

    monkeypatch.setattr(pipeline, "class_xml", refusing)
    argv = ["extract", "--src", str(src)]
    code, _, stderr, _ = in_both(argv, tmp_path, monkeypatch, capsys, pools)
    assert code == EXIT_CONFIG
    assert stderr.endswith("error: <class>: RefusedFirst refused\n")
    assert "Third.java" not in stderr


def test_a_parse_that_raises_in_a_pool_raises_as_in_one_process(
    corpus, tmp_path, monkeypatch, capsys, pools
):
    files = sorted((corpus / "src").rglob("*.java"))
    failing = str(files[len(files) // 2])
    parse = javaparser.parse_compilation_unit

    def deep(text, file):
        if file == failing:
            raise RecursionError("maximum recursion depth exceeded")
        return parse(text, file)

    monkeypatch.setattr(javaparser, "parse_compilation_unit", deep)
    argv = ["extract", "--src", str(corpus / "src")]
    code, stdout, stderr, written = in_both(
        argv, tmp_path, monkeypatch, capsys, pools, "facts.xml"
    )
    assert code == (RecursionError, "maximum recursion depth exceeded")
    assert (stdout, written) == ("", {})
    assert stderr  # the diagnostics of the files before it


@pytest.mark.parametrize("command", ["extract", "trace"])
def test_the_stages_in_a_pool_are_those_of_one_process(
    corpus, tmp_path, monkeypatch, pools, command
):
    argv = [command, "--src", str(corpus / "src"), "--out", str(tmp_path)]
    if command == "trace":
        argv += ["--reqs", str(corpus / "reqs"), "--threshold", "0.15"]
    args = _build_parser().parse_args(argv)
    stages = {}
    for workers in (1, 2):
        monkeypatch.setattr(javaparser, "_worker_count", lambda files: workers)
        run = getattr(pipeline, command)(args, pipeline.Run())
        stages[workers] = [(name, sizes) for name, _, sizes in run.stages]
        assert multiprocessing.active_children() == []
    assert pools == [2]
    assert stages[2] == stages[1]
    assert stages[1][0][0] == "javaparser.parse"


@pytest.mark.parametrize(
    "cpus, files, workers",
    [
        (1, 10 * javaparser.FILES_PER_WORKER, None),
        (2, 2 * javaparser.FILES_PER_WORKER - 1, None),
        (2, 2 * javaparser.FILES_PER_WORKER, 2),
        (4, 2 * javaparser.FILES_PER_WORKER + 20, 2),
    ],
)
def test_a_pool_has_a_worker_per_cpu_that_has_enough_files(
    monkeypatch, pools, cpus, files, workers
):
    """`workers` None is below 2: the files are parsed in this process."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    monkeypatch.setattr(
        multiprocessing, "get_all_start_methods", lambda: ["fork", "spawn"]
    )
    count = javaparser._worker_count(files)
    assert count < 2 if workers is None else count == workers
    assert pools == []


def test_no_pool_without_the_fork_start_method(monkeypatch, pools):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)))
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    assert javaparser._worker_count(10 * javaparser.FILES_PER_WORKER) == 1
    assert pools == []


def test_no_pool_without_the_cpu_affinity_call(monkeypatch, pools):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert javaparser._worker_count(10 * javaparser.FILES_PER_WORKER) == 1
    assert pools == []
