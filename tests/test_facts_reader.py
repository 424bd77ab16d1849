"""`trace --facts` reads its facts file in a forked reader process.

Each command runs with the reader forked and, with `os.fork` removed, in
this process: the files written, stdout, stderr and the exit code must be
byte-identical, for a trace and for each refusal.  No reader may outlive
the command, however the command ends: the `forks` fixture records the pid
of each process forked, and each test checks that it has been reaped.  A
reader that ends without a result must make the command fail, not hang; a
test that could hang is stopped by an alarm.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from reqtrace import pipeline, textprep
from reqtrace.cli import EXIT_CONFIG, EXIT_OK, _build_parser, main

# the corpus of the generated-corpus tests, with its odd characters
from test_generated_corpus import corpus  # noqa: F401  (a fixture)


@pytest.fixture(scope="module")
def ds_facts(tmp_path_factory, ds_source) -> Path:
    facts = tmp_path_factory.mktemp("ds") / "facts.xml"
    assert main(["extract", "--src", str(ds_source), "--out", str(facts)]) == EXIT_OK
    return facts


@pytest.fixture(scope="module")
def corpus_facts(tmp_path_factory, corpus) -> Path:  # noqa: F811
    facts = tmp_path_factory.mktemp("generated") / "facts.xml"
    argv = ["extract", "--src", str(corpus / "src"), "--out", str(facts)]
    assert main(argv) == EXIT_OK
    return facts


@pytest.fixture
def forks(monkeypatch) -> list[int]:
    """The pid of each process forked during the test."""
    pids = []
    fork = os.fork

    def recorded() -> int:
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recorded)
    return pids


@pytest.fixture
def alarm():
    """Fail the test, rather than hang it, after 60 seconds."""

    def expire(signum, frame):
        raise TimeoutError("the command did not end within 60 seconds")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


CPUS = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None


def assert_reaped(pids: list[int]) -> None:
    """One reader was forked, and it has been reaped; this process may run
    on the CPUs that it could run on before."""
    assert len(pids) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(pids[0], os.WNOHANG)
    if CPUS is not None:
        assert os.sched_getaffinity(0) == CPUS


def run(argv: list[str], out: Path, capsys) -> tuple:
    """Exit code, stdout, stderr and the files written under `out` of
    `main(argv)`."""
    code = main([*argv, "--out", str(out)])
    stdout, stderr = capsys.readouterr()
    written = {}
    if out.is_dir():
        written = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
    return code, stdout, stderr, written


def in_both(argv, tmp_path, monkeypatch, capsys, forks) -> tuple:
    """What `run` gives with the reader forked, checked to equal what it
    gives with the facts read in this process."""
    forked = run(argv, tmp_path / "forked", capsys)
    assert_reaped(forks)
    monkeypatch.delattr(os, "fork")
    assert run(argv, tmp_path / "alone", capsys) == forked
    return forked


def trace_argv(facts: Path, reqs: Path, *options: str) -> list[str]:
    return ["trace", "--facts", str(facts), "--reqs", str(reqs), *options]


@pytest.mark.parametrize("topics", [[], ["--topics", "2"]], ids=["full rank", "k=2"])
def test_ds_traced_by_the_reader_is_traced_as_in_one_process(
    tmp_path, monkeypatch, capsys, forks, ds_facts, ds_requirements, ds_gold, topics
):
    argv = trace_argv(ds_facts, ds_requirements, "--gold", str(ds_gold), *topics)
    code, stdout, stderr, written = in_both(
        argv + ["--dump-intermediates"], tmp_path, monkeypatch, capsys, forks
    )
    assert (code, stderr) == (EXIT_OK, "")
    assert stdout.startswith("traced 3 requirements against 6 classes")
    assert len(written) == 9


def test_generated_corpus_traced_by_the_reader_is_traced_as_in_one_process(
    tmp_path, monkeypatch, capsys, forks, corpus, corpus_facts  # noqa: F811
):
    argv = trace_argv(corpus_facts, corpus / "reqs", "--threshold", "0.15")
    argv += ["--gold", str(corpus / "gold.json"), "--dump-intermediates"]
    code, stdout, stderr, written = in_both(argv, tmp_path, monkeypatch, capsys, forks)
    assert (code, stderr) == (EXIT_OK, "")
    assert stdout.startswith("traced 10 requirements against 41 classes")
    assert len(written) == 9


FAULTY_FACTS = {
    "cut short": b'<codefacts><package name="p"><class name="C">',
    "broken invariant": (
        b'<codefacts><package name="p"><class name="C">'
        b'<attribute name="a"/><attribute name="a"/></class></package></codefacts>'
    ),
    "undecodable": b'<?xml version="1.0" encoding="x-none"?><codefacts/>',
    "missing": None,
}


@pytest.mark.parametrize("fault", FAULTY_FACTS)
def test_a_facts_refusal_from_the_reader_is_that_of_one_process(
    tmp_path, monkeypatch, capsys, forks, ds_requirements, fault
):
    facts = tmp_path / "facts.xml"
    if FAULTY_FACTS[fault] is not None:
        facts.write_bytes(FAULTY_FACTS[fault])
    argv = trace_argv(facts, ds_requirements)
    code, stdout, stderr, written = in_both(argv, tmp_path, monkeypatch, capsys, forks)
    assert (code, stdout, written) == (EXIT_CONFIG, "", {})
    assert stderr.startswith(f"error: facts file {facts}: ")
    assert stderr.count("\n") == 1


def test_a_requirement_refusal_is_raised_while_the_reader_runs(
    tmp_path, capsys, forks, ds_facts
):
    # the facts file is bad too, but the requirements are read first
    facts = tmp_path / "facts.xml"
    facts.write_bytes(ds_facts.read_bytes()[:-20])
    reqs = tmp_path / "reqs"
    code, _, stderr, _ = run(trace_argv(facts, reqs), tmp_path / "out", capsys)
    assert code == EXIT_CONFIG
    assert stderr.startswith(f"error: requirement directory {reqs}: ")
    assert_reaped(forks)


def test_an_error_in_making_the_term_bags_leaves_no_reader(
    tmp_path, monkeypatch, capsys, forks, ds_facts, ds_requirements
):
    preprocess = textprep.preprocess

    def failing(document, stops):
        if document.name == "MyLine":
            raise RuntimeError("bag failed")
        return preprocess(document, stops)

    monkeypatch.setattr(textprep, "preprocess", failing)
    with pytest.raises(RuntimeError, match="bag failed"):
        run(trace_argv(ds_facts, ds_requirements), tmp_path / "out", capsys)
    assert_reaped(forks)


def exits_early(data, per_class):
    os._exit(3)


def raises_what_does_not_pickle(data, per_class):
    raise ValueError(lambda: "a function pickles by name: this one cannot")


@pytest.mark.parametrize("read", [exits_early, raises_what_does_not_pickle])
def test_a_reader_that_ends_without_a_result_is_refused(
    tmp_path, monkeypatch, capsys, forks, alarm, ds_facts, ds_requirements, read
):
    monkeypatch.setattr(pipeline, "read_facts_xml", read)
    code, stdout, stderr, written = run(
        trace_argv(ds_facts, ds_requirements), tmp_path / "out", capsys
    )
    assert (code, stdout, written) == (EXIT_CONFIG, "", {})
    assert stderr == (
        f"error: facts file {ds_facts}: the reader ended without a result\n"
    )
    assert_reaped(forks)


def test_the_stages_of_the_reader_are_those_of_one_process(
    tmp_path, monkeypatch, forks, ds_facts, ds_requirements
):
    argv = trace_argv(ds_facts, ds_requirements, "--out", str(tmp_path))
    args = _build_parser().parse_args(argv)
    forked = pipeline.trace(args, pipeline.Run()).stages
    assert_reaped(forks)
    monkeypatch.delattr(os, "fork")
    alone = pipeline.trace(args, pipeline.Run()).stages
    sizes = [(name, sizes) for name, _, sizes in forked]
    assert sizes == [(name, sizes) for name, _, sizes in alone]
    assert sizes[:3] == [
        ("facts.load", {"bytes": len(ds_facts.read_bytes())}),
        ("corpus.build", {"documents": 6, "queries": 3}),
        ("textprep.preprocess", alone[2][2]),
    ]


def test_a_trace_from_facts_loads_no_process_pool(tmp_path, ds_facts, ds_requirements):
    # the reader is forked with `os`, `pickle` and `signal` alone
    argv = trace_argv(ds_facts, ds_requirements, "--out", str(tmp_path))
    code = (
        "import sys\nfrom reqtrace.cli import main\n"
        f"assert main({argv!r}) == 0\nprint(*sorted(sys.modules))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(pipeline.__file__).parent.parent)}
    loaded = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True, timeout=60,
    ).stdout.split()
    assert "reqtrace.pipeline" in loaded
    pools = ("multiprocessing", "concurrent.futures")
    assert [name for name in pools if name in loaded] == []
