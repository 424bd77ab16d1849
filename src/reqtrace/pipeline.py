"""The three commands as computations: read, check, compute and record.

`extract`, `trace` and `evaluate` take the `argparse.Namespace` of
`cli._build_parser()` and fill the caller's `Run`: the files to write, the
parse diagnostics, the summary to print, and the stages in run order.  A
file's value is its text, its bytes, or an iterable of byte chunks that the
writer reads once, in order.  The facts XML of `extract` is a list of
chunks, each class one chunk, and the four CSVs of `--dump-intermediates`
are generators that render a row per chunk as the writer asks for it, so
their rendering time falls in the write, outside every stage.  The commands
write and print nothing, and Java parse diagnostics never stop them.  A
stage is (name, seconds, sizes), named as the benchmark's layers (`lsi.svd`
only under `--topics`), with sizes that the stage already holds.  Reading
the requirement, stop-word and gold files is not a stage, and `evaluate`
records none.

No command holds the records of a whole source tree or facts file.  A
`--src` command makes one call to `parse_source_files`: it turns each class
into a value as its file is parsed (for `extract` its XML and counts, for
`trace --src` its document text), adds each file's diagnostics to the `Run`
as it goes, and returns the values kept, by package, for the command to
join into chunks or name (`name_class_documents`).  `trace --facts` forks
one reader process as soon as its arguments are checked (`_load`).  The
reader makes one call to `read_facts_xml`, which turns each class into its
document text as the class is read, and sends the texts back through a
pipe, 50 classes to a message.  Meanwhile this process reads the other
inputs and makes the query term bags, then makes each class's term bag as
its message arrives, and names the documents as `--src` does.  Term bags
never leave this process, which holds the one stop-word list and its stem
map.  So what `extract` holds grows with the XML it will write, and `trace`
with the documents and their bags; the facts file's bytes and its parser
are held in the reader alone.

Processes are forked in two places.  A tree of at least
`javaparser.FILES_PER_WORKER` files for each of two or more CPUs is parsed
by a pool of forked worker processes, which send back only those values, in
file order; a smaller tree, or one CPU, is parsed in this process.  The
facts reader is forked wherever `os.fork` exists, and elsewhere its step
runs in this process when the first class is asked for.  Either way the
files, diagnostics, summary and refusals are the same: the reader sends
back whatever the read raised, and this process raises it as the facts
file's refusal, after those of the inputs read before it.  A reader that
ends without a result is refused as such.  No worker or reader outlives the
command.  A stage that a walk feeds (`javaparser.parse`, and `facts.save`
or `corpus.build`) adds up the time of its steps for every file, wherever
they ran: on a pool its time can exceed the command's.  Likewise
`corpus.build` holds the time that the reader spent making texts, and
`facts.load` the time that this process waited for the reader's messages;
`textprep.preprocess` makes its bags in between.

Each command runs with the cyclic collector paused, and its state is
restored when the command returns or raises.  A command makes many objects
that live to its end and almost no reference cycles, so a collection would
only walk them again and again.  With the collector on, on a 2-vCPU host,
this process alone ran 18-21 young collections in a facts-dense `trace
--facts` and an src-1k `trace --src` and 37-39 in an extract-3k `extract`,
2-9 ms in all and none of generation 2, while the pool's workers collect
too; the median wall time of each grew by 1.5-4%.  The records are freed
by their reference counts when the command returns.
"""

from __future__ import annotations

import argparse
import gc
import os
import pickle
import signal
import time
from collections import Counter
from contextlib import contextmanager, nullcontext
from functools import partial, wraps
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Iterator

from . import corpus as corpus_mod
from . import evaluation, fca, links, lsi, textprep
from .errors import EmptyCorpusError, read_input, refused
from .facts import (
    METRICS,
    ClassFact,
    class_metrics,
    class_xml,
    read_facts_xml,
    xml_chunks,
)
from .javaparser import (
    ParseDiagnostic,
    parse_source_files,
    source_provenance,
)


class Run:
    """What one command produced, filled in stage by stage, so that the
    caller still has the diagnostics of a parse before a later failure."""

    def __init__(self) -> None:
        self.files: dict[Path, str | bytes | Iterable[bytes]] = {}
        self.diagnostics: list[ParseDiagnostic] = []
        self.summary = ""
        self.stages: list[tuple[str, float, dict[str, int]]] = []

    @contextmanager
    def stage(self, name: str):
        """Time the block as stage `name`; the block fills the yielded sizes."""
        sizes: dict[str, int] = {}
        start = time.perf_counter()
        yield sizes
        self.stages.append((name, time.perf_counter() - start, sizes))


def _collector_paused(command):
    """`command`, run with the cyclic collector paused."""

    @wraps(command)
    def paused(args: argparse.Namespace, run: Run) -> Run:
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            return command(args, run)
        finally:
            if was_enabled:
                gc.enable()

    return paused


def _diagnostic_counts(diagnostics: list[ParseDiagnostic]) -> dict[str, int]:
    warnings = sum(d.severity == "warning" for d in diagnostics)
    return {"warnings": warnings, "errors": len(diagnostics) - warnings}


# Classes per message of the facts reader: a message per class took as long,
# and its peak RSS was 0.1 MB higher.
_BATCH = 50
# The reader's pipe holds 1 MiB, Linux's default limit, so that the reader
# runs ahead while this process makes the query bags: facts-dense sends 0.7
# MB.  The default 64 KiB held the reader back until the query bags were made.
_PIPE_BYTES = 1 << 20


@contextmanager
def _load(path: Path) -> Iterator[Iterator[object]]:
    """Read the facts file `path` in a forked reader process, and yield an
    iterator over what the reader sends, in order: lists of up to `_BATCH`
    classes, each its package, name and document text, then either (the
    file's size in bytes, the seconds taken to make the texts) or whatever
    the read raised.  The iterator ends early only if the reader ends
    without a result.  Where processes cannot be forked, the read runs in
    this process when the first message is asked for.  The reader is
    killed, if it still runs, and reaped before this returns or raises."""

    def read(send: Callable[[object], object]) -> None:
        batch: list[tuple[str, str, str]] = []
        send_s = 0.0

        def per_class(package: str, cls: ClassFact) -> None:
            nonlocal batch, send_s
            text = corpus_mod.class_document_text(package, cls)
            batch.append((package, cls.name, text))
            if len(batch) == _BATCH:
                start = time.perf_counter()
                send(batch)
                batch = []
                send_s += time.perf_counter() - start

        try:
            data = path.read_bytes()
            build_s = read_facts_xml(data, per_class)[2] - send_s
            send(batch)
            send((len(data), build_s))
        except Exception as exc:
            send(exc)

    if not hasattr(os, "fork"):
        yield _sent(read)
        return
    # On a host whose cpuset turns load balancing off, a forked process stays
    # on its parent's CPU for a second or more, so the reader would only
    # take turns with this process: while it runs, it is placed on the CPUs
    # this process may use but the first, and this process on the first.
    cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else set()
    first = set(sorted(cpus)[:1])
    read_fd, write_fd = os.pipe()
    with os.fdopen(read_fd, "rb") as pipe_in, os.fdopen(write_fd, "wb") as pipe_out:
        _widen(write_fd)
        pid = os.fork()
        if pid == 0:  # the reader
            status = 1
            try:
                pipe_in.close()
                _run_on(cpus - first or cpus)
                read(partial(_send, pipe_out))
                status = 0
            finally:
                os._exit(status)
        pipe_out.close()
        try:
            _run_on(first)
            yield _received(pipe_in)
        finally:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            _run_on(cpus)


def _widen(fd: int) -> None:
    """Make the pipe of `fd` hold `_PIPE_BYTES`, where the system lets it."""
    import fcntl  # POSIX only, as `fork` is

    try:
        fcntl.fcntl(fd, fcntl.F_SETPIPE_SZ, _PIPE_BYTES)
    except (AttributeError, OSError):
        pass  # not Linux, or over the user's quota of pipe memory


def _run_on(cpus: set[int]) -> None:
    """Let this process run only on `cpus`, if any are given and it may."""
    if cpus:
        try:
            os.sched_setaffinity(0, cpus)
        except OSError:
            pass  # the placement only saves time


def _send(pipe: BinaryIO, message: object) -> None:
    """Write `message` to `pipe` whole, or nothing of it if it does not pickle."""
    pipe.write(pickle.dumps(message, pickle.HIGHEST_PROTOCOL))
    pipe.flush()


def _received(pipe: BinaryIO) -> Iterator[object]:
    """The messages in `pipe`, until it ends or one is cut short."""
    while True:
        try:
            message = pickle.load(pipe)
        except (EOFError, pickle.UnpicklingError):
            return
        yield message


def _sent(read: Callable[[Callable[[object], object]], None]) -> Iterator[object]:
    """The messages that `read` sends, run here when the first is asked for."""
    messages: list[object] = []
    read(messages.append)
    yield from messages


def _metrics_summary(metrics: Counter[str]) -> str:
    width = max(map(len, METRICS))
    return "".join(f"{label.ljust(width)}  {metrics[label]}\n" for label in METRICS)


def _reports(
    tls: links.TraceLinkSet, gold: evaluation.GoldLinks, out: Path
) -> dict[Path, str]:
    report = evaluation.evaluate(tls, gold)
    return {
        out / "report.json": evaluation.report_to_json(report),
        out / "report.csv": evaluation.report_to_csv(report),
    }


def _encoded(package: str, cls: ClassFact) -> tuple[bytes, list[int]]:
    """`cls` encoded, and counted in `METRICS[1:]` order, in a list: CPython
    would keep up to 2,000 freed tuples of counts for reuse.  A parsed class
    holds the model invariants by construction, so it is not checked."""
    return class_xml(cls), list(class_metrics(cls).values())


@_collector_paused
def extract(args: argparse.Namespace, run: Run) -> Run:
    """Parse `args.src` into the facts XML at `args.out`: the chunks that
    `save_facts_xml` would join for `parse_source_tree(args.src)`."""
    clock = time.perf_counter
    packages, parse_s, save_s = parse_source_files(args.src, _encoded, run.diagnostics)
    start = clock()
    chunks = xml_chunks(
        source_provenance(args.src),
        ((name, [xml for _, (xml, _) in kept]) for name, kept in packages.items()),
    )
    per_class = [counts for kept in packages.values() for _, (_, counts) in kept]
    metrics = Counter(dict(zip(METRICS, (len(packages), *map(sum, zip(*per_class))))))
    save_s += clock() - start
    run.stages.append(
        ("javaparser.parse", parse_s, _diagnostic_counts(run.diagnostics))
    )
    run.stages.append(("facts.save", save_s, {"bytes": sum(map(len, chunks))}))
    run.files[args.out] = chunks
    run.summary = _metrics_summary(metrics)
    return run


def _source_bags(
    src: Path, queries: corpus_mod.QueryCorpus, stops: textprep.StopWordList, run: Run
) -> tuple[list[textprep.TermBag], list[textprep.TermBag]]:
    """The term bags of the classes under `src`, then of `queries`.  Each
    class becomes its document text as its Java file is parsed."""
    packages, parse_s, build_s = parse_source_files(
        src, corpus_mod.class_document_text, run.diagnostics
    )
    run.stages.append(
        ("javaparser.parse", parse_s, _diagnostic_counts(run.diagnostics))
    )
    start = time.perf_counter()
    documents = corpus_mod.name_class_documents(packages.items()).documents
    _corpus_built(run, build_s + time.perf_counter() - start, documents, queries)
    with run.stage("textprep.preprocess") as sizes:
        doc_bags = [textprep.preprocess(d, stops) for d in documents]
        query_bags = [textprep.preprocess(q, stops) for q in queries.queries]
        sizes["tokens"] = sum(bag.total() for bag in doc_bags + query_bags)
    return doc_bags, query_bags


def _facts_bags(
    messages: Iterator[object],
    path: Path,
    queries: corpus_mod.QueryCorpus,
    stops: textprep.StopWordList,
    run: Run,
) -> tuple[list[textprep.TermBag], list[textprep.TermBag]]:
    """The term bags of the classes that the reader of the facts file `path`
    sends (`_load`), each made as its message arrives, and of `queries`,
    made first, while the reader reads."""
    clock = time.perf_counter
    start = clock()
    query_bags = [textprep.preprocess(q, stops) for q in queries.queries]
    bags_s = clock() - start
    wait_s = 0.0
    packages: dict[str, list[tuple[str, str]]] = {}
    bags = []
    with refused("facts file", path):
        while True:
            start = clock()
            message = next(messages, None)
            received = clock()
            wait_s += received - start
            if not isinstance(message, list):
                break
            for package, name, text in message:
                packages.setdefault(package, []).append((name, text))
                document = corpus_mod.RawDocument(name, text)
                bags.append(textprep.preprocess(document, stops))
            bags_s += clock() - received
        if message is None:
            raise ChildProcessError("the reader ended without a result")
        if isinstance(message, Exception):
            raise message
    size, build_s = message
    run.stages.append(("facts.load", wait_s, {"bytes": size}))
    start = clock()
    # a package's classes arrive together, so the named documents are in the
    # order of the bags; a bag takes its document's name, which may be longer
    documents = corpus_mod.name_class_documents(packages.items()).documents
    doc_bags = [
        bag if bag.name == doc.name else textprep.TermBag(doc.name, bag.counts)
        for bag, doc in zip(bags, documents)
    ]
    _corpus_built(run, build_s + clock() - start, documents, queries)
    start = clock()
    tokens = sum(bag.total() for bag in doc_bags + query_bags)
    bags_s += clock() - start
    run.stages.append(("textprep.preprocess", bags_s, {"tokens": tokens}))
    return doc_bags, query_bags


def _corpus_built(
    run: Run,
    seconds: float,
    documents: tuple[corpus_mod.RawDocument, ...],
    queries: corpus_mod.QueryCorpus,
) -> None:
    """Record stage `corpus.build`; refuse a corpus without documents."""
    sizes = {"documents": len(documents), "queries": len(queries.queries)}
    run.stages.append(("corpus.build", seconds, sizes))
    if not documents:
        raise EmptyCorpusError("no classes found; document corpus is empty")


@_collector_paused
def trace(args: argparse.Namespace, run: Run) -> Run:
    """Recover the trace links of `args.reqs` in `args.src` or `args.facts`."""
    fca.check_threshold(args.threshold)
    if args.topics is not None:
        lsi.check_topics(args.topics)
    facts = args.facts
    with nullcontext() if facts is None else _load(facts) as messages:
        queries = corpus_mod.load_requirement_documents(args.reqs)
        stops = (
            textprep.load_stop_words(args.stopwords)
            if args.stopwords is not None
            else textprep.StopWordList()
        )
        gold = evaluation.load_gold_links(args.gold) if args.gold is not None else None
        if messages is None:
            doc_bags, query_bags = _source_bags(args.src, queries, stops, run)
        else:
            doc_bags, query_bags = _facts_bags(messages, facts, queries, stops, run)

    with run.stage("lsi.matrix") as sizes:
        vocab = lsi.build_vocabulary(doc_bags)
        tdm = lsi.build_tdm(doc_bags, vocab)
        tqm = lsi.build_tqm(query_bags, vocab)
        sizes.update(terms=len(vocab), nonzeros=len(tdm.nonzeros.counts))
    if args.topics is None:
        with run.stage("lsi.cosine"):
            csm = lsi.count_cosine_matrix(tdm, tqm)
    else:
        with run.stage("lsi.svd") as sizes:
            space = lsi.truncated_svd(tdm, args.topics)
            sizes["k"] = space.k
        with run.stage("lsi.cosine"):
            csm = lsi.cosine_similarity_matrix(space, tqm)

    with run.stage("fca.binarize") as sizes:
        ctx = fca.binarize(csm, args.threshold)
        sizes["incidences"] = sum(row.bit_count() for row in ctx.rows)
    with run.stage("fca.aoc") as sizes:
        poset = fca.aoc_poset(ctx)
        sizes.update(concepts=len(poset.concepts), edges=len(poset.edges))
    with run.stage("links.assemble") as sizes:
        tls = links.assemble_links(poset, ctx)
        sizes["links"] = sum(len(classes) for classes in tls.links.values())

    out = args.out
    with run.stage("links.emit"):
        files = {
            out / "links.json": links.links_to_json(tls),
            out / "poset.dot": links.emit_dot_poset(poset),
            out / "tracelinks.dot": links.emit_dot_tracelinks(tls),
        }
        if args.dump_intermediates:
            files[out / "tdm.csv"] = lsi.write_count_matrix_csv(tdm)
            files[out / "tqm.csv"] = lsi.write_count_matrix_csv(tqm)
            files[out / "csm.csv"] = lsi.write_similarity_csv(csm)
            files[out / "context.csv"] = fca.export_context_csv(ctx)
        if gold is not None:
            files.update(_reports(tls, gold, out))
    run.files = files
    linked = sum(1 for classes in tls.links.values() if classes)
    run.summary = (
        f"traced {len(tls.links)} requirements against {len(ctx.attributes)}"
        f" classes: {linked} linked, {len(tls.unlinked_requirements)} unlinked\n"
    )
    return run


@_collector_paused
def evaluate(args: argparse.Namespace, run: Run) -> Run:
    """Score the links file `args.links` against the gold file `args.gold`."""
    tls = read_input(args.links, "links file", links.links_from_json)
    run.files = _reports(tls, evaluation.load_gold_links(args.gold), args.out)
    run.summary = run.files[args.out / "report.csv"]
    return run
