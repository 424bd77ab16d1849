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
join into chunks or name (`name_class_documents`).  `trace --facts` makes
one call to `read_facts_xml`, which turns each class into its document text
as the class is read, and names them the same way.  So what `extract` holds
grows with the XML it will write, and `trace` with the documents (and, from
a facts file, with the file's bytes, held while it is read).

A tree of at least `javaparser.FILES_PER_WORKER` files for each of two or
more CPUs is parsed by a pool of forked worker processes, which send back
only those values, in file order; a smaller tree, or one CPU, is parsed in
this process.  Either way the files, diagnostics and summary are the same,
and no worker outlives the command.  A stage that a walk feeds
(`javaparser.parse`, and `facts.save` or `corpus.build`) adds up the time
of its steps for every file, wherever they ran: on a pool its time can
exceed the command's.  Likewise `corpus.build` holds the time that
`read_facts_xml` spent making documents, and `facts.load` the rest.

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
import time
from collections import Counter
from contextlib import contextmanager
from functools import wraps
from pathlib import Path
from typing import Iterable

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


def _load(
    path: Path, run: Run
) -> tuple[dict[str, tuple[tuple[str, str], ...]], float]:
    """The classes of the facts file `path` by package, each its name and
    document text, and the seconds taken to make the texts, which the stage
    `facts.load` leaves out."""
    start = time.perf_counter()
    with refused("facts file", path):
        data = path.read_bytes()  # freed on return, before the later stages
        _, packages, build_s = read_facts_xml(data, corpus_mod.class_document_text)
    load_s = time.perf_counter() - start - build_s
    run.stages.append(("facts.load", load_s, {"bytes": len(data)}))
    return packages, build_s


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


def _class_documents(
    args: argparse.Namespace, run: Run
) -> tuple[corpus_mod.DocumentCorpus, float]:
    """The class documents of `args.facts` or `args.src`, and the seconds
    taken to make them.  No class's records outlive their reading: each
    class becomes its document text as it is read from the facts file, or
    as its Java file is parsed."""
    if args.facts is not None:
        packages, build_s = _load(args.facts, run)
    else:
        packages, parse_s, build_s = parse_source_files(
            args.src, corpus_mod.class_document_text, run.diagnostics
        )
        run.stages.append(
            ("javaparser.parse", parse_s, _diagnostic_counts(run.diagnostics))
        )
    start = time.perf_counter()
    documents = corpus_mod.name_class_documents(packages.items())
    return documents, build_s + time.perf_counter() - start


@_collector_paused
def trace(args: argparse.Namespace, run: Run) -> Run:
    """Recover the trace links of `args.reqs` in `args.src` or `args.facts`."""
    fca.check_threshold(args.threshold)
    if args.topics is not None:
        lsi.check_topics(args.topics)
    queries = corpus_mod.load_requirement_documents(args.reqs)
    stops = (
        textprep.load_stop_words(args.stopwords)
        if args.stopwords is not None
        else textprep.StopWordList()
    )
    gold = evaluation.load_gold_links(args.gold) if args.gold is not None else None

    documents, build_s = _class_documents(args, run)
    sizes = {"documents": len(documents.documents), "queries": len(queries.queries)}
    run.stages.append(("corpus.build", build_s, sizes))
    if not documents.documents:
        raise EmptyCorpusError("no classes found; document corpus is empty")
    with run.stage("textprep.preprocess") as sizes:
        doc_bags = [textprep.preprocess(d, stops) for d in documents.documents]
        query_bags = [textprep.preprocess(q, stops) for q in queries.queries]
        sizes["tokens"] = sum(bag.total() for bag in doc_bags + query_bags)

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
