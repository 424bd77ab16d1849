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

`extract` holds no record beyond the file it came from: it checks and
encodes each class as soon as the parser keeps it, so what it holds grows
with the XML it will write, not with the records of the whole tree.  Its
two stages each add up the time of their steps for every file.

Each command runs with the cyclic collector paused, and its state is
restored when the command returns or raises.  A command makes many objects
that live to its end and almost no reference cycles, so a collection would
only walk them again and again: with the collector on, it took about a
quarter of `facts.load` on the 600 classes of a facts-dense `trace --facts`.
The records are freed by their reference counts when the command returns.
"""

from __future__ import annotations

import argparse
import gc
import time
from contextlib import contextmanager
from dataclasses import replace
from functools import wraps
from pathlib import Path
from typing import Iterable

from . import corpus as corpus_mod
from . import evaluation, fca, links, lsi, textprep
from .errors import ConfigurationError, EmptyCorpusError
from .facts import (
    CodeFacts,
    SoftwareMetrics,
    class_metrics,
    class_xml,
    load_facts_xml,
    validate_class,
    xml_chunks,
)
from .javaparser import (
    ParseDiagnostic,
    parse_source_files,
    parse_source_tree,
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


def _parse(src: Path, run: Run) -> CodeFacts:
    with run.stage("javaparser.parse") as sizes:
        facts, run.diagnostics = parse_source_tree(src)
        sizes.update(_diagnostic_counts(run.diagnostics))
    return facts


def _diagnostic_counts(diagnostics: list[ParseDiagnostic]) -> dict[str, int]:
    warnings = sum(d.severity == "warning" for d in diagnostics)
    return {"warnings": warnings, "errors": len(diagnostics) - warnings}


def _load(path: Path, run: Run) -> CodeFacts:
    with run.stage("facts.load") as sizes:
        data = path.read_bytes()  # freed on return, before the later stages
        sizes["bytes"] = len(data)
        return load_facts_xml(data)


def _metrics_summary(metrics: SoftwareMetrics) -> str:
    rows = [
        ("packages (NOP)", metrics.nop),
        ("classes (NOC)", metrics.noc),
        ("attributes (NOA)", metrics.noa),
        ("methods (NOM)", metrics.nom),
        ("identifiers", metrics.identifiers),
        ("comments", metrics.comments),
        ("local variables", metrics.locals),
        ("method invocations", metrics.invocations),
        ("attribute accesses", metrics.accesses),
    ]
    width = max(len(label) for label, _ in rows)
    return "".join(f"{label.ljust(width)}  {value}\n" for label, value in rows)


def _reports(
    tls: links.TraceLinkSet, gold: evaluation.GoldLinks, out: Path
) -> dict[Path, str]:
    report = evaluation.evaluate(tls, gold)
    return {
        out / "report.json": evaluation.report_to_json(report),
        out / "report.csv": evaluation.report_to_csv(report),
    }


@_collector_paused
def extract(args: argparse.Namespace, run: Run) -> Run:
    """Parse `args.src` into the facts XML at `args.out`: the chunks that
    `save_facts_xml` would join for `parse_source_tree(args.src)`."""
    clock = time.perf_counter
    parse_s = save_s = 0.0
    packages: dict[str, list[bytes]] = {}  # name -> its classes, encoded
    metrics = SoftwareMetrics()
    start = clock()
    for package, classes, diagnostics in parse_source_files(args.src):
        parsed = clock()
        parse_s += parsed - start
        run.diagnostics += diagnostics
        if package is not None:
            encoded = packages.setdefault(package, [])
            for cls in classes:
                validate_class(cls)
                encoded.append(class_xml(cls))
                metrics += class_metrics(cls)
        start = clock()
        save_s += start - parsed
    parse_s += clock() - start
    start = clock()
    chunks = xml_chunks(source_provenance(args.src), packages.items())
    save_s += clock() - start
    run.stages.append(
        ("javaparser.parse", parse_s, _diagnostic_counts(run.diagnostics))
    )
    run.stages.append(("facts.save", save_s, {"bytes": sum(map(len, chunks))}))
    run.files[args.out] = chunks
    run.summary = _metrics_summary(replace(metrics, nop=len(packages)))
    return run


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

    facts = _parse(args.src, run) if args.facts is None else _load(args.facts, run)
    with run.stage("corpus.build") as sizes:
        documents = corpus_mod.build_class_documents(facts)
        sizes.update(documents=len(documents.documents), queries=len(queries.queries))
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
    try:
        tls = links.links_from_json(args.links.read_text(encoding="utf-8-sig"))
    except (ValueError, RecursionError) as exc:  # bad UTF-8, JSON or shape
        raise ConfigurationError(f"links file {args.links}: {exc}") from exc
    run.files = _reports(tls, evaluation.load_gold_links(args.gold), args.out)
    run.summary = run.files[args.out / "report.csv"]
    return run
