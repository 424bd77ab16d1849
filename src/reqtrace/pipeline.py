"""The three commands as computations: read, check, compute and record.

`extract`, `trace` and `evaluate` take the `argparse.Namespace` of
`cli._build_parser()` and fill the caller's `Run`: the files to write (path
-> text or bytes), the parse diagnostics, the summary to print, and the
stages in run order.  They write and print nothing, and Java parse
diagnostics never stop them.  A stage is (name, seconds, sizes), named as
the benchmark's layers (`lsi.svd` only under `--topics`), with sizes that
the stage already holds.  Reading the requirement, stop-word and gold files
is not a stage, and `evaluate` records none.
"""

from __future__ import annotations

import argparse
import time
from contextlib import contextmanager
from pathlib import Path

from . import corpus as corpus_mod
from . import evaluation, fca, links, lsi, textprep
from .errors import ConfigurationError, EmptyCorpusError
from .facts import CodeFacts, compute_metrics, load_facts_xml, save_facts_xml
from .javaparser import ParseDiagnostic, parse_source_tree


class Run:
    """What one command produced, filled in stage by stage, so that the
    caller still has the diagnostics of a parse before a later failure."""

    def __init__(self) -> None:
        self.files: dict[Path, str | bytes] = {}
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


def _parse(src: Path, run: Run) -> CodeFacts:
    with run.stage("javaparser.parse") as sizes:
        facts, run.diagnostics = parse_source_tree(src)
        sizes["warnings"] = sum(d.severity == "warning" for d in run.diagnostics)
        sizes["errors"] = len(run.diagnostics) - sizes["warnings"]
    return facts


def _load(path: Path, run: Run) -> CodeFacts:
    with run.stage("facts.load") as sizes:
        data = path.read_bytes()  # freed on return, before the later stages
        sizes["bytes"] = len(data)
        return load_facts_xml(data)


def _metrics_summary(facts: CodeFacts) -> str:
    metrics = compute_metrics(facts)
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


def extract(args: argparse.Namespace, run: Run) -> Run:
    """Parse `args.src` into the facts XML at `args.out`."""
    facts = _parse(args.src, run)
    with run.stage("facts.save") as sizes:
        data = save_facts_xml(facts)
        sizes["bytes"] = len(data)
    run.files[args.out] = data
    run.summary = _metrics_summary(facts)
    return run


def trace(args: argparse.Namespace, run: Run) -> Run:
    """Recover the trace links of `args.reqs` in `args.src` or `args.facts`."""
    if not -1.0 < args.threshold <= 1.0:
        raise ConfigurationError(f"threshold {args.threshold} outside (-1.0, 1.0]")
    if args.topics is not None and args.topics < 1:
        raise ConfigurationError("topics must be >= 1")
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


def evaluate(args: argparse.Namespace, run: Run) -> Run:
    """Score the links file `args.links` against the gold file `args.gold`."""
    try:
        tls = links.links_from_json(args.links.read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:  # bad UTF-8, JSON or shape
        raise ConfigurationError(f"links file {args.links}: {exc}") from exc
    run.files = _reports(tls, evaluation.load_gold_links(args.gold), args.out)
    run.summary = run.files[args.out / "report.csv"]
    return run
