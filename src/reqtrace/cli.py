"""Command-line front end: extract, trace, and evaluate subcommands.

Exit codes: 0 success, 2 configuration failure, 3 empty corpus after
preprocessing.  `extract` and `trace --src` share one policy for Java
sources: they print every parse diagnostic, warnings and errors alike, to
stderr, keep going and exit 0.  A Java file that is not UTF-8 is read as
ISO-8859-1 with a warning; requirement, stop-word and gold files must be
UTF-8 (exit 2).  `trace` reads every input, computes every artifact, and
only then writes them, so a run that fails writes nothing.  Each artifact
is written atomically (temp file + rename) with the mode that the umask
gives a new file, and two runs over identical inputs produce
byte-identical outputs.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from pathlib import Path

from . import corpus as corpus_mod
from . import evaluation, fca, links, lsi, textprep
from .errors import ConfigurationError, EmptyCorpusError, ReqTraceError
from .facts import CodeFacts, compute_metrics, load_facts_xml, save_facts_xml
from .javaparser import parse_source_tree

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_EMPTY_CORPUS = 3


def _write_atomic(path: Path, data: bytes) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        # mkstemp makes the file 0600; give it the mode `open` would
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp_name, 0o666 & ~umask)
        os.replace(tmp_name, path)
    except BaseException:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)
        raise


def _print_diagnostics(diagnostics) -> None:
    for diagnostic in diagnostics:
        print(
            f"{diagnostic.severity}: {diagnostic.file}:{diagnostic.line}:"
            f" {diagnostic.message}",
            file=sys.stderr,
        )


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
    return "\n".join(f"{label.ljust(width)}  {value}" for label, value in rows)


def cmd_extract(source_root: Path, out: Path) -> int:
    facts, diagnostics = parse_source_tree(source_root)
    _print_diagnostics(diagnostics)
    _write_atomic(out, save_facts_xml(facts))
    print(_metrics_summary(facts))
    return EXIT_OK


def _report_files(
    tls: links.TraceLinkSet, gold: evaluation.GoldLinks
) -> dict[str, str]:
    report = evaluation.evaluate(tls, gold)
    return {
        "report.json": evaluation.report_to_json(report),
        "report.csv": evaluation.report_to_csv(report),
    }


def _write_files(out: Path, files: dict[str, str]) -> None:
    for name, text in files.items():
        _write_atomic(out / name, text.encode("utf-8"))


def cmd_trace(args: argparse.Namespace) -> int:
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

    if args.facts is not None:
        facts = load_facts_xml(args.facts.read_bytes())
    else:
        facts, diagnostics = parse_source_tree(args.src)
        _print_diagnostics(diagnostics)
    documents = corpus_mod.build_class_documents(facts)
    if not documents.documents:
        raise EmptyCorpusError("no classes found; document corpus is empty")
    doc_bags = [textprep.preprocess(d, stops) for d in documents.documents]
    query_bags = [textprep.preprocess(q, stops) for q in queries.queries]

    vocab = lsi.build_vocabulary(doc_bags)
    tdm = lsi.build_tdm(doc_bags, vocab)
    tqm = lsi.build_tqm(query_bags, vocab)
    if args.topics is None:
        csm = lsi.count_cosine_matrix(tdm, tqm)
    else:
        csm = lsi.cosine_similarity_matrix(lsi.truncated_svd(tdm, args.topics), tqm)

    ctx = fca.binarize(csm, args.threshold)
    poset = fca.build_aoc_poset(fca.aoc_concepts(ctx), ctx)
    tls = links.assemble_links(poset, ctx)

    files = {
        "links.json": links.links_to_json(tls),
        "poset.dot": links.emit_dot_poset(poset),
        "tracelinks.dot": links.emit_dot_tracelinks(tls),
    }
    if args.dump_intermediates:
        files["tdm.csv"] = lsi.write_count_matrix_csv(tdm)
        files["tqm.csv"] = lsi.write_count_matrix_csv(tqm)
        files["csm.csv"] = lsi.write_similarity_csv(csm)
        files["context.csv"] = fca.export_context_csv(ctx)
    if gold is not None:
        files.update(_report_files(tls, gold))
    _write_files(args.out, files)
    linked = sum(1 for classes in tls.links.values() if classes)
    print(
        f"traced {len(tls.links)} requirements against {len(ctx.attributes)}"
        f" classes: {linked} linked, {len(tls.unlinked_requirements)} unlinked"
    )
    return EXIT_OK


def cmd_evaluate(links_file: Path, gold_file: Path, out: Path) -> int:
    try:
        tls = links.links_from_json(links_file.read_text(encoding="utf-8"))
    except (KeyError, ValueError, TypeError) as exc:
        raise ConfigurationError(f"links file {links_file}: {exc}") from exc
    files = _report_files(tls, evaluation.load_gold_links(gold_file))
    _write_files(out, files)
    print(files["report.csv"], end="")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reqtrace",
        description="Recover requirement-to-code trace links from Java sources",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    extract = commands.add_parser(
        "extract", help="parse Java sources into a code-facts XML file"
    )
    extract.add_argument("--src", type=Path, required=True, help="source root")
    extract.add_argument(
        "--out", type=Path, required=True, help="output facts XML path"
    )

    trace = commands.add_parser(
        "trace", help="run the full trace-link recovery pipeline"
    )
    source = trace.add_mutually_exclusive_group(required=True)
    source.add_argument("--src", type=Path, help="Java source root")
    source.add_argument("--facts", type=Path, help="code-facts XML file")
    trace.add_argument(
        "--reqs", type=Path, required=True, help="directory of requirement .txt files"
    )
    trace.add_argument("--threshold", type=float, default=0.70)
    trace.add_argument(
        "--topics",
        type=int,
        default=None,
        help="LSI topics k (default: full rank, plain count cosine)",
    )
    trace.add_argument("--stopwords", type=Path, default=None)
    trace.add_argument("--out", type=Path, required=True, help="output directory")
    trace.add_argument("--gold", type=Path, default=None)
    trace.add_argument("--dump-intermediates", action="store_true")

    evaluate = commands.add_parser(
        "evaluate", help="score a links.json against a gold-links file"
    )
    evaluate.add_argument("--links", type=Path, required=True)
    evaluate.add_argument("--gold", type=Path, required=True)
    evaluate.add_argument("--out", type=Path, required=True, help="output directory")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "extract":
            return cmd_extract(args.src, args.out)
        if args.command == "trace":
            return cmd_trace(args)
        if args.command == "evaluate":
            return cmd_evaluate(args.links, args.gold, args.out)
        raise ConfigurationError(f"unknown command {args.command!r}")
    except EmptyCorpusError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EMPTY_CORPUS
    except (ReqTraceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
