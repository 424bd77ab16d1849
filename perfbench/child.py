"""One benchmark repetition, run in a fresh interpreter.

    python3 child.py import RESULT
    python3 child.py cli RESULT -- CLI-ARGS...
    python3 child.py traced RESULT -- CLI-ARGS...

Every mode first times `import reqtrace.cli` (the program's set-up), so this
file imports nothing but the standard library before that point.  A fixed
reference job is timed before the import and again at the end.  `cli` then
times one `reqtrace.cli.main(CLI-ARGS)` call.  `traced` instead replays the
public calls of that command in the order `cmd_extract` / `cmd_trace` makes
them, with a span around each call, and records per-layer counts.  The
result is written as JSON to RESULT; the exit code is 0 unless the child
itself broke.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
import uuid
from contextlib import contextmanager
from pathlib import Path

REFERENCE_LOOPS = 1_000_000


class Tracer:
    """In-memory spans of one run: name, start, end and parent span id."""

    def __init__(self) -> None:
        self.run_id = uuid.uuid4().hex
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = {
            "run": self.run_id,
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()

    def total(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)


def reference_s() -> float:
    """Time of a fixed interpreter-bound job that uses nothing of reqtrace.

    On a shared virtual machine the host's load can slow everything by up to
    ~1.7x in phases of a minute or so; this job slows with it, so timing it
    just before and just after the measured work lets run.py state times at
    one fixed speed.
    """
    start = time.perf_counter()
    counts: dict[str, int] = {}
    for i in range(REFERENCE_LOOPS):
        key = "w%d" % (i % 4096)
        counts[key] = counts.get(key, 0) + 1
    return time.perf_counter() - start


def traced_parse(src: Path, tracer: Tracer, counts: dict):
    """`parse_source_tree` in a span, with the parser's counts."""
    from reqtrace import javaparser

    files = sorted(Path(src).rglob("*.java"))
    counts["javaparser.files"] = len(files)
    counts["javaparser.bytes"] = sum(path.stat().st_size for path in files)
    with tracer.span("javaparser.parse"):
        facts, diagnostics = javaparser.parse_source_tree(src)
    counts["javaparser.warnings"] = sum(d.severity == "warning" for d in diagnostics)
    counts["javaparser.errors"] = sum(d.severity == "error" for d in diagnostics)
    return facts


def traced_extract(args, tracer: Tracer, counts: dict) -> bytes:
    """`cmd_extract` with a span around each call; returns the XML bytes."""
    from reqtrace import facts as facts_mod

    facts = traced_parse(args.src, tracer, counts)
    with tracer.span("facts.save"):
        data = facts_mod.save_facts_xml(facts)
        _write(Path(args.out), data)
    counts["facts.xml_bytes"] = len(data)
    return data


def traced_trace(args, tracer: Tracer, counts: dict) -> bytes:
    """`cmd_trace` with a span around each call; returns the links.json bytes."""
    from reqtrace import corpus, evaluation, facts, fca, links, lsi, textprep

    if args.facts is not None:
        with tracer.span("facts.load"):
            code_facts = facts.load_facts_xml(Path(args.facts).read_bytes())
    else:
        code_facts = traced_parse(args.src, tracer, counts)

    with tracer.span("corpus.build"):
        documents = corpus.build_class_documents(code_facts)
        queries = corpus.load_requirement_documents(args.reqs)
    counts["corpus.documents"] = len(documents.documents)
    counts["corpus.queries"] = len(queries.queries)

    with tracer.span("textprep.preprocess"):
        stops = (
            textprep.load_stop_words(args.stopwords)
            if args.stopwords is not None
            else textprep.StopWordList()
        )
        doc_bags = [textprep.preprocess(d, stops) for d in documents.documents]
        query_bags = [textprep.preprocess(q, stops) for q in queries.queries]
    bags = doc_bags + query_bags
    tokens = sum(bag.total() for bag in bags)
    distinct = len(set().union(*(bag.counts.keys() for bag in bags)))
    counts["textprep.tokens"] = tokens
    counts["textprep.distinct_terms"] = distinct
    counts["textprep.distinct_ratio"] = distinct / tokens if tokens else 0.0

    with tracer.span("lsi.matrix"):
        vocab = lsi.build_vocabulary(doc_bags)
        tdm = lsi.build_tdm(doc_bags, vocab)
        tqm = lsi.build_tqm(query_bags, vocab)
    full_rank = min(len(vocab), len(tdm.doc_names))
    k = args.topics if args.topics is not None else full_rank
    with tracer.span("lsi.svd"):
        space = lsi.truncated_svd(tdm, k)
    with tracer.span("lsi.cosine"):
        csm = lsi.cosine_similarity_matrix(space, tqm)
    counts["lsi.terms"] = len(vocab)
    counts["lsi.k"] = space.k
    counts["lsi.tdm_nonzero_ratio"] = int((tdm.cells != 0).sum()) / tdm.cells.size
    counts["lsi.dense_bytes"] = sum(
        array.nbytes
        for array in (
            tdm.cells,
            tqm.cells,
            space.left_vectors,
            space.doc_coords,
            csm.values,
        )
    )

    with tracer.span("fca.binarize"):
        ctx = fca.binarize(csm, args.threshold)
    with tracer.span("fca.concepts"):
        concepts = fca.enumerate_concepts(ctx)
    with tracer.span("fca.aoc"):
        poset = fca.build_aoc_poset(concepts, ctx)
    counts["fca.incidences"] = sum(sum(row) for row in ctx.incidence)
    counts["fca.concepts"] = len(concepts)
    counts["fca.aoc_concepts"] = len(poset.concepts)
    counts["fca.aoc_edges"] = len(poset.edges)
    counts["fca.useful_ratio"] = len(poset.concepts) / len(concepts)

    with tracer.span("links.assemble"):
        tls = links.assemble_links(poset, ctx)
    counts["links.links"] = sum(len(classes) for classes in tls.links.values())

    with tracer.span("links.emit"):
        out = Path(args.out)
        links_json = links.links_to_json(tls).encode("utf-8")
        _write(out / "links.json", links_json)
        _write(out / "poset.dot", links.emit_dot_poset(poset).encode("utf-8"))
        _write(out / "tracelinks.dot", links.emit_dot_tracelinks(tls).encode("utf-8"))
        if args.gold is not None:
            report = evaluation.evaluate(tls, evaluation.load_gold_links(args.gold))
            _write(
                out / "report.json",
                evaluation.report_to_json(report).encode("utf-8"),
            )
            _write(
                out / "report.csv", evaluation.report_to_csv(report).encode("utf-8")
            )
    return links_json


def _write(path: Path, data: bytes) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(data)


def run_traced(argv: list[str]) -> dict:
    from reqtrace import cli

    args = cli._build_parser().parse_args(argv)
    if args.command not in ("extract", "trace"):
        raise ValueError(f"no traced replay for command {args.command!r}")
    tracer = Tracer()
    counts: dict = {}
    replay = traced_extract if args.command == "extract" else traced_trace
    with tracer.span(f"cli.{args.command}"):
        output = replay(args, tracer, counts)
    layers = {
        span["name"]: tracer.total(span["name"])
        for span in tracer.spans
        if span["parent"] is not None
    }
    return {
        "total_s": tracer.total(f"cli.{args.command}"),
        "layers": layers,
        "counts": counts,
        "output_bytes": output.decode("utf-8"),
        "spans": tracer.spans,
    }


def main(argv: list[str]) -> int:
    mode, result_path = argv[0], Path(argv[1])
    cli_args = argv[3:] if len(argv) > 2 and argv[2] == "--" else []
    result: dict = {"ok": False, "reference_s": [reference_s()]}
    try:
        start = time.perf_counter()
        import reqtrace.cli

        result["import_s"] = time.perf_counter() - start
        import numpy

        result["numpy"] = numpy.__version__
        if mode == "cli":
            start = time.perf_counter()
            result["exit_code"] = reqtrace.cli.main(cli_args)
            result["wall_s"] = time.perf_counter() - start
        elif mode == "traced":
            result.update(run_traced(cli_args))
            result["exit_code"] = 0
        elif mode != "import":
            raise ValueError(f"unknown mode {mode!r}")
        result["ok"] = True
    except Exception:
        result["error"] = traceback.format_exc()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["reference_s"].append(reference_s())
    result_path.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
