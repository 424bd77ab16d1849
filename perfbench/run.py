"""End-to-end and per-layer benchmark of the reqtrace CLI.

    python3 perfbench/run.py --workload src-1k --seed 1 --seconds 40 --trace 0

Generates a seeded synthetic corpus (see corpus_gen.py), then, while another
repetition fits in --seconds, runs the workload's CLI command again, each
time in a fresh interpreter (child.py) with BLAS pinned to one thread.  Every
run also puts the paper's Drawing Shapes example through the CLI as a gate
(P = R = 1.0 at threshold 0.70).  With --trace 1 it alternates untraced runs
with traced replays of the same command and reports per-layer figures.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  Work
files, result.json and the spans of the last run of each workload are kept
under .perfbench/<workload>/ in the repository root.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import corpus_gen  # noqa: E402

DS = ROOT / "tests" / "fixtures" / "ds"
CHILD_TIMEOUT_S = 100  # keeps a hung command inside the 180 s a run may take
MIN_SETUP_SAMPLES = 5
# Times are reported at the machine speed at which child.reference_s()
# takes this long (about an unloaded 2.1 GHz Xeon vCPU): each child's times
# are scaled by REFERENCE_S over the mean reference time of that child and
# the children just before and after it, which follows the host's slow
# phases (a minute or so) and averages out the noise of single timings.
REFERENCE_S = 0.27
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "extract", "trace --src" or "trace --facts"
    classes: int
    requirements: int = 0
    threshold: float | None = None
    topics: int | None = None
    # When set, the threshold is chosen per seed so that the binarized
    # context holds this many incidences: the number of concepts, and so the
    # FCA time, grows steeply with the context's density.
    incidences: int | None = None


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "src-1k", "trace --src", classes=1000, requirements=100, threshold=0.15
        ),
        Workload(
            "facts-dense",
            "trace --facts",
            classes=600,
            requirements=300,
            topics=100,
            incidences=4500,
        ),
        Workload("extract-3k", "extract", classes=3000),
    )
}

END_TO_END_UNITS = {
    "wall_s": "s",
    "classes_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "precision": "ratio",
    "recall": "ratio",
}

# A layer the workload's command never calls reports 0.
PER_LAYER_UNITS = {
    "javaparser.parse_s": "s",
    "javaparser.files": "count",
    "javaparser.bytes": "bytes",
    "javaparser.warnings": "count",
    "javaparser.errors": "count",
    "facts.save_s": "s",
    "facts.xml_bytes": "bytes",
    "facts.load_s": "s",
    "corpus.build_s": "s",
    "corpus.documents": "count",
    "corpus.queries": "count",
    "textprep.preprocess_s": "s",
    "textprep.tokens": "count",
    "textprep.distinct_terms": "count",
    "textprep.distinct_ratio": "ratio",
    "lsi.matrix_s": "s",
    "lsi.svd_s": "s",
    "lsi.cosine_s": "s",
    "lsi.terms": "count",
    "lsi.k": "count",
    "lsi.tdm_nonzero_ratio": "ratio",
    "lsi.dense_bytes": "bytes",
    "fca.binarize_s": "s",
    "fca.concepts_s": "s",
    "fca.aoc_s": "s",
    "fca.incidences": "count",
    "fca.concepts": "count",
    "fca.aoc_concepts": "count",
    "fca.aoc_edges": "count",
    "fca.useful_ratio": "ratio",
    "links.assemble_s": "s",
    "links.emit_s": "s",
    "links.links": "count",
    "cli.unattributed_s": "s",
    "trace.overhead_s": "s",
}


class Run:
    """Children started by one benchmark run and the failures they showed."""

    def __init__(self, work: Path):
        self.work = work
        self.attempted = 0
        self.failures: list[str] = []
        self.references: list[list[float]] = []  # per child, in run order
        self.imports: list[tuple[int, float]] = []  # (child index, import_s)
        self.numpy_version = None
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(ROOT / "src"), self.env.get("PYTHONPATH")])
        )
        self.env.update({name: "1" for name in THREAD_ENV})

    def child(self, mode: str, argv: list[str] = ()) -> dict | None:
        """Run child.py once; return its result, or None after a failure."""
        self.attempted += 1
        result_path = self.work / f"child-{self.attempted}.json"
        label = " ".join([mode, *argv[:1]])
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), mode, str(result_path)]
                + ["--", *argv],
                cwd=ROOT,
                env=self.env,
                capture_output=True,
                timeout=CHILD_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return self.fail(f"{label}: no result within {CHILD_TIMEOUT_S} s")
        if proc.returncode != 0 or not result_path.exists():
            stderr = proc.stderr.decode("utf-8", "replace")[-400:]
            return self.fail(f"{label}: child exited {proc.returncode}: {stderr}")
        result = json.loads(result_path.read_text(encoding="utf-8"))
        result_path.unlink()
        self.references.append(result["reference_s"])
        result["index"] = len(self.references) - 1
        if "import_s" in result:
            self.imports.append((result["index"], result["import_s"]))
            self.numpy_version = result.get("numpy", self.numpy_version)
        if not result["ok"]:
            return self.fail(f"{label}: exception\n{result.get('error', '')}")
        if result.get("exit_code", 0) != 0:
            return self.fail(f"{label}: exit code {result['exit_code']}")
        return result

    def speed(self, index: int) -> float:
        """Factor that puts the times of child `index` at reference speed."""
        near = self.references[max(0, index - 1) : index + 2]
        return REFERENCE_S / statistics.mean(t for refs in near for t in refs)

    def setup_s(self) -> list[float]:
        return [import_s * self.speed(i) for i, import_s in self.imports]

    def fail(self, reason: str) -> None:
        self.failures.append(reason)

    def check(self, ok: bool, reason: str) -> bool:
        """Count a failed output check against the operation just run."""
        if not ok:
            self.fail(reason)
        return ok


def ds_gate(run: Run, gold: Path = DS / "gold.json") -> bool:
    """The paper's Drawing Shapes example: P = R = 1.0 at threshold 0.70."""
    out = run.work / "ds"
    argv = ["trace", "--src", str(DS / "src"), "--reqs", str(DS / "requirements")]
    argv += ["--threshold", "0.70", "--gold", str(gold), "--out", str(out)]
    if run.child("cli", argv) is None:
        return False
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    return run.check(
        report["micro_precision"] == 1.0 and report["micro_recall"] == 1.0,
        "DS gate: precision {micro_precision}, recall {micro_recall}".format(**report),
    )


def command_argv(
    workload: Workload, corpus: Path, out: Path, threshold: float | None
) -> list[str]:
    if workload.command == "extract":
        return ["extract", "--src", str(corpus / "src"), "--out", str(out / "facts.xml")]
    if workload.command == "trace --src":
        argv = ["trace", "--src", str(corpus / "src")]
    else:
        argv = ["trace", "--facts", str(corpus / "facts.xml")]
    argv += ["--reqs", str(corpus / "reqs"), "--gold", str(corpus / "gold.json")]
    argv += ["--threshold", repr(threshold), "--out", str(out)]
    if workload.topics is not None:
        argv += ["--topics", str(workload.topics)]
    return argv


def calibrated_threshold(run: Run, workload: Workload, corpus: Path) -> float | None:
    """Midpoint between the n-th and (n+1)-th largest cosine of the workload,
    read from the similarity matrix of an untimed run at threshold 0.5."""
    out = run.work / "calibrate"
    probe = command_argv(workload, corpus, out, 0.5) + ["--dump-intermediates"]
    if run.child("cli", probe) is None:
        return None
    with open(out / "csm.csv", newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))[1:]
    values = sorted((float(v) for row in rows for v in row[1:]), reverse=True)
    n = workload.incidences
    if not run.check(len(values) > n, "too few cosines to calibrate"):
        return None
    return round((values[n - 1] + values[n]) / 2, 12)


def declaration_scores(facts_xml: bytes, declarations: dict) -> tuple[float, float]:
    """Precision and recall of extracted (class, kind, name) triples."""
    planted = {(cls, "class", cls) for cls in declarations} | {
        (cls, kind, name)
        for cls, members in declarations.items()
        for kind in ("fields", "methods")
        for name in members[kind]
    }
    found = set()
    for cls in ET.fromstring(facts_xml).iter("class"):
        name = cls.get("name")
        found.add((name, "class", name))
        found.update((name, "fields", a.get("name")) for a in cls.iter("attribute"))
        found.update((name, "methods", m.get("name")) for m in cls.iter("method"))
    hit = len(planted & found)
    return hit / len(found), hit / len(planted)


def measure(
    workload: Workload, seed: int, seconds: float, trace: bool, work: Path
) -> dict:
    """One benchmark run; returns everything it recorded."""
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = Run(work)
    corpus = work / "corpus"
    sizes = corpus_gen.generate(corpus, workload.classes, workload.requirements, seed)
    run.child("import")  # compiles bytecode once, so later imports are alike

    if workload.command == "trace --facts":
        facts_xml = str(corpus / "facts.xml")
        run.child("cli", ["extract", "--src", str(corpus / "src"), "--out", facts_xml])
    threshold = workload.threshold
    if workload.incidences is not None:
        threshold = calibrated_threshold(run, workload, corpus)
    runnable = workload.command == "extract" or threshold is not None
    out = work / "out"
    argv = command_argv(workload, corpus, out, threshold)
    output_file = out / ("facts.xml" if workload.command == "extract" else "links.json")
    ds_gate(run)

    # Repetitions while another one fits before the deadline (traced and
    # untraced alternate when tracing); the first failure ends the loop.
    untraced: list[dict] = []
    traced: list[dict] = []
    expected: bytes | None = None
    deadline = time.perf_counter() + seconds
    last_s = 0.0
    while runnable and (
        not untraced
        or (trace and not traced)
        or time.perf_counter() + last_s < deadline
    ):
        traced_turn = trace and len(traced) < len(untraced)
        started = time.perf_counter()
        result = run.child("traced" if traced_turn else "cli", argv)
        last_s = time.perf_counter() - started
        if result is None:
            break
        if traced_turn:
            data = result["output_bytes"].encode("utf-8")
        else:
            data = output_file.read_bytes()
        expected = expected or data
        what = "traced replay" if traced_turn else "CLI run"
        if not run.check(data == expected, f"{what}: output differs from the first run"):
            break
        if traced_turn and traced and result["counts"] != traced[0]["counts"]:
            run.fail("traced replay: per-layer counts differ between repetitions")
            break
        (traced if traced_turn else untraced).append(result)
    for _ in range(MIN_SETUP_SAMPLES - len(run.imports)):
        run.child("import")
    for result in untraced + traced:
        result["speed"] = run.speed(result["index"])
    setup_s = run.setup_s()

    record = {
        "workload": workload.name,
        "command": workload.command,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "sizes": sizes,
        "threshold": threshold,
        "topics": workload.topics,
        "environment": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": run.numpy_version,
            "blas_threads": int(run.env["OPENBLAS_NUM_THREADS"]),
        },
        "output_sha256": hashlib.sha256(expected).hexdigest() if expected else None,
        "wall_s_samples": [r["wall_s"] * r["speed"] for r in untraced],
        "raw_wall_s_samples": [r["wall_s"] for r in untraced],
        "setup_s_samples": setup_s,
        "speed_samples": [run.speed(i) for i in range(len(run.references))],
        "attempted": run.attempted,
        "failed": len(run.failures),
        "failures": run.failures,
    }
    if untraced:
        if workload.command == "extract":
            declarations = json.loads(
                (corpus / "declarations.json").read_text(encoding="utf-8")
            )
            scores = declaration_scores(expected, declarations)
        else:
            report = json.loads((out / "report.json").read_text(encoding="utf-8"))
            scores = report["micro_precision"], report["micro_recall"]
        record["end_to_end"] = end_to_end(workload, untraced, setup_s, scores)
    if trace and traced:
        record["per_layer"] = per_layer(untraced, traced)
        record["spans"] = [span for r in traced for span in r["spans"]]
    return record


def end_to_end(
    workload: Workload,
    untraced: list[dict],
    import_s: list[float],
    scores: tuple[float, float],
) -> dict:
    wall = statistics.median(r["wall_s"] * r["speed"] for r in untraced)
    return {
        "wall_s": wall,
        "classes_per_s": workload.classes / wall,
        "setup_s": statistics.median(import_s),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
        "precision": scores[0],
        "recall": scores[1],
    }


def per_layer(untraced: list[dict], traced: list[dict]) -> dict:
    """Median layer times over the traced replays, plus their counts."""
    metrics = {name: 0 for name in PER_LAYER_UNITS}
    metrics.update(traced[0]["counts"])
    for name in {layer for r in traced for layer in r["layers"]}:
        metrics[f"{name}_s"] = statistics.median(
            r["layers"][name] * r["speed"] for r in traced
        )
    wall = statistics.median(r["wall_s"] * r["speed"] for r in untraced)
    spans = statistics.median(sum(r["layers"].values()) * r["speed"] for r in traced)
    total = statistics.median(r["total_s"] * r["speed"] for r in traced)
    metrics["cli.unattributed_s"] = wall - spans
    metrics["trace.overhead_s"] = total - wall
    return metrics


def report(record: dict, trace: bool) -> dict:
    """Print the human-readable lines; return the metrics of the result."""
    sizes = json.dumps(record["sizes"], sort_keys=True)
    print(f"workload {record['workload']}: {record['command']}, seed {record['seed']}")
    print(f"environment {json.dumps(record['environment'], sort_keys=True)}")
    print(f"input {sizes}, threshold {record['threshold']}, topics {record['topics']}")
    print(f"output sha256 {record['output_sha256']}")
    print(
        f"samples: wall_s {len(record['wall_s_samples'])},"
        f" setup_s {len(record['setup_s_samples'])}"
    )
    if record["raw_wall_s_samples"]:
        raw = statistics.median(record["raw_wall_s_samples"])
        speed = statistics.median(record["speed_samples"])
        print(f"unscaled wall_s median {raw:.4f} s, median speed factor {speed:.4f}")
    rate = record["failed"] / record["attempted"]
    print(f"error_rate {record['failed']}/{record['attempted']} = {rate:.4f}")
    for failure in record["failures"]:
        print(f"FAILED {failure}")
    values = record.get("per_layer" if trace else "end_to_end")
    if values is None:
        return {}
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    for name, metric in metrics.items():
        print(f"  {name:<26} {metric['value']:>16.6g} {metric['unit']}")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="reqtrace benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "reqtrace" / "cli.py").is_file() or not DS.is_dir():
        print(f"error: {ROOT} holds no reqtrace sources to benchmark", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    work = ROOT / ".perfbench" / workload.name
    record = measure(workload, args.seed, args.seconds, bool(args.trace), work)
    metrics = report(record, bool(args.trace))
    (work / "result.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if not metrics:
        print("error: no successful repetition to report", file=sys.stderr)
        return 1
    result = {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
