"""Precision/recall scoring of recovered links against a gold standard.

Precision is the share of recovered links that are related; recall the
share of related links that are recovered.  Ratios with an empty
denominator are undefined and surface as None (rendered "N/A"), never as
0 or 1, so aggregates are not silently distorted.  The aggregate is
micro-averaged over all (requirement, class) pairs.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from pathlib import Path

from .errors import GoldCoverageError, read_input
from .links import TraceLinkSet, class_lists

__all__ = [
    "GoldLinks",
    "EvaluationReport",
    "precision",
    "recall",
    "evaluate",
    "load_gold_links",
    "report_to_json",
    "report_to_csv",
]


@dataclass(frozen=True)
class GoldLinks:
    related: dict[str, frozenset[str]]


@dataclass(frozen=True)
class EvaluationReport:
    per_requirement: dict[str, tuple[float | None, float | None]]
    micro_precision: float | None
    micro_recall: float | None


def precision(related: set, recovered: set) -> float | None:
    """|related ∩ recovered| / |recovered|, or None when nothing was recovered."""
    if not recovered:
        return None
    return len(set(related) & set(recovered)) / len(recovered)


def recall(related: set, recovered: set) -> float | None:
    """|related ∩ recovered| / |related|, or None when nothing is related."""
    if not related:
        return None
    return len(set(related) & set(recovered)) / len(related)


def evaluate(tls: TraceLinkSet, gold: GoldLinks) -> EvaluationReport:
    """Score every traced requirement; the gold file must cover them all.

    The gold entries scored must name only known classes
    (`TraceLinkSet.class_names`); a misspelt or unqualified name would
    otherwise count as a missed link.
    """
    per_requirement = {}
    true_positives = related_total = recovered_total = 0
    known = set(tls.class_names())
    unknown: set[str] = set()
    for requirement, recovered in tls.links.items():
        if requirement not in gold.related:
            raise GoldCoverageError(
                f"gold links missing requirement {requirement!r}"
            )
        related = gold.related[requirement]
        unknown |= related - known
        recovered_set = set(recovered)
        per_requirement[requirement] = (
            precision(related, recovered_set),
            recall(related, recovered_set),
        )
        true_positives += len(related & recovered_set)
        related_total += len(related)
        recovered_total += len(recovered_set)
    if unknown:
        raise GoldCoverageError(
            "gold links name classes that are not documents: "
            + ", ".join(sorted(unknown))
        )
    return EvaluationReport(
        per_requirement=per_requirement,
        micro_precision=(
            true_positives / recovered_total if recovered_total else None
        ),
        micro_recall=true_positives / related_total if related_total else None,
    )


def load_gold_links(path: str | Path) -> GoldLinks:
    """Read a gold file: JSON object mapping requirement -> list of classes.

    Classes are named as the class documents are: by simple name, or as
    ``package.Class`` where more than one package declares that name.
    """
    related = read_input(path, "gold file", lambda text: class_lists(json.loads(text)))
    return GoldLinks(related={r: frozenset(c) for r, c in related.items()})


def _render(value: float | None) -> str:
    return "N/A" if value is None else f"{value:.4f}"


def report_to_json(report: EvaluationReport) -> str:
    payload = {
        "per_requirement": {
            requirement: {"precision": p, "recall": r}
            for requirement, (p, r) in report.per_requirement.items()
        },
        "micro_precision": report.micro_precision,
        "micro_recall": report.micro_recall,
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def report_to_csv(report: EvaluationReport) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["requirement", "precision", "recall"])
    for requirement, (p, r) in report.per_requirement.items():
        writer.writerow([requirement, _render(p), _render(r)])
    micro = (report.micro_precision, report.micro_recall)
    writer.writerow(["(micro)", *map(_render, micro)])
    return buffer.getvalue()
