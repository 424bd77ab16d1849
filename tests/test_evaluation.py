from __future__ import annotations

import json
import random

import pytest

from reqtrace.errors import GoldCoverageError
from reqtrace.evaluation import (
    EvaluationReport,
    GoldLinks,
    evaluate,
    load_gold_links,
    precision,
    recall,
    report_to_csv,
    report_to_json,
)
from reqtrace.links import TraceLinkSet


def tls_of(links: dict[str, tuple[str, ...]], classes=()) -> TraceLinkSet:
    """Links over a class universe: the linked classes plus `classes`."""
    linked = {c for linked_classes in links.values() for c in linked_classes}
    return TraceLinkSet(
        links=links,
        unlinked_classes=tuple(c for c in classes if c not in linked),
        unlinked_requirements=tuple(r for r, c in links.items() if not c),
    )


class TestPrecisionRecall:
    def test_identical_sets(self):
        assert precision({"a"}, {"a"}) == 1.0
        assert recall({"a"}, {"a"}) == 1.0

    def test_four_of_five_recovered_links_related(self):
        related = {"a", "b", "c", "d"}
        recovered = {"a", "b", "c", "d", "e"}
        assert precision(related, recovered) == pytest.approx(0.8)
        assert recall(related, recovered) == 1.0

    def test_half_recall(self):
        assert recall({"a", "b"}, {"a"}) == pytest.approx(0.5)

    def test_empty_recovered_precision_undefined(self):
        assert precision({"a"}, set()) is None

    def test_empty_related_recall_undefined(self):
        assert recall(set(), {"a"}) is None

    def test_laws_over_random_set_pairs(self):
        rng = random.Random(123)
        universe = [f"c{i}" for i in range(8)]
        for _ in range(1200):
            related = {c for c in universe if rng.random() < rng.random()}
            recovered = {c for c in universe if rng.random() < rng.random()}
            p = precision(related, recovered)
            r = recall(related, recovered)
            # bounds
            for value in (p, r):
                assert value is None or 0.0 <= value <= 1.0
            # symmetry: precision(A, B) == recall(B, A)
            assert p == recall(recovered, related)
            assert r == precision(recovered, related)
            # perfect-match law
            both_perfect = p == 1.0 and r == 1.0
            assert both_perfect == (related == recovered and bool(related))
            # independent set-arithmetic oracle
            if recovered:
                assert p == len(related & recovered) / len(recovered)
            if related:
                assert r == len(related & recovered) / len(related)


class TestEvaluate:
    def test_all_perfect(self):
        tls = tls_of({
            "Draw a line": ("MyLine",),
            "Draw oval": ("MyOval",),
            "Draw rectangle": ("MyRectangle",),
        })
        gold = GoldLinks(related={
            "Draw a line": frozenset({"MyLine"}),
            "Draw oval": frozenset({"MyOval"}),
            "Draw rectangle": frozenset({"MyRectangle"}),
        })
        report = evaluate(tls, gold)
        assert all(
            (p, r) == (1.0, 1.0) for p, r in report.per_requirement.values()
        )
        assert report.micro_precision == 1.0
        assert report.micro_recall == 1.0

    def test_empty_links_nonempty_gold(self):
        report = evaluate(
            tls_of({"req": ()}, classes=("C",)),
            GoldLinks(related={"req": frozenset({"C"})}),
        )
        p, r = report.per_requirement["req"]
        assert p is None
        assert r == 0.0

    def test_missing_gold_entry_is_error(self):
        with pytest.raises(GoldCoverageError) as info:
            evaluate(tls_of({"lost": ("C",)}), GoldLinks(related={}))
        assert "lost" in str(info.value)

    def test_unknown_gold_classes_are_an_error(self):
        tls = tls_of({"r1": ("Line",), "r2": ()}, classes=("Oval",))
        gold = GoldLinks(related={
            "r1": frozenset({"Lin", "Line"}),
            "r2": frozenset({"Rectangl", "Oval", "Ovl"}),
            "unscored": frozenset({"Nowhere"}),
        })
        with pytest.raises(GoldCoverageError) as info:
            evaluate(tls, gold)
        assert str(info.value).endswith(": Lin, Ovl, Rectangl")

    def test_extra_gold_entries_ignored(self):
        report = evaluate(
            tls_of({"req": ("C",)}),
            GoldLinks(related={
                "req": frozenset({"C"}),
                "unused": frozenset({"D"}),
            }),
        )
        assert list(report.per_requirement) == ["req"]

    def test_micro_average_over_pairs(self):
        report = evaluate(
            tls_of({"r1": ("a", "b"), "r2": ("c", "d", "e", "f")}, classes=("x",)),
            GoldLinks(related={
                "r1": frozenset({"a", "b"}),
                "r2": frozenset({"c", "x"}),
            }),
        )
        # true positives 3 of 6 recovered, gold holds 4
        assert report.micro_precision == pytest.approx(3 / 6)
        assert report.micro_recall == pytest.approx(3 / 4)

    def test_random_micro_against_oracle(self):
        rng = random.Random(77)
        universe = [f"c{i}" for i in range(6)]
        for _ in range(200):
            names = [f"r{i}" for i in range(rng.randint(1, 4))]
            links = {
                n: tuple(c for c in universe if rng.random() < 0.4) for n in names
            }
            gold = {
                n: frozenset(c for c in universe if rng.random() < 0.4)
                for n in names
            }
            report = evaluate(tls_of(links, universe), GoldLinks(related=gold))
            tp = sum(len(set(links[n]) & gold[n]) for n in names)
            rec = sum(len(links[n]) for n in names)
            rel = sum(len(gold[n]) for n in names)
            assert report.micro_precision == (tp / rec if rec else None)
            assert report.micro_recall == (tp / rel if rel else None)


class TestGoldAndReports:
    def test_load_gold_links(self, tmp_path):
        path = tmp_path / "gold.json"
        path.write_text(json.dumps({"req": ["A", "B"]}))
        gold = load_gold_links(path)
        assert gold.related == {"req": frozenset({"A", "B"})}

    def test_gold_must_map_to_lists(self, tmp_path):
        path = tmp_path / "gold.json"
        path.write_text(json.dumps({"req": "A"}))
        with pytest.raises(GoldCoverageError):
            load_gold_links(path)

    def test_report_renders_na(self):
        report = EvaluationReport(
            per_requirement={"req": (None, 0.0)},
            micro_precision=None,
            micro_recall=0.0,
        )
        csv_text = report_to_csv(report)
        assert "req,N/A,0.0000" in csv_text
        assert "(micro),N/A,0.0000" in csv_text
        payload = json.loads(report_to_json(report))
        assert payload["per_requirement"]["req"]["precision"] is None
