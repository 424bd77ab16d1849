from __future__ import annotations

import random

from dotreader import parse_dot
from test_fca import RELEASES_CTX, TRACE_CTX, context_from, random_context

from reqtrace.fca import AOCPoset, aoc_poset
from reqtrace.links import (
    assemble_links,
    emit_dot_poset,
    emit_dot_tracelinks,
    links_from_json,
    links_to_json,
)


def trace_links(ctx):
    return assemble_links(aoc_poset(ctx), ctx)


SHARED_CTX = context_from(
    ["first need", "second need"],
    ["Common", "OnlyFirst", "Spare"],
    [
        ("first need", "Common"), ("first need", "OnlyFirst"),
        ("second need", "Common"),
    ],
)


class TestAssembleLinks:
    def test_trace_context_links(self):
        tls = trace_links(TRACE_CTX)
        assert tls.links == {
            "Draw a line": ("MyLine",),
            "Draw oval": ("MyOval",),
            "Draw rectangle": ("MyRectangle",),
        }
        assert set(tls.unlinked_classes) == {"DrawingShapes", "MyShape", "PaintJPanel"}
        assert tls.unlinked_requirements == ()

    def test_empty_incidence(self):
        ctx = context_from(["r1", "r2"], ["c1", "c2"], [])
        tls = trace_links(ctx)
        assert tls.links == {"r1": (), "r2": ()}
        assert set(tls.unlinked_requirements) == {"r1", "r2"}
        assert set(tls.unlinked_classes) == {"c1", "c2"}

    def test_shared_class_in_both_link_sets_and_shared_cluster(self):
        tls = trace_links(SHARED_CTX)
        assert "Common" in tls.links["first need"]
        assert "Common" in tls.links["second need"]
        shared = [
            (reqs, classes)
            for reqs, classes in tls.clusters
            if set(reqs) == {"first need", "second need"}
        ]
        assert len(shared) == 1
        assert "Common" in shared[0][1]

    def test_links_equal_incidence_rows(self):
        rng = random.Random(5)
        for _ in range(25):
            ctx = random_context(rng, max_side=6)
            tls = trace_links(ctx)
            for obj, row in zip(ctx.objects, ctx.incidence):
                expected = tuple(
                    attr for attr, marked in zip(ctx.attributes, row) if marked
                )
                assert tls.links[obj] == expected

    def test_every_class_accounted_for(self):
        rng = random.Random(6)
        for _ in range(25):
            ctx = random_context(rng, max_side=6)
            tls = trace_links(ctx)
            linked = {c for classes in tls.links.values() for c in classes}
            assert linked | set(tls.unlinked_classes) == set(ctx.attributes)
            assert not linked & set(tls.unlinked_classes)

    def test_json_round_trip(self):
        tls = trace_links(TRACE_CTX)
        text = links_to_json(tls)
        loaded = links_from_json(text)
        assert loaded.links == tls.links
        assert loaded.unlinked_classes == tls.unlinked_classes
        assert loaded.unlinked_requirements == tls.unlinked_requirements


class TestPosetDot:
    def test_trace_poset_has_four_nodes(self):
        graph = parse_dot(emit_dot_poset(aoc_poset(TRACE_CTX)))
        assert len(graph.nodes) == 4
        labels = [attrs["label"] for attrs in graph.nodes.values()]
        assert any("Concept_0" in label for label in labels)
        assert any("Concept_3" in label for label in labels)

    def test_concept_numbering_follows_extent_order(self):
        # numbering: three one-requirement concepts first (sorted by name),
        # then the bottom concept holding the unlinked classes
        graph = parse_dot(emit_dot_poset(aoc_poset(TRACE_CTX)))
        label_by_node = {n: attrs["label"] for n, attrs in graph.nodes.items()}
        assert "Draw a line" in label_by_node["c0"]
        assert "Draw rectangle" in label_by_node["c2"]
        assert "DrawingShapes" in label_by_node["c3"]

    def test_releases_poset_has_five_nodes(self):
        graph = parse_dot(emit_dot_poset(aoc_poset(RELEASES_CTX)))
        assert len(graph.nodes) == 5

    def test_empty_poset(self):
        graph = parse_dot(emit_dot_poset(AOCPoset(concepts=(), edges=())))
        assert graph.nodes == {}
        assert graph.edges == []

    def test_edges_match_poset(self):
        poset = aoc_poset(RELEASES_CTX)
        graph = parse_dot(emit_dot_poset(poset))
        assert sorted(graph.edges) == sorted(
            (f"c{sub}", f"c{sup}") for sub, sup in poset.edges
        )

    def test_deterministic_bytes(self):
        first = emit_dot_poset(aoc_poset(RELEASES_CTX))
        second = emit_dot_poset(aoc_poset(RELEASES_CTX))
        assert first == second


class TestTraceLinksDot:
    def test_trace_graph_shape(self):
        graph = parse_dot(emit_dot_tracelinks(trace_links(TRACE_CTX)))
        boxes = [n for n, a in graph.nodes.items() if a.get("shape") == "box"]
        ellipses = [n for n, a in graph.nodes.items() if a.get("shape") == "ellipse"]
        assert len(boxes) == 3
        assert len(ellipses) == 6
        assert len(graph.edges) == 3

    def test_empty_links_nodes_only(self):
        ctx = context_from(["r"], ["c"], [])
        graph = parse_dot(emit_dot_tracelinks(trace_links(ctx)))
        assert len(graph.nodes) == 2
        assert graph.edges == []

    def test_shared_class_has_in_degree_two(self):
        graph = parse_dot(emit_dot_tracelinks(trace_links(SHARED_CTX)))
        targets = [target for _, target in graph.edges]
        assert targets.count("c_Common") == 2

    def test_name_sanitization_stays_collision_free(self):
        ctx = context_from(
            ["need one", "need-one"], ["My.Class", "My Class"],
            [("need one", "My.Class"), ("need-one", "My Class")],
        )
        graph = parse_dot(emit_dot_tracelinks(trace_links(ctx)))
        assert len(graph.nodes) == 4
        labels = {attrs["label"] for attrs in graph.nodes.values()}
        assert labels == {"need one", "need-one", "My.Class", "My Class"}

    def test_deterministic_bytes(self):
        assert emit_dot_tracelinks(trace_links(TRACE_CTX)) == emit_dot_tracelinks(
            trace_links(TRACE_CTX)
        )
