from __future__ import annotations

import random
import re
import time

from dotreader import parse_dot
from hypothesis import example, given, seed, settings, strategies as st
from test_fca import RELEASES_CTX, TRACE_CTX, context_from, random_context

from reqtrace.fca import AOCPoset, aoc_poset
from reqtrace.links import (
    TraceLinkSet,
    _identifier_map,
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

    def test_shared_class_in_both_link_sets(self):
        tls = trace_links(SHARED_CTX)
        assert "Common" in tls.links["first need"]
        assert "Common" in tls.links["second need"]

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

    def test_class_names_linked_first_in_requirement_order_then_unlinked(self):
        tls = TraceLinkSet(
            links={"r1": ("B", "A"), "r2": (), "r3": ("C", "B")},
            unlinked_classes=("E", "D"),
            unlinked_requirements=("r2",),
        )
        assert tls.class_names() == ["B", "A", "C", "E", "D"]

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


def identifier_map_by_retry(names: list[str], prefix: str) -> dict[str, str]:
    """The oracle: retry every serial from 2 on each collision."""
    mapping: dict[str, str] = {}
    used = set()
    for name in names:
        base = prefix + (re.sub(r"[^0-9A-Za-z_]", "_", name) or "x")
        candidate = base
        serial = 2
        while candidate in used:
            candidate = f"{base}_{serial}"
            serial += 1
        used.add(candidate)
        mapping[name] = candidate
    return mapping


class TestIdentifierMap:
    # Names that sanitize alike, and literal names such as `x_2` that take
    # the spelling a serial would give.
    @seed(19)
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.text("x_2.3-", max_size=5), unique=True, max_size=40))
    @example(["x", "x.", "x-", "x_2", "x_3", "x._2", "x_2_2", "x.2"])
    @example(["", ".", "x", "-"])
    def test_equals_retrying_every_serial(self, names):
        assert _identifier_map(names, "c_") == identifier_map_by_retry(names, "c_")

    def test_8000_names_that_sanitize_alike_emit_in_under_a_second(self):
        names = tuple(f"A{chr(0x100 + i)}" for i in range(8000))
        tls = TraceLinkSet(
            links={"r": names[:10]}, unlinked_classes=names[10:], unlinked_requirements=()
        )
        start = time.perf_counter()
        dot = emit_dot_tracelinks(tls)
        assert time.perf_counter() - start < 1.0
        assert "c_A__8000 [label=" in dot
