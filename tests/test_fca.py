from __future__ import annotations

import csv
import functools
import io
import random
from itertools import combinations

import numpy as np
import pytest
from hypothesis import Phase, given, seed, settings, strategies as st

from reqtrace.errors import ParameterError
from reqtrace.fca import (
    AOCConcept,
    AOCPoset,
    FormalConcept,
    FormalContext,
    aoc_poset,
    binarize,
    build_aoc_poset,
    enumerate_concepts,
    export_context_csv,
    names_of,
)
from reqtrace.lsi import SimilarityMatrix, count_cosine_matrix, format_similarity

from test_lsi import full_rank_svd_cosines, random_counts


def context_of(objects, attributes, table) -> FormalContext:
    """A context from a boolean table, objects x attributes."""
    return FormalContext(
        objects=tuple(objects),
        attributes=tuple(attributes),
        rows=tuple(
            sum(1 << a for a, marked in enumerate(row) if marked) for row in table
        ),
    )


def context_from(objects, attributes, marks) -> FormalContext:
    marked = {(o, a) for o, a in marks}
    return context_of(
        objects,
        attributes,
        [[(o, a) in marked for a in attributes] for o in objects],
    )


# Releases of a maps application described by their requirements.
RELEASES = ["Release_1", "Release_2", "Release_3", "Release_4", "Release_5"]
RELEASE_FEATURES = [
    "Registration", "Login", "View map", "View mosques", "View restaurants",
    "View museums", "Change map view", "Set favorite places",
]
RELEASES_CTX = context_from(
    RELEASES,
    RELEASE_FEATURES,
    [
        ("Release_1", "View map"),
        ("Release_2", "View map"), ("Release_2", "Set favorite places"),
        ("Release_3", "Registration"), ("Release_3", "Login"),
        ("Release_3", "View map"), ("Release_3", "Set favorite places"),
        ("Release_4", "Registration"), ("Release_4", "Login"),
        ("Release_4", "View map"), ("Release_4", "View restaurants"),
        ("Release_4", "Change map view"), ("Release_4", "Set favorite places"),
        ("Release_5", "Registration"), ("Release_5", "Login"),
        ("Release_5", "View map"), ("Release_5", "View mosques"),
        ("Release_5", "View restaurants"), ("Release_5", "View museums"),
        ("Release_5", "Change map view"), ("Release_5", "Set favorite places"),
    ],
)

# Requirements described by the classes implementing them.
REQUIREMENTS_CTX = context_from(
    ["requirement A", "requirement B", "requirement C", "requirement D", "requirement E"],
    ["class F", "class G", "class H", "class I", "class J", "class K", "class L", "class M"],
    [
        ("requirement A", "class F"),
        ("requirement B", "class G"), ("requirement B", "class M"),
        ("requirement C", "class H"), ("requirement C", "class I"),
        ("requirement D", "class I"), ("requirement D", "class L"),
        ("requirement E", "class J"), ("requirement E", "class K"),
        ("requirement E", "class M"),
    ],
)

# Diagonal trace context: three requirements, six classes, three links.
TRACE_CTX = context_from(
    ["Draw a line", "Draw oval", "Draw rectangle"],
    ["DrawingShapes", "MyLine", "MyOval", "MyRectangle", "MyShape", "PaintJPanel"],
    [
        ("Draw a line", "MyLine"),
        ("Draw oval", "MyOval"),
        ("Draw rectangle", "MyRectangle"),
    ],
)


@functools.lru_cache(maxsize=4)
def attribute_sets(ctx: FormalContext) -> dict[str, frozenset[str]]:
    """Each object's attributes, read off the boolean incidence table."""
    return {
        o: frozenset(a for a, marked in zip(ctx.attributes, row) if marked)
        for o, row in zip(ctx.objects, ctx.incidence)
    }


def intent_of(objects, ctx: FormalContext) -> set[str]:
    """Attributes shared by every given object; all attributes for none."""
    has = attribute_sets(ctx)
    return set(ctx.attributes).intersection(*(has[o] for o in objects))


def extent_of(attributes, ctx: FormalContext) -> set[str]:
    """Objects having every given attribute; all objects for none."""
    has = attribute_sets(ctx)
    return {o for o in ctx.objects if has[o] >= set(attributes)}


def brute_force_concepts_via_attributes(ctx: FormalContext) -> set:
    """Independent oracle: close every attribute subset (dual direction)."""
    concepts = set()
    for r in range(len(ctx.attributes) + 1):
        for subset in combinations(ctx.attributes, r):
            extent = extent_of(subset, ctx)
            intent = intent_of(extent, ctx)
            concepts.add((frozenset(extent), frozenset(intent)))
    return concepts


def as_pair_set(concepts: list[FormalConcept]) -> set:
    return {(frozenset(c.extent), frozenset(c.intent)) for c in concepts}


def in_context_order(names, universe) -> tuple[str, ...]:
    return tuple(name for name in universe if name in names)


def random_context(
    rng: random.Random, max_side: int = 8, min_side: int = 1
) -> FormalContext:
    n_obj = rng.randint(min_side, max_side)
    n_attr = rng.randint(min_side, max_side)
    density = rng.choice([0.2, 0.4, 0.6, 0.8])
    return context_of(
        [f"o{i}" for i in range(n_obj)],
        [f"a{j}" for j in range(n_attr)],
        [[rng.random() < density for _ in range(n_attr)] for _ in range(n_obj)],
    )


def reference_edges(extents: list[int]) -> list[tuple[int, int]]:
    """The covering edges of extent masks in `aoc_poset` order, by the O(n²)
    scan the peeling replaced.

    The extents are distinct and come in decreasing size, so walking back
    from i visits the larger extents in increasing size: a superset is a
    cover unless it contains a cover found before it.
    """
    edges = []
    for i, extent in enumerate(extents):
        covers = []
        for j in range(i - 1, -1, -1):
            larger = extents[j]
            if extent & larger == extent and all(
                extents[c] & larger != extents[c] for c in covers
            ):
                covers.append(j)
        edges.extend((i, j) for j in sorted(covers))
    return edges


def extent_masks(concepts, ctx: FormalContext) -> list[int]:
    bit = {name: 1 << o for o, name in enumerate(ctx.objects)}
    return [sum(bit[name] for name in c.extent) for c in concepts]


def reference_aoc_poset(ctx: FormalContext) -> AOCPoset:
    """The AOC-poset by the set oracles alone: object o sits at the concept
    whose extent is extent_of(intent_of({o})), attribute a at extent_of({a});
    concepts go by decreasing extent size, ties by the extent's names."""
    labels: dict[frozenset[str], tuple[list[str], list[str]]] = {}
    for o in ctx.objects:
        extent = frozenset(extent_of(intent_of({o}, ctx), ctx))
        labels.setdefault(extent, ([], []))[0].append(o)
    for a in ctx.attributes:
        labels.setdefault(frozenset(extent_of({a}, ctx)), ([], []))[1].append(a)
    concepts = [
        AOCConcept(
            extent=in_context_order(extent, ctx.objects),
            introduced_objects=tuple(objects),
            introduced_attributes=tuple(attributes),
        )
        for extent, (objects, attributes) in labels.items()
    ]
    concepts.sort(key=lambda c: (-len(c.extent), c.extent))
    edges = reference_edges(extent_masks(concepts, ctx))
    return AOCPoset(concepts=tuple(concepts), edges=tuple(edges))


def rounded_table(csm: SimilarityMatrix, threshold: float) -> list[list[bool]]:
    """Cell by cell: does the cosine, as csm.csv shows it, reach the threshold?"""
    return [
        [float(format_similarity(v)) >= threshold for v in row] for row in csm.values
    ]


def table_csv(ctx: FormalContext, table: list[list[bool]]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["", *ctx.attributes])
    for name, row in zip(ctx.objects, table):
        writer.writerow([name, *(int(v) for v in row)])
    return buffer.getvalue()


# A failing example of up to 130 x 130 cells takes tens of milliseconds to
# check, and shrinking one means minutes: report the first one found.
NO_SHRINK = (Phase.explicit, Phase.reuse, Phase.generate)


@st.composite
def similarity_matrices(draw, max_side: int):
    """A seeded q x d matrix of cosines and a threshold that keeps about 90%,
    50%, 10% or 2% of the cells; a tenth of the cells sit at the threshold or
    within rounding of it.  Sides up to 130 cross byte and 64-bit widths."""
    q = draw(st.integers(0, max_side))
    d = draw(st.integers(0, max_side))
    threshold = draw(st.sampled_from([-0.8, 0.0, 0.8, 0.96]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.uniform(-1.0, 1.0, size=(q, d))
    near = rng.random((q, d)) < 0.1
    offsets = rng.choice([-6e-10, -3e-10, 0.0, 3e-10], size=(q, d))
    values[near] = threshold + offsets[near]
    csm = SimilarityMatrix(
        query_names=tuple(f"q{i}" for i in range(q)),
        doc_names=tuple(f"d{j}" for j in range(d)),
        values=values,
    )
    return csm, threshold


class TestFormalContext:
    @pytest.mark.parametrize(
        "objects, attributes, rows, message",
        [
            (("o", "o"), ("a",), (0, 1), "duplicate object names"),
            (("o",), ("a", "a"), (0,), "duplicate attribute names"),
            (("o", "p"), ("a",), (1,), "row count mismatch"),
            (("o",), ("a", "b"), (0b100,), "row width mismatch"),
            (("o",), ("a",), (-1,), "row width mismatch"),
        ],
        ids=["objects", "attributes", "row count", "row too wide", "negative row"],
    )
    def test_inconsistent_context_rejected(self, objects, attributes, rows, message):
        with pytest.raises(ParameterError, match=message):
            FormalContext(objects=objects, attributes=attributes, rows=rows)


class TestBinarize:
    def csm(self):
        return SimilarityMatrix(
            query_names=("q1", "q2"),
            doc_names=("d1", "d2"),
            values=np.array([[0.71, 0.69], [0.70, -0.2]]),
        )

    def test_threshold_is_inclusive(self):
        ctx = binarize(self.csm(), 0.70)
        assert ctx.incidence == ((True, False), (True, False))
        assert ctx.objects == ("q1", "q2")
        assert ctx.attributes == ("d1", "d2")

    def test_threshold_above_maximum_empties_incidence(self):
        ctx = binarize(self.csm(), 1.0)
        assert not any(any(row) for row in ctx.incidence)

    def test_threshold_minus_one_fills_incidence(self):
        ctx = binarize(self.csm(), -1.0)
        assert all(all(row) for row in ctx.incidence)

    def test_threshold_out_of_range(self):
        with pytest.raises(ParameterError):
            binarize(self.csm(), 1.5)

    def test_compares_the_value_csm_csv_shows(self):
        # 0.7 - 3e-10 prints as 0.700000000; 0.7 - 6e-10 as 0.699999999.
        csm = SimilarityMatrix(
            query_names=("q",),
            doc_names=("a", "b", "c", "d"),
            values=np.array([[0.7 - 3e-10, 0.7 - 6e-10, 0.7, -1e-16]]),
        )
        assert binarize(csm, 0.70).incidence == ((True, False, True, False),)
        assert binarize(csm, 0.0).incidence == ((True, True, True, True),)

    def test_incidence_is_the_rounded_comparison_cell_by_cell(self):
        rng = np.random.RandomState(21)
        for trial in range(80):
            pair = random_counts(rng, rng.randint(1, 12), rng.randint(1, 12), 3, trial)
            if pair is None:
                continue
            for csm in (count_cosine_matrix(*pair), full_rank_svd_cosines(*pair)):
                shown = [[float(f"{v:.9f}") for v in row] for row in csm.values]
                # thresholds at printed values put cells right at the boundary
                for threshold in (0.0, 0.15, 0.7, *rng.choice(np.ravel(shown), 2)):
                    expected = tuple(
                        tuple(v >= threshold for v in row) for row in shown
                    )
                    assert binarize(csm, threshold).incidence == expected

    @seed(311)
    @settings(max_examples=60, phases=NO_SHRINK)
    @given(similarity_matrices(max_side=130))
    def test_rows_are_the_rounded_comparison_across_widths(self, drawn):
        csm, threshold = drawn
        ctx = binarize(csm, threshold)
        table = rounded_table(csm, threshold)
        assert ctx == context_of(csm.query_names, csm.doc_names, table)
        assert ctx.incidence == tuple(map(tuple, table))
        assert b"".join(export_context_csv(ctx)) == table_csv(ctx, table).encode()

    def test_count_cosine_and_full_rank_svd_give_one_context(self):
        rng = np.random.RandomState(22)
        for trial in range(80):
            pair = random_counts(rng, rng.randint(1, 12), rng.randint(1, 12), 3, trial)
            if pair is None:
                continue
            fast, reference = count_cosine_matrix(*pair), full_rank_svd_cosines(*pair)
            for threshold in (0.0, 0.15, 0.7):
                assert binarize(fast, threshold) == binarize(reference, threshold)


class TestEnumerateConcepts:
    def test_empty_context_single_concept(self):
        ctx = FormalContext(objects=(), attributes=(), rows=())
        assert enumerate_concepts(ctx) == [FormalConcept(extent=(), intent=())]

    def test_releases_have_shared_feature_concept(self):
        concepts = enumerate_concepts(RELEASES_CTX)
        assert any(
            set(c.extent) == set(RELEASES) and set(c.intent) == {"View map"}
            for c in concepts
        )

    def test_sorted_by_extent_size_then_names(self):
        concepts = enumerate_concepts(RELEASES_CTX)
        sizes = [len(c.extent) for c in concepts]
        assert sizes == sorted(sizes, reverse=True)
        assert concepts[0].extent == tuple(RELEASES)

    def test_closure_property(self):
        for ctx in (RELEASES_CTX, REQUIREMENTS_CTX, TRACE_CTX):
            for concept in enumerate_concepts(ctx):
                assert intent_of(concept.extent, ctx) == set(concept.intent)
                assert extent_of(concept.intent, ctx) == set(concept.extent)

    def test_matches_brute_force_oracle_on_fixtures(self):
        for ctx in (RELEASES_CTX, REQUIREMENTS_CTX, TRACE_CTX):
            assert as_pair_set(enumerate_concepts(ctx)) == (
                brute_force_concepts_via_attributes(ctx)
            )

    def test_matches_brute_force_oracle_on_random_contexts(self):
        rng = random.Random(2024)
        for _ in range(60):
            ctx = random_context(rng)
            assert as_pair_set(enumerate_concepts(ctx)) == (
                brute_force_concepts_via_attributes(ctx)
            )

    def test_row_intersections_match_oracle_on_tall_contexts(self):
        # many objects make a deep lattice; few attributes keep the
        # attribute-subset oracle cheap
        rng = random.Random(7)
        ctx = context_of(
            [f"o{i}" for i in range(21)],
            [f"a{j}" for j in range(5)],
            [[rng.random() < 0.5 for _ in range(5)] for _ in range(21)],
        )
        assert as_pair_set(enumerate_concepts(ctx)) == (
            brute_force_concepts_via_attributes(ctx)
        )

    def test_every_intent_is_listed_on_a_context_too_wide_for_the_oracle(self):
        # 2^200 attribute subsets rule out the oracle.  The listed intents
        # hold every intent when each listed pair is closed, the intents are
        # closed under intersection, and they hold all attributes and every
        # row: each intent is the intersection of the rows of its extent.
        rng = random.Random(120200)
        cells = rng.sample(range(120 * 200), 1200)
        ctx = context_from(
            [f"o{i}" for i in range(120)],
            [f"a{j}" for j in range(200)],
            [(f"o{c // 200}", f"a{c % 200}") for c in cells],
        )
        concepts = enumerate_concepts(ctx)
        assert len(concepts) > 800
        for concept in concepts:
            assert intent_of(concept.extent, ctx) == set(concept.intent)
            assert extent_of(concept.intent, ctx) == set(concept.extent)
        intents = {frozenset(c.intent) for c in concepts}
        assert len(intents) == len(concepts)
        assert all(a & b in intents for a, b in combinations(intents, 2))
        assert frozenset(ctx.attributes) in intents
        assert set(attribute_sets(ctx).values()) <= intents


class TestAocPoset:
    def test_trace_context_has_four_concepts(self):
        poset = aoc_poset(TRACE_CTX)
        assert len(poset.concepts) == 4
        diagonal = [
            c for c in poset.concepts
            if c.introduced_objects and c.introduced_attributes
        ]
        assert len(diagonal) == 3
        assert any(
            c.introduced_objects == ("Draw a line",)
            and c.introduced_attributes == ("MyLine",)
            for c in diagonal
        )
        bottom = [c for c in poset.concepts if not c.introduced_objects]
        assert len(bottom) == 1
        assert set(bottom[0].introduced_attributes) == {
            "DrawingShapes", "MyShape", "PaintJPanel",
        }

    def test_requirement_a_and_class_f_introduced_together(self):
        poset = aoc_poset(REQUIREMENTS_CTX)
        assert any(
            "requirement A" in c.introduced_objects
            and "class F" in c.introduced_attributes
            for c in poset.concepts
        )

    def test_releases_poset_top_concept(self):
        poset = aoc_poset(RELEASES_CTX)
        assert len(poset.concepts) == 5
        top = poset.concepts[0]
        assert top.extent == tuple(RELEASES)
        assert top.introduced_objects == ("Release_1",)
        assert top.introduced_attributes == ("View map",)

    def test_diagonal_context(self):
        ctx = context_from(
            ["o1", "o2", "o3"],
            ["a1", "a2", "a3"],
            [("o1", "a1"), ("o2", "a2"), ("o3", "a3")],
        )
        poset = aoc_poset(ctx)
        pairs = [
            c for c in poset.concepts
            if len(c.introduced_objects) == 1 and len(c.introduced_attributes) == 1
        ]
        assert len(pairs) == 3

    def test_empty_row_object_lands_on_top_concept(self):
        ctx = context_from(["busy", "idle"], ["a"], [("busy", "a")])
        poset = aoc_poset(ctx)
        top = max(poset.concepts, key=lambda c: len(c.extent))
        assert "idle" in top.introduced_objects
        assert set(top.extent) == {"busy", "idle"}

    def test_empty_column_attribute_lands_on_bottom_concept(self):
        ctx = context_from(["o"], ["used", "unused"], [("o", "used")])
        poset = aoc_poset(ctx)
        bottom = min(poset.concepts, key=lambda c: len(c.extent))
        assert "unused" in bottom.introduced_attributes

    @staticmethod
    def check_labels_partition(ctx: FormalContext, poset: AOCPoset) -> None:
        introduced_objects = [
            o for c in poset.concepts for o in c.introduced_objects
        ]
        introduced_attributes = [
            a for c in poset.concepts for a in c.introduced_attributes
        ]
        assert sorted(introduced_objects) == sorted(ctx.objects)
        assert sorted(introduced_attributes) == sorted(ctx.attributes)
        for concept in poset.concepts:
            assert concept.introduced_objects or concept.introduced_attributes

    @staticmethod
    def check_edges_are_covers(ctx: FormalContext, poset: AOCPoset) -> None:
        """The edges are exactly the covering pairs, in (sub, super) order."""
        extents = [set(c.extent) for c in poset.concepts]
        n = len(extents)
        covers = [
            (sub, super_)
            for sub in range(n)
            for super_ in range(n)
            if extents[sub] < extents[super_]
            and not any(
                extents[sub] < extents[via] < extents[super_] for via in range(n)
            )
        ]
        assert list(poset.edges) == covers

    def test_labels_partition_and_edges_on_random_contexts(self):
        rng = random.Random(99)
        for _ in range(40):
            ctx = random_context(rng, max_side=6)
            poset = aoc_poset(ctx)
            self.check_labels_partition(ctx, poset)
            self.check_edges_are_covers(ctx, poset)

    def test_aoc_concepts_give_the_full_lattice_poset(self):
        rng = random.Random(2307)
        for _ in range(250):
            ctx = random_context(rng, max_side=8, min_side=0)
            poset = aoc_poset(ctx)
            assert poset == reference_aoc_poset(ctx)
            # the kept concepts are lattice concepts, in the lattice's order
            lattice = iter(enumerate_concepts(ctx))
            assert all(
                FormalConcept(
                    c.extent, in_context_order(intent_of(c.extent, ctx), ctx.attributes)
                )
                in lattice
                for c in poset.concepts
            )
            self.check_labels_partition(ctx, poset)
            self.check_edges_are_covers(ctx, poset)

    @seed(2307)
    @settings(max_examples=40, phases=NO_SHRINK)
    @given(similarity_matrices(max_side=130))
    def test_peeled_edges_equal_the_reference_scan(self, drawn):
        ctx = binarize(*drawn)
        poset = aoc_poset(ctx)
        assert poset == reference_aoc_poset(ctx)
        self.check_labels_partition(ctx, poset)
        self.check_edges_are_covers(ctx, poset)

    @seed(7305)
    @settings(max_examples=150)
    @given(similarity_matrices(max_side=10))
    def test_aoc_poset_and_full_lattice_give_one_poset(self, drawn):
        ctx = binarize(*drawn)
        poset = aoc_poset(ctx)
        assert poset == reference_aoc_poset(ctx)
        assert build_aoc_poset(enumerate_concepts(ctx), ctx) == poset

    def test_incomplete_concept_list_rejected(self):
        concepts = enumerate_concepts(TRACE_CTX)
        with pytest.raises(ParameterError):
            build_aoc_poset(concepts[:-1], TRACE_CTX)


def bit_by_bit(mask: int, names: tuple[str, ...]) -> tuple[str, ...]:
    return tuple(names[i] for i in range(len(names)) if mask >> i & 1)


class TestNamesOf:
    @pytest.mark.parametrize("width", [0, 1, 7, 8, 9, 64, 65, 600, 3000])
    def test_matches_the_bit_by_bit_oracle(self, width):
        rng = random.Random(width)
        names = tuple(f"n{i}" for i in range(width))
        masks = [0, (1 << width) - 1] + [
            sum(1 << i for i in range(width) if rng.random() < density)
            for density in (0.01, 0.05, 0.5, 0.95)  # sparse to dense rows
            for _ in range(3)
        ]
        assert names_of(masks, names) == [bit_by_bit(m, names) for m in masks]

    @pytest.mark.parametrize("width", [0, 9])
    def test_empty_mask_list(self, width):
        assert names_of([], tuple(f"n{i}" for i in range(width))) == []


class TestContextCsv:
    def test_header_and_cells(self):
        lines = b"".join(export_context_csv(TRACE_CTX)).decode().splitlines()
        assert lines[0].startswith(",DrawingShapes,MyLine")
        assert lines[1] == "Draw a line,0,1,0,0,0,0"
