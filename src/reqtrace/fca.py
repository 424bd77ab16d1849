"""Formal concept analysis: contexts, closed concepts, and the AOC-poset.

A formal context relates objects to attributes through a boolean incidence
table.  Concepts are the closed (extent, intent) pairs; the AOC-poset keeps
only object-introducing and attribute-introducing concepts, labels each
object and attribute at exactly one concept, and orders the kept concepts
by extent inclusion with transitively reduced edges.

The AOC-poset is built from the object and attribute concepts alone, the
closures of single rows and columns, so the full lattice is never needed.
`enumerate_concepts` lists every concept by lectic (NextClosure)
iteration over attribute sets; it is the reference the AOC path is tested
against.  Concept lists come in a fixed order: decreasing extent size, ties
broken by the extent's object names.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .lsi import SIMILARITY_DECIMALS, SimilarityMatrix, format_similarity

__all__ = [
    "FormalContext",
    "FormalConcept",
    "AOCConcept",
    "AOCPoset",
    "binarize",
    "enumerate_concepts",
    "aoc_concepts",
    "build_aoc_poset",
    "export_context_csv",
]


@dataclass(frozen=True)
class FormalContext:
    objects: tuple[str, ...]
    attributes: tuple[str, ...]
    incidence: tuple[tuple[bool, ...], ...]  # objects x attributes

    def __post_init__(self):
        if len(set(self.objects)) != len(self.objects):
            raise ParameterError("duplicate object names in context")
        if len(set(self.attributes)) != len(self.attributes):
            raise ParameterError("duplicate attribute names in context")
        for row in self.incidence:
            if len(row) != len(self.attributes):
                raise ParameterError("incidence row width mismatch")
        if len(self.incidence) != len(self.objects):
            raise ParameterError("incidence row count mismatch")


@dataclass(frozen=True)
class FormalConcept:
    """A closed pair: extent'' = extent, with names kept in context order."""

    extent: tuple[str, ...]
    intent: tuple[str, ...]


@dataclass(frozen=True)
class AOCConcept:
    extent: tuple[str, ...]
    intent: tuple[str, ...]
    introduced_objects: tuple[str, ...]
    introduced_attributes: tuple[str, ...]


@dataclass(frozen=True)
class AOCPoset:
    """Kept concepts in deterministic order plus covering edges.

    Each edge (sub, super) pairs positions in `concepts` where the
    sub-concept's extent is strictly contained in the super-concept's and
    no kept concept lies strictly between.
    """

    concepts: tuple[AOCConcept, ...]
    edges: tuple[tuple[int, int], ...]


class _Masks:
    """Bitmask view of a context: rows over attributes, columns over objects."""

    def __init__(self, ctx: FormalContext):
        self.n_objects = len(ctx.objects)
        self.n_attributes = len(ctx.attributes)
        self.full_objects = (1 << self.n_objects) - 1
        self.full_attributes = (1 << self.n_attributes) - 1
        self.rows = [0] * self.n_objects
        self.cols = [0] * self.n_attributes
        for o, row in enumerate(ctx.incidence):
            for a, marked in enumerate(row):
                if marked:
                    self.rows[o] |= 1 << a
                    self.cols[a] |= 1 << o

    def intent_of(self, object_mask: int) -> int:
        result = self.full_attributes
        remaining = object_mask
        while remaining:
            low = remaining & -remaining
            result &= self.rows[low.bit_length() - 1]
            remaining ^= low
        return result

    def extent_of(self, attribute_mask: int) -> int:
        result = self.full_objects
        remaining = attribute_mask
        while remaining:
            low = remaining & -remaining
            result &= self.cols[low.bit_length() - 1]
            remaining ^= low
        return result


def _mask_names(mask: int, names: tuple[str, ...]) -> tuple[str, ...]:
    """The names of the set bits, in index order; visits only those bits."""
    picked = []
    while mask:
        low = mask & -mask
        picked.append(names[low.bit_length() - 1])
        mask ^= low
    return tuple(picked)


def binarize(csm: SimilarityMatrix, threshold: float) -> FormalContext:
    """Threshold a similarity matrix into an incidence relation (>= keeps).

    Each cosine is compared as csm.csv shows it, rounded to
    `SIMILARITY_DECIMALS` places, so the context agrees with the printed
    scores and cosines that differ only by rounding noise (the SVD and the
    count-vector paths at full rank) give the same context.
    """
    if not -1.0 <= threshold <= 1.0:
        raise ParameterError(f"threshold {threshold} outside [-1, 1]")
    values = csm.values
    keep = values >= threshold
    # Rounding moves a value by at most half a unit in the last shown place,
    # so only cells within one unit of the threshold can change side.
    near = np.abs(values - threshold) < 10.0**-SIMILARITY_DECIMALS
    for i, j in zip(*near.nonzero()):
        keep[i, j] = float(format_similarity(values[i, j])) >= threshold
    incidence = tuple(map(tuple, keep.tolist()))
    return FormalContext(
        objects=csm.query_names, attributes=csm.doc_names, incidence=incidence
    )


def _sorted_concepts(pairs, ctx: FormalContext) -> list[FormalConcept]:
    concepts = [
        FormalConcept(
            extent=_mask_names(extent, ctx.objects),
            intent=_mask_names(intent, ctx.attributes),
        )
        for extent, intent in pairs
    ]
    concepts.sort(key=lambda c: (-len(c.extent), c.extent))
    return concepts


def _closures_by_next_closure(masks: _Masks) -> set[tuple[int, int]]:
    """Lectic iteration over closed attribute sets."""
    m = masks.n_attributes

    def close(attribute_mask: int) -> int:
        return masks.intent_of(masks.extent_of(attribute_mask))

    pairs = set()
    current = close(0)
    while True:
        pairs.add((masks.extent_of(current), current))
        nxt = None
        for i in range(m - 1, -1, -1):
            bit = 1 << i
            if current & bit:
                current &= ~bit
            else:
                candidate = close(current | bit)
                if candidate & ~current & (bit - 1) == 0:
                    nxt = candidate
                    break
        if nxt is None:
            return pairs
        current = nxt


def enumerate_concepts(ctx: FormalContext) -> list[FormalConcept]:
    """All closed (extent, intent) pairs in deterministic order."""
    return _sorted_concepts(_closures_by_next_closure(_Masks(ctx)), ctx)


def aoc_concepts(ctx: FormalContext) -> list[FormalConcept]:
    """The object and attribute concepts, in `enumerate_concepts` order.

    These are the closures of single rows and single columns, deduplicated
    by extent: exactly the concepts an AOC-poset keeps.
    """
    masks = _Masks(ctx)
    extents = {masks.extent_of(row) for row in masks.rows} | set(masks.cols)
    return _sorted_concepts(((e, masks.intent_of(e)) for e in extents), ctx)


def build_aoc_poset(concepts: list[FormalConcept], ctx: FormalContext) -> AOCPoset:
    """Reduce a concept list to its AOC-poset with reduced labels.

    The list must come in `enumerate_concepts` order and contain every
    object and attribute concept of `ctx`: `aoc_concepts(ctx)` or the
    complete set both qualify.  Other concepts are dropped and the kept
    ones keep their list order.
    Object o is introduced at the concept its row generates; attribute a at
    the concept its column generates.  An object with an empty row lands on
    the top concept, an attribute with an empty column on the bottom one.
    """
    masks = _Masks(ctx)
    bit = {name: 1 << o for o, name in enumerate(ctx.objects)}
    extents = [sum(bit[name] for name in c.extent) for c in concepts]
    by_extent = {extent: position for position, extent in enumerate(extents)}

    def locate(extent_mask: int) -> int:
        try:
            return by_extent[extent_mask]
        except KeyError:
            raise ParameterError(
                "concept list lacks an object or attribute concept of the context"
            ) from None

    introduced: dict[int, tuple[list[str], list[str]]] = {}
    for o, name in enumerate(ctx.objects):
        position = locate(masks.extent_of(masks.rows[o]))
        introduced.setdefault(position, ([], []))[0].append(name)
    for a, name in enumerate(ctx.attributes):
        position = locate(masks.cols[a])
        introduced.setdefault(position, ([], []))[1].append(name)

    kept_positions = sorted(introduced)
    aoc = tuple(
        AOCConcept(
            extent=concepts[p].extent,
            intent=concepts[p].intent,
            introduced_objects=tuple(introduced[p][0]),
            introduced_attributes=tuple(introduced[p][1]),
        )
        for p in kept_positions
    )

    # Kept extents are distinct and come in decreasing size, so walking back
    # from i visits the larger extents in increasing size: a superset is a
    # cover unless it contains a cover found before it.
    kept_extents = [extents[p] for p in kept_positions]
    edges = []
    for i, extent in enumerate(kept_extents):
        covers = []
        for j in range(i - 1, -1, -1):
            larger = kept_extents[j]
            if extent & larger == extent and all(
                kept_extents[c] & larger != kept_extents[c] for c in covers
            ):
                covers.append(j)
        edges.extend((i, j) for j in sorted(covers))
    return AOCPoset(concepts=aoc, edges=tuple(edges))


def export_context_csv(ctx: FormalContext) -> str:
    """CSV with attribute names across the top and object names down the side."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["", *ctx.attributes])
    for name, row in zip(ctx.objects, ctx.incidence):
        writer.writerow([name, *(int(v) for v in row)])
    return buffer.getvalue()

