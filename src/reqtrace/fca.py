"""Formal concept analysis: contexts, closed concepts, and the AOC-poset.

A formal context holds one bitmask per object, its attributes, so extents
and intents are big-int ANDs.  Concepts are the closed (extent, intent)
pairs; the AOC-poset keeps only object-introducing and attribute-introducing
concepts, labels each object and attribute at exactly one concept, and
orders the kept concepts by extent inclusion with transitively reduced edges.
An AOC concept is its extent plus those labels; its intent, where a reader
needs it, is the AND of the extent's rows.

`aoc_poset` is the one builder.  It works on masks from the object and
attribute concepts alone, the closures of single rows and columns, so the
full lattice is never needed; its covering edges are peeled off superset
masks in O(sum of extent sizes + edges) big-int operations, and names are
made once at the end, in one batch per list of masks (`names_of`).
`enumerate_concepts` lists every concept from its intents, which are the
intersections of object rows.  Concept lists come in a fixed order:
decreasing extent size, ties broken by the extent's object names.
`build_aoc_poset` checks a concept list against `aoc_poset` and returns it;
only the benchmark's traced replay, which passes the full lattice, still
calls it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import ParameterError
from .lsi import (
    SIMILARITY_DECIMALS,
    SimilarityMatrix,
    csv_lines,
    format_similarity,
)

__all__ = [
    "FormalContext",
    "FormalConcept",
    "AOCConcept",
    "AOCPoset",
    "check_threshold",
    "binarize",
    "names_of",
    "enumerate_concepts",
    "aoc_poset",
    "build_aoc_poset",
    "export_context_csv",
]


@dataclass(frozen=True)
class FormalContext:
    """Bit a of `rows[o]` is set when object o has attribute a."""

    objects: tuple[str, ...]
    attributes: tuple[str, ...]
    rows: tuple[int, ...]

    def __post_init__(self):
        if len(set(self.objects)) != len(self.objects):
            raise ParameterError("duplicate object names in context")
        if len(set(self.attributes)) != len(self.attributes):
            raise ParameterError("duplicate attribute names in context")
        if len(self.rows) != len(self.objects):
            raise ParameterError("incidence row count mismatch")
        limit = 1 << len(self.attributes)
        if not all(0 <= row < limit for row in self.rows):
            raise ParameterError("incidence row width mismatch")

    @property
    def incidence(self) -> tuple[tuple[bool, ...], ...]:
        """The rows as booleans, objects x attributes, built on each access."""
        table = _unpack(self.rows, len(self.attributes)).astype(bool)
        return tuple(map(tuple, table.tolist()))


@dataclass(frozen=True)
class FormalConcept:
    """A closed pair: extent'' = extent, with names kept in context order."""

    extent: tuple[str, ...]
    intent: tuple[str, ...]


@dataclass(frozen=True)
class AOCConcept:
    extent: tuple[str, ...]
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
    """Column view of a context: one mask over the objects per attribute."""

    def __init__(self, ctx: FormalContext):
        self.full_objects = (1 << len(ctx.objects)) - 1
        self.cols = _pack(_unpack(ctx.rows, len(ctx.attributes)).T)

    def extent_of(self, attribute_mask: int) -> int:
        result = self.full_objects
        remaining = attribute_mask
        while remaining:
            low = remaining & -remaining
            result &= self.cols[low.bit_length() - 1]
            remaining ^= low
        return result


def _indices(mask: int):
    """The positions of the set bits, lowest first; visits only those bits."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _pack(matrix: np.ndarray) -> list[int]:
    """One mask per row of a 2-d 0/1 matrix: bit j is the row's column j."""
    packed = np.packbits(matrix, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def _unpack(masks, width: int) -> np.ndarray:
    """The inverse of `_pack`: a len(masks) x width uint8 matrix of 0/1."""
    size = (width + 7) // 8
    data = b"".join(mask.to_bytes(size, "little") for mask in masks)
    packed = np.frombuffer(data, dtype=np.uint8).reshape(len(masks), size)
    return np.unpackbits(packed, axis=1, count=width, bitorder="little")


def names_of(masks, names: tuple[str, ...]) -> list[tuple[str, ...]]:
    """For each mask, the names at its set bits in index order; one unpack
    and one `np.nonzero` serve the whole list."""
    table = _unpack(masks, len(names))
    picked = [names[i] for i in np.nonzero(table)[1].tolist()]
    ends = np.cumsum(np.count_nonzero(table, axis=1)).tolist()
    return [tuple(picked[start:end]) for start, end in zip([0, *ends], ends)]


def check_threshold(threshold: float) -> None:
    """Refuse a threshold outside [-1, 1], the range of a cosine, or NaN."""
    if not -1.0 <= threshold <= 1.0:
        raise ParameterError(f"threshold {threshold} outside [-1, 1]")


def binarize(csm: SimilarityMatrix, threshold: float) -> FormalContext:
    """Threshold a similarity matrix into a context (>= keeps).

    Each cosine is compared as csm.csv shows it, rounded to
    `SIMILARITY_DECIMALS` places, so the context agrees with the printed
    scores and cosines that differ only by rounding noise (the SVD and the
    count-vector paths at full rank) give the same context.
    """
    check_threshold(threshold)
    values = csm.values
    keep = values >= threshold
    # Rounding moves a value by at most half a unit in the last shown place,
    # so only cells within one unit of the threshold can change side.
    near = np.abs(values - threshold) < 10.0**-SIMILARITY_DECIMALS
    for i, j in zip(*near.nonzero()):
        keep[i, j] = float(format_similarity(values[i, j])) >= threshold
    return FormalContext(
        objects=csm.query_names, attributes=csm.doc_names, rows=tuple(_pack(keep))
    )


def _concept_order(extent: tuple[str, ...]) -> tuple[int, tuple[str, ...]]:
    """The sort key of every concept list: larger extents first, ties by names."""
    return -len(extent), extent


def _sorted_concepts(pairs, ctx: FormalContext) -> list[FormalConcept]:
    extents, intents = zip(*pairs)
    named = map(
        FormalConcept, names_of(extents, ctx.objects), names_of(intents, ctx.attributes)
    )
    return sorted(named, key=lambda c: _concept_order(c.extent))


def enumerate_concepts(ctx: FormalContext) -> list[FormalConcept]:
    """All closed (extent, intent) pairs in deterministic order.

    The intents are exactly the intersections of object rows, the empty
    intersection being every attribute (Ganter & Wille, Formal Concept
    Analysis, 1999), so one pass over the rows collects them all.
    """
    masks = _Masks(ctx)
    intents = {(1 << len(ctx.attributes)) - 1}
    for row in ctx.rows:
        intents |= {intent & row for intent in intents}
    return _sorted_concepts(((masks.extent_of(i), i) for i in intents), ctx)


def aoc_poset(ctx: FormalContext) -> AOCPoset:
    """The AOC-poset of `ctx`, its concepts in `enumerate_concepts` order.

    Object o is introduced at the concept its row generates, whose extent is
    the objects holding the whole row; attribute a at the concept its column
    generates, whose extent is the column.  These extents are exactly the
    kept concepts.  An object with an empty row lands on the top concept, an
    attribute with an empty column on the bottom one.
    """
    masks = _Masks(ctx)
    object_extents = [masks.extent_of(row) for row in ctx.rows]
    distinct = list(dict.fromkeys(object_extents + masks.cols))
    extent_names = dict(zip(distinct, names_of(distinct, ctx.objects)))
    introduced = {
        extent: ([], [])
        for extent in sorted(distinct, key=lambda e: _concept_order(extent_names[e]))
    }
    for name, extent in zip(ctx.objects, object_extents):
        introduced[extent][0].append(name)
    for name, extent in zip(ctx.attributes, masks.cols):
        introduced[extent][1].append(name)
    extents = list(introduced)
    concepts = tuple(
        AOCConcept(extent_names[extent], tuple(objects), tuple(attributes))
        for extent, (objects, attributes) in introduced.items()
    )

    # Bit i of holders[o] is set when extent i holds object o.
    holders = _pack(_unpack(extents, len(ctx.objects)).T)
    # The extents are distinct and come in decreasing size, so the strict
    # supersets of extent i sit before i and are the positions that hold all
    # of its objects.  The highest of them is a smallest one, hence a cover;
    # peeling it with its own supersets leaves the supersets not above it.
    edges = []
    at_or_above = []
    for i, extent in enumerate(extents):
        above = (1 << i) - 1
        for o in _indices(extent):
            above &= holders[o]
        at_or_above.append(above | 1 << i)
        covers = []
        while above:
            j = above.bit_length() - 1
            covers.append(j)
            above &= ~at_or_above[j]
        edges.extend((i, j) for j in reversed(covers))
    return AOCPoset(concepts=concepts, edges=tuple(edges))


def build_aoc_poset(concepts: list[FormalConcept], ctx: FormalContext) -> AOCPoset:
    """`aoc_poset(ctx)`, once `concepts` is checked to hold each of its concepts.

    Only the benchmark's traced replay calls this, with the full lattice.
    """
    poset = aoc_poset(ctx)
    listed = {concept.extent for concept in concepts}
    if not all(concept.extent in listed for concept in poset.concepts):
        raise ParameterError(
            "concept list lacks an object or attribute concept of the context"
        )
    return poset


def export_context_csv(ctx: FormalContext) -> Iterator[bytes]:
    """CSV lines (`csv_lines`) with attribute names across the top and
    object names down the side."""
    return csv_lines(_context_rows(ctx))


def _context_rows(ctx: FormalContext) -> Iterator[list]:
    yield ["", *ctx.attributes]
    table = _unpack(ctx.rows, len(ctx.attributes))
    for name, row in zip(ctx.objects, table):
        yield [name, *row.tolist()]
