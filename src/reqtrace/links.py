"""Derives requirement-to-class trace links and renders DOT graphs.

Links come straight from the binarized context: the classes linked to a
requirement are exactly the set bits of its row mask.  The AOC-poset
contributes only the lattice drawing; it never adds or removes links.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from itertools import chain

from .fca import AOCPoset, FormalContext, names_of

__all__ = [
    "TraceLinkSet",
    "assemble_links",
    "emit_dot_poset",
    "emit_dot_tracelinks",
    "links_to_json",
    "links_from_json",
    "class_lists",
]

_UNSAFE = re.compile(r"[^0-9A-Za-z_]")


@dataclass(frozen=True)
class TraceLinkSet:
    links: dict[str, tuple[str, ...]]  # requirement -> linked classes
    unlinked_classes: tuple[str, ...]
    unlinked_requirements: tuple[str, ...]

    def class_names(self) -> list[str]:
        """Every known class, linked first (in requirement order), then unlinked."""
        return list(dict.fromkeys(chain(*self.links.values(), self.unlinked_classes)))


def assemble_links(poset: AOCPoset, ctx: FormalContext) -> TraceLinkSet:
    """Read links off the context rows.  `poset` is not read; the signature
    stays because the benchmark's frozen replay calls it."""
    linked = 0
    for row in ctx.rows:
        linked |= row
    unlinked = ~linked & ((1 << len(ctx.attributes)) - 1)
    *rows, unlinked_classes = names_of([*ctx.rows, unlinked], ctx.attributes)
    links = dict(zip(ctx.objects, rows))
    return TraceLinkSet(
        links=links,
        unlinked_classes=unlinked_classes,
        unlinked_requirements=tuple(
            obj for obj, classes in links.items() if not classes
        ),
    )


def _quote(label: str) -> str:
    return '"' + label.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _identifier_map(names: list[str], prefix: str) -> dict[str, str]:
    """Sanitized, collision-free DOT identifiers, stable in input order."""
    mapping: dict[str, str] = {}
    used = set()
    serials: dict[str, int] = {}  # base -> first serial not yet tried
    for name in names:
        base = prefix + (_UNSAFE.sub("_", name) or "x")
        candidate = base
        serial = serials.get(base, 2)
        while candidate in used:
            candidate = f"{base}_{serial}"
            serial += 1
        serials[base] = serial
        used.add(candidate)
        mapping[name] = candidate
    return mapping


def emit_dot_poset(poset: AOCPoset) -> str:
    """Render the AOC-poset as a DOT digraph, one node per concept.

    Node labels carry the concept number and its introduced objects and
    attributes; edges point from sub-concept to super-concept.
    """
    lines = ["digraph aoc_poset {", "  rankdir=BT;"]
    lines.append('  node [shape=box, fontname="Helvetica"];')
    for number, concept in enumerate(poset.concepts):
        label = "\\n".join(
            [
                f"Concept_{number}",
                "objects: " + (", ".join(concept.introduced_objects) or "-"),
                "attributes: " + (", ".join(concept.introduced_attributes) or "-"),
            ]
        )
        lines.append(f"  c{number} [label={_quote(label)}];")
    for sub, super_ in poset.edges:
        lines.append(f"  c{sub} -> c{super_};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def emit_dot_tracelinks(tls: TraceLinkSet) -> str:
    """Render links as a bipartite digraph: requirement boxes, class ellipses."""
    requirements = list(tls.links.keys())
    classes = tls.class_names()
    req_ids = _identifier_map(requirements, "r_")
    class_ids = _identifier_map(classes, "c_")
    lines = ["digraph trace_links {", "  rankdir=LR;"]
    for name in requirements:
        lines.append(f"  {req_ids[name]} [label={_quote(name)}, shape=box];")
    for name in classes:
        lines.append(f"  {class_ids[name]} [label={_quote(name)}, shape=ellipse];")
    for name in requirements:
        for target in tls.links[name]:
            lines.append(f"  {req_ids[name]} -> {class_ids[target]};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def links_to_json(tls: TraceLinkSet) -> str:
    payload = {
        "links": {req: list(classes) for req, classes in tls.links.items()},
        "unlinked_classes": list(tls.unlinked_classes),
        "unlinked_requirements": list(tls.unlinked_requirements),
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def class_lists(payload: object) -> dict[str, tuple[str, ...]]:
    """Check decoded JSON that maps each requirement to a list of class
    names, and return it with tuples; ValueError on any other shape or name."""
    if not isinstance(payload, dict):
        raise ValueError("expected a JSON object of class-name lists")
    for req, names in payload.items():
        if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
            raise ValueError(f"entry for {req!r} must be a list of class names")
        for name in (req, *names):
            name.encode("utf-8")  # no output could hold a lone surrogate
    return {req: tuple(names) for req, names in payload.items()}


def links_from_json(text: str) -> TraceLinkSet:
    """Read `links_to_json` output; ValueError if the text is not of its shape."""
    payload = json.loads(text)
    if not isinstance(payload, dict):
        raise ValueError('expected a JSON object with a "links" field')
    keys = ("unlinked_classes", "unlinked_requirements")
    unlinked = class_lists({key: payload.get(key, []) for key in keys})
    return TraceLinkSet(
        links=class_lists(payload.get("links")),
        unlinked_classes=unlinked["unlinked_classes"],
        unlinked_requirements=unlinked["unlinked_requirements"],
    )
