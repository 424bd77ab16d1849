"""Structural facts extracted from object-oriented source code.

The model mirrors what a class document needs: packages, classes, members,
comments, and the three code relations (inheritance, attribute access,
method invocation).  Facts are immutable slotted records and travel as a
small XML format; `save_facts_xml` emits a canonical byte form that
`load_facts_xml` reads back to an equal value.  The parser and the reader
make a record per item, so each sets its slots directly (`_slot_init`).

Neither end copies the whole document into another form.  The writer
encodes each class on its own (`class_xml`), and `xml_chunks` puts the
encoded classes between the package and document tags as a list of chunks,
which a caller can write one after another: `save_facts_xml` joins them
once, and `extract` writes them to its file unjoined, having encoded each
class as soon as the parser kept it.  The reader (`read_facts_xml`) is the
target of ElementTree's own parser, so it accepts and rejects what a walk
over the ElementTree of the document would, with the same message for one fault, but
builds no element tree.  It hands each class to the caller's `per_class`
as the class closes, and keeps only the class's name and the value
returned: `trace --facts` keeps document texts, and `load_facts_xml`,
which keeps the records themselves, is one call of it.  The schema is one
table, `_CONTAINERS`: for each container, the child tags it may hold, the
message for any other, and how its record is made.  The reader keeps one
frame per open container, with a list of records per allowed child tag,
and makes the container's record from it when the container closes; a
leaf is read from its start tag.  The parser is fed the document in 64 KiB
slices, because its memory grows with what one `feed` call hands it: on a
1.1 MB document, fed whole, it peaked at 5.5 times the document size under
tracemalloc, and in slices at 3.8 times.

The reader checks the schema and the model invariants of `validate_facts`
as it goes: a package's name when the package opens, a class's name and
`validate_class` when the class closes.  A document is refused with its
first fault, in document order, whether that is malformed XML, a schema
error or a broken invariant: the reader raises a fault where it finds it,
and the parser stops there.
"""

from __future__ import annotations

import re
import time
from collections import Counter
from dataclasses import dataclass, fields
from typing import Callable, Iterable, TypeVar
from xml.etree.ElementTree import ParseError, XMLParser

from .errors import XmlParseError, XmlSchemaError

__all__ = [
    "CommentFact", "AttributeFact", "MethodFact", "ClassFact", "PackageFact",
    "CodeFacts", "METRICS", "validate_facts", "validate_class",
    "read_facts_xml", "load_facts_xml", "save_facts_xml", "class_xml", "xml_chunks",
    "class_metrics",
]

T = TypeVar("T")

COMMENT_KINDS = ("class-level", "method-level")


def _slot_init(cls: type) -> type:
    """Give the frozen slotted dataclass `cls` an `__init__` of the same
    signature that sets each slot through its member descriptor, not by
    name through `object.__setattr__`: 0.7 µs for a `MethodFact`, not 1.3."""
    names = [field.name for field in fields(cls)]
    namespace = {f"set_{name}": getattr(cls, name).__set__ for name in names}
    body = "".join(f"\n set_{name}(self, {name})" for name in names)
    exec(f"def __init__(self, {', '.join(names)}):{body}", namespace)
    namespace["__init__"].__defaults__ = cls.__init__.__defaults__
    cls.__init__ = namespace["__init__"]
    return cls


@_slot_init
@dataclass(frozen=True, slots=True)
class CommentFact:
    text: str
    kind: str  # one of COMMENT_KINDS


@_slot_init
@dataclass(frozen=True, slots=True)
class AttributeFact:
    name: str
    declared_type: str


@_slot_init
@dataclass(frozen=True, slots=True)
class MethodFact:
    name: str
    parameters: tuple[tuple[str, str], ...] = ()  # (name, declared_type)
    local_variables: tuple[tuple[str, str], ...] = ()
    comments: tuple[CommentFact, ...] = ()
    attribute_accesses: tuple[str, ...] = ()
    method_invocations: tuple[str, ...] = ()


@_slot_init
@dataclass(frozen=True, slots=True)
class ClassFact:
    name: str
    superclass: str | None = None
    attributes: tuple[AttributeFact, ...] = ()
    methods: tuple[MethodFact, ...] = ()
    comments: tuple[CommentFact, ...] = ()


@_slot_init
@dataclass(frozen=True, slots=True)
class PackageFact:
    name: str
    classes: tuple[ClassFact, ...] = ()


@dataclass(frozen=True, slots=True)
class CodeFacts:
    packages: tuple[PackageFact, ...] = ()
    provenance: str = ""


def validate_facts(facts: CodeFacts) -> None:
    """Raise XmlSchemaError on the first model-invariant violation."""
    packages: set[str] = set()
    for package in facts.packages:
        _check_unique(package.name, packages, "package")
        classes: set[str] = set()
        for cls in package.classes:
            _check_unique(cls.name, classes, "class")
            validate_class(cls)


def _check_unique(name: str, seen: set[str], tag: str) -> None:
    """Add `name` to the names `seen` of the `tag` elements of one container;
    raise XmlSchemaError if it is there already."""
    if name in seen:
        raise XmlSchemaError(f"duplicate {tag} name {name!r}", tag)
    seen.add(name)


def validate_class(cls: ClassFact) -> None:
    """Raise XmlSchemaError on a violation inside one class; the package
    checks that no two of its classes share a name."""
    if not cls.name:
        raise XmlSchemaError("class with empty name", "class")
    seen_attrs = set()
    for attribute in cls.attributes:
        if not attribute.name:
            raise XmlSchemaError("attribute with empty name", "attribute")
        if attribute.name in seen_attrs:
            raise XmlSchemaError(
                f"duplicate attribute {attribute.name!r} in class {cls.name!r}",
                "attribute",
            )
        seen_attrs.add(attribute.name)
    seen_sigs = set()
    for method in cls.methods:
        signature = (method.name, len(method.parameters))
        if signature in seen_sigs:
            raise XmlSchemaError(
                f"duplicate method signature {method.name!r}/{len(method.parameters)}"
                f" in class {cls.name!r}",
                "method",
            )
        seen_sigs.add(signature)
        seen_params = set()
        for name, _ in method.parameters:
            if name in seen_params:
                raise XmlSchemaError(
                    f"duplicate parameter {name!r} in method {method.name!r}", "param"
                )
            seen_params.add(name)
        for comment in method.comments:
            _validate_comment(comment)
    for comment in cls.comments:
        _validate_comment(comment)


def _validate_comment(comment: CommentFact) -> None:
    if not comment.text.strip():
        raise XmlSchemaError("comment with empty text", "comment")
    if comment.kind not in COMMENT_KINDS:
        raise XmlSchemaError(f"unknown comment kind {comment.kind!r}", "comment")


# --- XML writing ---------------------------------------------------------

# The characters that `_quote` and `_escape` rewrite.  Most names and
# comments contain none, so they are quoted with no `replace` at all.
_ATTR_SPECIAL = re.compile(r'[&<>"\n\r\t]')
_TEXT_SPECIAL = re.compile(r"[&<>]")


def _quote(value: str) -> str:
    """Equal to `xml.sax.saxutils.quoteattr(value)`.

    The value is escaped as by `_escape`, with newline, carriage return and
    tab as character references.  It is quoted with `'` if it holds `"` but
    no `'`, else with `"`, and then any `"` in it becomes `&quot;`.
    """
    # most names are identifiers: nothing to escape, and no search
    if value.isidentifier() or not _ATTR_SPECIAL.search(value):
        return '"' + value + '"'
    value = _escape(value).replace("\n", "&#10;").replace("\r", "&#13;")
    value = value.replace("\t", "&#9;")
    if '"' not in value:
        return '"' + value + '"'
    if "'" not in value:
        return "'" + value + "'"
    return '"' + value.replace('"', "&quot;") + '"'


def _escape(text: str) -> str:
    """Equal to `xml.sax.saxutils.escape(text)`: `&`, then `>` and `<`."""
    if _TEXT_SPECIAL.search(text):
        return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")
    return text


def save_facts_xml(facts: CodeFacts) -> bytes:
    """Serialize to canonical XML: fixed element order, 2-space indent, UTF-8."""
    validate_facts(facts)
    packages = ((p.name, map(class_xml, p.classes)) for p in facts.packages)
    return b"".join(xml_chunks(facts.provenance, packages))


def xml_chunks(
    provenance: str, packages: Iterable[tuple[str, Iterable[bytes]]]
) -> list[bytes]:
    """The document of `packages`, each a name and its classes encoded by
    `class_xml`, as a list of chunks whose concatenation is the XML."""
    chunks = [
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f"<codefacts provenance={_quote(provenance)}>\n".encode("utf-8")
    ]
    for name, classes in packages:
        chunks.append(f"  <package name={_quote(name)}>\n".encode("utf-8"))
        chunks += classes
        chunks.append(b"  </package>\n")
    chunks.append(b"</codefacts>\n")
    return chunks


def class_xml(cls: ClassFact) -> bytes:
    """The UTF-8 lines of one class element, each ending in a newline."""
    return ("\n".join(_class_lines(cls)) + "\n").encode("utf-8")


def _class_lines(cls: ClassFact) -> list[str]:
    superclass = ""
    if cls.superclass is not None:
        superclass = f" superclass={_quote(cls.superclass)}"
    lines = [f"    <class name={_quote(cls.name)}{superclass}>"]
    lines += ["      " + _comment_line(comment) for comment in cls.comments]
    lines += [
        f"      <attribute name={_quote(a.name)} type={_quote(a.declared_type)}/>"
        for a in cls.attributes
    ]
    for method in cls.methods:
        lines += _method_lines(method)
    lines.append("    </class>")
    return lines


def _method_lines(method: MethodFact) -> list[str]:
    children = []
    for name, declared_type in method.parameters:
        children.append(f"<param name={_quote(name)} type={_quote(declared_type)}/>")
    for name, declared_type in method.local_variables:
        children.append(f"<local name={_quote(name)} type={_quote(declared_type)}/>")
    for name in method.attribute_accesses:
        children.append(f"<access name={_quote(name)}/>")
    for name in method.method_invocations:
        children.append(f"<invoke name={_quote(name)}/>")
    for comment in method.comments:
        children.append(_comment_line(comment))
    if not children:
        return [f"      <method name={_quote(method.name)}/>"]
    lines = [f"      <method name={_quote(method.name)}>"]
    lines.extend("        " + child for child in children)
    lines.append("      </method>")
    return lines


def _comment_line(comment: CommentFact) -> str:
    return f"<comment kind={_quote(comment.kind)}>{_escape(comment.text)}</comment>"


# --- XML reading ---------------------------------------------------------

# How much of the document `_Reader.read` feeds the parser at a time
_SLICE = 64 * 1024

# The schema, stated once.  For each container: the child tags it may hold,
# in the order its record takes their tuples; the message for any other
# child; and its record, made from its attributes and those tuples when it
# closes.  A class's record goes to `per_class`, and its package keeps the
# class's name and the value returned.  Every container below the root
# needs a `name` attribute.  The document ("") holds the root.  Every other
# tag is a leaf.
_CONTAINERS = {
    "": (("codefacts",), "root element must be <codefacts>", None),
    "codefacts": (
        ("package",),
        "expected <package>",
        lambda attrs, packages: (attrs.get("provenance", ""), dict(packages)),
    ),
    "package": (
        ("class",),
        "expected <class>",
        lambda attrs, classes: (attrs["name"], classes),
    ),
    "class": (
        ("attribute", "method", "comment"),
        "unexpected element inside <class>",
        lambda attrs, *lists: ClassFact(attrs["name"], attrs.get("superclass"), *lists),
    ),
    "method": (
        ("param", "local", "comment", "access", "invoke"),
        "unexpected element inside <method>",
        lambda attrs, *lists: MethodFact(attrs["name"], *lists),
    ),
}


def read_facts_xml(
    data: bytes, per_class: Callable[[str, ClassFact], T]
) -> tuple[str, dict[str, tuple[tuple[str, T], ...]], float]:
    """Read a code-facts document class by class, and return (provenance,
    packages, `per_class` seconds): each package name, in document order,
    maps to its classes in order, each its name and `per_class(package,
    class)`.  Each class is checked (`validate_class`, and its name against
    its package's other classes) before `per_class` sees it, and no class's
    record is kept.

    Raise the document's first fault, in document order: a well-formedness
    error, a schema error, or a model-invariant violation.
    """
    reader = _Reader(per_class)
    provenance, packages = reader.read(data)
    return provenance, packages, reader.seconds


def load_facts_xml(data: bytes) -> CodeFacts:
    """The facts of a code-facts document: `read_facts_xml` with each
    class's record kept, so it raises what that function raises."""
    provenance, packages, _ = read_facts_xml(data, _record)
    return CodeFacts(
        tuple(
            PackageFact(name, tuple(cls for _, cls in classes))
            for name, classes in packages.items()
        ),
        provenance,
    )


def _record(package: str, cls: ClassFact) -> ClassFact:
    return cls


class _Reader:
    """Reads one document as the target of ElementTree's parser, with one
    frame per open container, and hands each class to `per_class`.

    A frame holds a container's tag, its attributes and, for each child tag
    that `_CONTAINERS` allows it, the records read so far.  A container's
    record is made from its frame when it closes, and added to its parent's
    frame; a class's record is checked and handed to `per_class` there, in
    `end`, and its package keeps only the class's name and the value
    returned.  A leaf is read from its start tag, and one count skips all it
    holds.

    Each check runs at the event that completes what it checks, and raises
    there: tags, comment kinds and leaf names at start tags; a package's
    name against the earlier packages when it opens; the names of
    containers at their end tags, after their children; and, when a class
    closes, its name against its package's earlier classes and then
    `validate_class`.  The parser passes what a target raises out of `feed`
    and stops, and it reports malformed XML only where it reaches it, so
    the first fault raised is the first in the document.

    The parser hands each run of character data to `text.append` itself,
    with no Python call in between, and every start tag empties `text`.  So
    at a comment's first child or end tag, `text` holds the character data
    before its first child: the comment's text.  (A `data` method would be
    called for every run of indentation, at about 5% of the load time.)
    """

    def __init__(self, per_class: Callable[[str, ClassFact], T]) -> None:
        self.per_class = per_class
        self.seconds = 0.0  # spent in `per_class`
        self.packages: set[str] = set()
        self.classes: set[str] = set()  # of the open package
        self.frames = [("", {}, {"codefacts": []})]
        self.skip = 0  # open elements inside or at a leaf
        self.text: list[str] = []
        self.data = self.text.append
        # the records and kind of the comment whose text is being read (not
        # `comment`: the parser would call a target's `comment` on <!-- -->)
        self.pending: tuple[list[CommentFact], str] | None = None

    def read(self, data: bytes) -> tuple[str, dict[str, tuple[tuple[str, T], ...]]]:
        """Parse `data`; raise its first fault."""
        parser = XMLParser(target=self)
        try:
            for at in range(0, len(data), _SLICE):
                parser.feed(data[at : at + _SLICE])
            parser.close()
        except ParseError as exc:
            raise XmlParseError(str(exc), exc.position[0]) from exc
        except (LookupError, ValueError) as exc:
            # the parser decodes the encoding of the XML declaration, which
            # is on line 1, through Python's codecs: an unknown name raises
            # LookupError, a multi-byte codec ValueError
            raise XmlParseError(str(exc), 1) from exc
        return self.frames[0][2]["codefacts"][0]

    def start(self, tag: str, attrs: dict[str, str]) -> None:
        if self.pending is not None:
            self.finish_comment()
        self.text.clear()
        if self.skip:
            self.skip += 1
            return
        parent, _, lists = self.frames[-1]
        try:
            records = lists[tag]
        except KeyError:
            raise XmlSchemaError(_CONTAINERS[parent][1], tag) from None
        if tag in _CONTAINERS:
            children = _CONTAINERS[tag][0]
            self.frames.append((tag, attrs, {child: [] for child in children}))
            if tag == "package":
                # a package without a name fails the schema at its end tag
                self.classes = set()
                if "name" in attrs:
                    _check_unique(attrs["name"], self.packages, "package")
            return
        self.skip = 1
        if tag == "comment":
            kind = attrs.get("kind")
            if kind not in COMMENT_KINDS:
                message = f"comment kind must be one of {COMMENT_KINDS}"
                raise XmlSchemaError(message, tag)
            self.pending = (records, kind)
            return
        name = attrs.get("name")
        if name is None:
            raise XmlSchemaError("missing name attribute", tag)
        if tag == "attribute":
            records.append(AttributeFact(name, attrs.get("type", "")))
        elif tag in ("param", "local"):
            records.append((name, attrs.get("type", "")))
        else:  # access, invoke
            records.append(name)

    def finish_comment(self) -> None:
        records, kind = self.pending
        records.append(CommentFact("".join(self.text), kind))
        self.pending = None

    def end(self, tag: str) -> None:
        if self.skip:
            if self.pending is not None:
                self.finish_comment()
            self.skip -= 1
            return
        _, attrs, lists = self.frames.pop()
        if tag != "codefacts" and "name" not in attrs:
            raise XmlSchemaError("missing name attribute", tag)
        record = _CONTAINERS[tag][2](attrs, *map(tuple, lists.values()))
        if tag == "class":
            record = self.take_class(record)
        self.frames[-1][2][tag].append(record)

    def take_class(self, cls: ClassFact) -> tuple[str, T]:
        """`cls`'s name and `per_class` value, once `cls` is checked."""
        _check_unique(cls.name, self.classes, "class")
        validate_class(cls)
        # a package without a name fails the schema at its end tag
        package = self.frames[-1][1].get("name", "")
        start = time.perf_counter()
        value = self.per_class(package, cls)
        self.seconds += time.perf_counter() - start
        return cls.name, value


# --- metrics -------------------------------------------------------------

# The size counts of some facts, labelled and ordered as `extract` prints
# them.  "identifiers" counts every declared name (classes, attributes,
# methods, parameters, locals) and "method invocations" every call: both
# are reported because size tables in the wild label either one "NOI".
METRICS = (
    "packages (NOP)", "classes (NOC)", "attributes (NOA)", "methods (NOM)",
    "identifiers", "comments", "local variables", "method invocations",
    "attribute accesses",
)


def class_metrics(cls: ClassFact) -> Counter[str]:
    """The counts of one class under the labels of `METRICS`, packages left
    out: the counts of a set of facts add up class by class."""
    params = locals_count = comments = invocations = accesses = 0
    for method in cls.methods:
        params += len(method.parameters)
        locals_count += len(method.local_variables)
        comments += len(method.comments)
        invocations += len(method.method_invocations)
        accesses += len(method.attribute_accesses)
    noa, nom = len(cls.attributes), len(cls.methods)
    counts = (
        1, noa, nom, 1 + noa + nom + params + locals_count,
        len(cls.comments) + comments, locals_count, invocations, accesses,
    )
    return Counter(dict(zip(METRICS[1:], counts)))
