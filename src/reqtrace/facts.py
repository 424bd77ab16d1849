"""Structural facts extracted from object-oriented source code.

The model mirrors what a class document needs: packages, classes, members,
comments, and the three code relations (inheritance, attribute access,
method invocation).  Facts are immutable and travel as a small XML format;
`save_facts_xml` emits a canonical byte form that `load_facts_xml` reads
back to an equal value.
"""

from __future__ import annotations

import re
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from xml.sax.saxutils import escape, quoteattr

from .errors import XmlParseError, XmlSchemaError

__all__ = [
    "CommentFact",
    "AttributeFact",
    "MethodFact",
    "ClassFact",
    "PackageFact",
    "CodeFacts",
    "SoftwareMetrics",
    "validate_facts",
    "load_facts_xml",
    "save_facts_xml",
    "compute_metrics",
]

COMMENT_KINDS = ("class-level", "method-level")


@dataclass(frozen=True)
class CommentFact:
    text: str
    kind: str  # one of COMMENT_KINDS


@dataclass(frozen=True)
class AttributeFact:
    name: str
    declared_type: str


@dataclass(frozen=True)
class MethodFact:
    name: str
    parameters: tuple[tuple[str, str], ...] = ()  # (name, declared_type)
    local_variables: tuple[tuple[str, str], ...] = ()
    comments: tuple[CommentFact, ...] = ()
    attribute_accesses: tuple[str, ...] = ()
    method_invocations: tuple[str, ...] = ()


@dataclass(frozen=True)
class ClassFact:
    name: str
    superclass: str | None = None
    attributes: tuple[AttributeFact, ...] = ()
    methods: tuple[MethodFact, ...] = ()
    comments: tuple[CommentFact, ...] = ()


@dataclass(frozen=True)
class PackageFact:
    name: str
    classes: tuple[ClassFact, ...] = ()


@dataclass(frozen=True)
class CodeFacts:
    packages: tuple[PackageFact, ...] = ()
    provenance: str = ""


@dataclass(frozen=True)
class SoftwareMetrics:
    """Raw size counts over one CodeFacts value.

    `identifiers` counts every declared name (classes, attributes, methods,
    parameters, locals); `invocations` counts call occurrences.  Both are
    reported because size tables in the wild label either one "NOI".
    """

    nop: int
    noc: int
    noa: int
    nom: int
    identifiers: int
    comments: int
    locals: int
    invocations: int
    accesses: int


def validate_facts(facts: CodeFacts) -> None:
    """Raise XmlSchemaError on any model-invariant violation."""
    seen_packages = set()
    for package in facts.packages:
        if package.name in seen_packages:
            raise XmlSchemaError(f"duplicate package name {package.name!r}", "package")
        seen_packages.add(package.name)
        seen_classes = set()
        for cls in package.classes:
            if not cls.name:
                raise XmlSchemaError("class with empty name", "class")
            if cls.name in seen_classes:
                raise XmlSchemaError(f"duplicate class name {cls.name!r}", "class")
            seen_classes.add(cls.name)
            _validate_class(cls)


def _validate_class(cls: ClassFact) -> None:
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

# The characters that `quoteattr` and `escape` rewrite.  Most names and
# comments contain none, so they are quoted without calling saxutils.
_ATTR_SPECIAL = re.compile(r'[&<>"\n\r\t]')
_TEXT_SPECIAL = re.compile(r"[&<>]")


def _quote(value: str) -> str:
    """Equal to `saxutils.quoteattr(value)`."""
    if _ATTR_SPECIAL.search(value):
        return quoteattr(value)
    return '"' + value + '"'


def _escape(text: str) -> str:
    """Equal to `saxutils.escape(text)`."""
    if _TEXT_SPECIAL.search(text):
        return escape(text)
    return text


def save_facts_xml(facts: CodeFacts) -> bytes:
    """Serialize to canonical XML: fixed element order, 2-space indent, UTF-8."""
    validate_facts(facts)
    out = ['<?xml version="1.0" encoding="UTF-8"?>']
    out.append(f"<codefacts provenance={_quote(facts.provenance)}>")
    for package in facts.packages:
        out.append(f"  <package name={_quote(package.name)}>")
        for cls in package.classes:
            out.extend(_class_lines(cls))
        out.append("  </package>")
    out.append("</codefacts>")
    return ("\n".join(out) + "\n").encode("utf-8")


def _class_lines(cls: ClassFact) -> list[str]:
    superclass = ""
    if cls.superclass is not None:
        superclass = f" superclass={_quote(cls.superclass)}"
    lines = [f"    <class name={_quote(cls.name)}{superclass}>"]
    for comment in cls.comments:
        lines.append("      " + _comment_line(comment))
    for attribute in cls.attributes:
        lines.append(
            f"      <attribute name={_quote(attribute.name)}"
            f" type={_quote(attribute.declared_type)}/>"
        )
    for method in cls.methods:
        lines.extend(_method_lines(method))
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
    return (
        f"<comment kind={_quote(comment.kind)}>"
        f"{_escape(comment.text)}</comment>"
    )


# --- XML reading ---------------------------------------------------------


def load_facts_xml(data: bytes) -> CodeFacts:
    """Parse a code-facts document, checking the schema and model invariants."""
    try:
        root = ET.fromstring(data)
    except ET.ParseError as exc:
        line = exc.position[0] if exc.position else None
        raise XmlParseError(str(exc), line) from exc
    if root.tag != "codefacts":
        raise XmlSchemaError("root element must be <codefacts>", root.tag)
    packages = []
    for package_el in root:
        if package_el.tag != "package":
            raise XmlSchemaError("expected <package>", package_el.tag)
        packages.append(_read_package(package_el))
    facts = CodeFacts(
        packages=tuple(packages), provenance=root.get("provenance", "")
    )
    validate_facts(facts)
    return facts


def _require_name(element: ET.Element) -> str:
    name = element.get("name")
    if name is None:
        raise XmlSchemaError("missing name attribute", element.tag)
    return name


def _read_package(package_el: ET.Element) -> PackageFact:
    classes = []
    for class_el in package_el:
        if class_el.tag != "class":
            raise XmlSchemaError("expected <class>", class_el.tag)
        classes.append(_read_class(class_el))
    return PackageFact(name=_require_name(package_el), classes=tuple(classes))


def _read_class(class_el: ET.Element) -> ClassFact:
    attributes = []
    methods = []
    comments = []
    for child in class_el:
        if child.tag == "comment":
            comments.append(_read_comment(child))
        elif child.tag == "attribute":
            attributes.append(
                AttributeFact(
                    name=_require_name(child), declared_type=child.get("type", "")
                )
            )
        elif child.tag == "method":
            methods.append(_read_method(child))
        else:
            raise XmlSchemaError("unexpected element inside <class>", child.tag)
    return ClassFact(
        name=_require_name(class_el),
        superclass=class_el.get("superclass"),
        attributes=tuple(attributes),
        methods=tuple(methods),
        comments=tuple(comments),
    )


def _read_method(method_el: ET.Element) -> MethodFact:
    parameters = []
    local_variables = []
    accesses = []
    invocations = []
    comments = []
    for child in method_el:
        if child.tag == "param":
            parameters.append((_require_name(child), child.get("type", "")))
        elif child.tag == "local":
            local_variables.append((_require_name(child), child.get("type", "")))
        elif child.tag == "access":
            accesses.append(_require_name(child))
        elif child.tag == "invoke":
            invocations.append(_require_name(child))
        elif child.tag == "comment":
            comments.append(_read_comment(child))
        else:
            raise XmlSchemaError("unexpected element inside <method>", child.tag)
    return MethodFact(
        name=_require_name(method_el),
        parameters=tuple(parameters),
        local_variables=tuple(local_variables),
        comments=tuple(comments),
        attribute_accesses=tuple(accesses),
        method_invocations=tuple(invocations),
    )


def _read_comment(comment_el: ET.Element) -> CommentFact:
    kind = comment_el.get("kind")
    if kind not in COMMENT_KINDS:
        raise XmlSchemaError(f"comment kind must be one of {COMMENT_KINDS}", "comment")
    return CommentFact(text=comment_el.text or "", kind=kind)


# --- metrics -------------------------------------------------------------


def compute_metrics(facts: CodeFacts) -> SoftwareMetrics:
    """Count packages, classes, members, and relation occurrences."""
    nop = len(facts.packages)
    noc = noa = nom = params = locals_count = 0
    comments = invocations = accesses = 0
    for package in facts.packages:
        for cls in package.classes:
            noc += 1
            noa += len(cls.attributes)
            comments += len(cls.comments)
            for method in cls.methods:
                nom += 1
                params += len(method.parameters)
                locals_count += len(method.local_variables)
                comments += len(method.comments)
                invocations += len(method.method_invocations)
                accesses += len(method.attribute_accesses)
    return SoftwareMetrics(
        nop=nop,
        noc=noc,
        noa=noa,
        nom=nom,
        identifiers=noc + noa + nom + params + locals_count,
        comments=comments,
        locals=locals_count,
        invocations=invocations,
        accesses=accesses,
    )
