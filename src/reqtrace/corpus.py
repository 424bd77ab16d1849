"""Builds the raw text corpora: one document per class, one query per requirement.

A class document concatenates, in a fixed order, the package name, class
name, superclass name, member names, relation names (accesses and
invocations), and every comment text; it is named after its class, as
``package.Class`` only where packages share the simple name.  A
requirement document is one UTF-8 ``.txt`` file; its name comes from the
file name (underscores read as spaces) and is prepended to the text so
name tokens carry weight.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigurationError
from .facts import ClassFact, CodeFacts

__all__ = [
    "RawDocument",
    "DocumentCorpus",
    "QueryCorpus",
    "build_class_documents",
    "class_document_text",
    "load_requirement_documents",
]


@dataclass(frozen=True)
class RawDocument:
    name: str
    text: str


@dataclass(frozen=True)
class DocumentCorpus:
    documents: tuple[RawDocument, ...]


@dataclass(frozen=True)
class QueryCorpus:
    queries: tuple[RawDocument, ...]


def class_document_text(package_name: str, cls: ClassFact) -> str:
    """Concatenate every fact token of one class, one item per line."""
    items: list[str] = [package_name, cls.name]
    if cls.superclass is not None:
        items.append(cls.superclass)
    items.extend(attribute.name for attribute in cls.attributes)
    items.extend(method.name for method in cls.methods)
    for method in cls.methods:
        items.extend(name for name, _ in method.parameters)
    for method in cls.methods:
        items.extend(name for name, _ in method.local_variables)
    for method in cls.methods:
        items.extend(method.attribute_accesses)
    for method in cls.methods:
        items.extend(method.method_invocations)
    items.extend(comment.text for comment in cls.comments)
    for method in cls.methods:
        items.extend(comment.text for comment in method.comments)
    return "\n".join(item for item in items if item)


def build_class_documents(facts: CodeFacts) -> DocumentCorpus:
    """One document per class, in source order.

    A document is named after its class.  A simple name that more than one
    package declares is qualified as ``package.Class`` in every such package
    (a class of the default package keeps its simple name); every other
    class keeps its simple name.  Gold files name classes the same way.
    """
    declared = Counter(
        cls.name for package in facts.packages for cls in package.classes
    )
    documents = []
    seen: set[str] = set()
    for package in facts.packages:
        for cls in package.classes:
            name = cls.name
            if declared[name] > 1 and package.name:
                name = f"{package.name}.{name}"
            if name in seen:
                raise ConfigurationError(
                    f"class name {name!r} appears twice; document names would collide"
                )
            seen.add(name)
            documents.append(
                RawDocument(name=name, text=class_document_text(package.name, cls))
            )
    return DocumentCorpus(documents=tuple(documents))


def load_requirement_documents(directory: str | Path) -> QueryCorpus:
    """Read every ``.txt`` file under `directory` as one requirement query.

    Files are UTF-8, with or without a byte-order mark."""
    directory = Path(directory)
    files = sorted(directory.glob("*.txt"))
    if not files:
        raise ConfigurationError(f"no .txt requirement files in {directory}")
    queries = []
    seen: set[str] = set()
    for path in files:
        name = path.stem.replace("_", " ")
        if name in seen:
            raise ConfigurationError(f"duplicate requirement name {name!r}")
        seen.add(name)
        try:
            body = path.read_text(encoding="utf-8-sig")
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigurationError(
                f"cannot read requirement file {path}: {exc}"
            ) from exc
        text = name if not body.strip() else f"{name}\n{body}"
        queries.append(RawDocument(name=name, text=text))
    return QueryCorpus(queries=tuple(queries))
