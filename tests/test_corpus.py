from __future__ import annotations

import re

import pytest

from reqtrace.corpus import (
    RawDocument,
    build_class_documents,
    class_document_text,
    load_requirement_documents,
)
from reqtrace.errors import ConfigurationError
from reqtrace.facts import (
    AttributeFact,
    ClassFact,
    CodeFacts,
    CommentFact,
    MethodFact,
    PackageFact,
)
from reqtrace.javaparser import parse_source_tree

MY_LINE_FACT = ClassFact(
    name="MyLine",
    superclass="MyShape",
    methods=(
        MethodFact(
            name="draw",
            parameters=(("g", "Graphics"),),
            attribute_accesses=("X1", "Y1"),
            method_invocations=("drawLine",),
            comments=(CommentFact("draw a line", "method-level"),),
        ),
    ),
)


class TestClassDocuments:
    def test_fig_style_document_contents(self):
        text = class_document_text("Drawing.Shapes.coreElements", MY_LINE_FACT)
        for token in (
            "Drawing.Shapes.coreElements",
            "MyLine",
            "MyShape",
            "draw",
            "g",
            "X1",
            "drawLine",
            "draw a line",
        ):
            assert token in text

    def test_item_order_is_fixed(self):
        cls = ClassFact(
            name="C",
            superclass="S",
            attributes=(AttributeFact("attr", "int"),),
            methods=(
                MethodFact(
                    name="m",
                    parameters=(("par", "int"),),
                    local_variables=(("loc", "int"),),
                    attribute_accesses=("acc",),
                    method_invocations=("inv",),
                    comments=(CommentFact("mc", "method-level"),),
                ),
            ),
            comments=(CommentFact("cc", "class-level"),),
        )
        assert class_document_text("pkg", cls).splitlines() == [
            "pkg", "C", "S", "attr", "m", "par", "loc", "acc", "inv", "cc", "mc",
        ]

    def test_bare_class_document(self):
        cls = ClassFact(name="Alone")
        assert class_document_text("pkg", cls).splitlines() == ["pkg", "Alone"]

    def test_document_per_class_named_after_class(self):
        facts = CodeFacts(
            packages=(
                PackageFact(name="a", classes=(ClassFact(name="One"),)),
                PackageFact(name="b", classes=(ClassFact(name="Two"),)),
            )
        )
        corpus = build_class_documents(facts)
        assert [d.name for d in corpus.documents] == ["One", "Two"]

    def test_names_repeated_across_packages_are_qualified(self):
        facts = CodeFacts(
            packages=(
                PackageFact(
                    name="a", classes=(ClassFact(name="Same"), ClassFact(name="One"))
                ),
                PackageFact(name="", classes=(ClassFact(name="Same"),)),
                PackageFact(name="b.c", classes=(ClassFact(name="Same"),)),
            )
        )
        corpus = build_class_documents(facts)
        assert [d.name for d in corpus.documents] == ["a.Same", "One", "Same", "b.c.Same"]
        assert corpus.documents[0].text.startswith("a\nSame")

    def test_name_collision_rejected(self):
        # qualifying cannot separate two classes of one package name
        facts = CodeFacts(
            packages=(
                PackageFact(name="a", classes=(ClassFact(name="Same"),)),
                PackageFact(name="b", classes=(ClassFact(name="Same"),)),
                PackageFact(name="a", classes=(ClassFact(name="Same"),)),
            )
        )
        with pytest.raises(ConfigurationError):
            build_class_documents(facts)

    def test_ds_corpus_names(self, ds_source):
        facts, _ = parse_source_tree(ds_source)
        corpus = build_class_documents(facts)
        assert sorted(d.name for d in corpus.documents) == [
            "DrawingShapes", "MyLine", "MyOval", "MyRectangle", "MyShape", "PaintJPanel",
        ]
        assert len(corpus.documents) == sum(
            len(p.classes) for p in facts.packages
        )

    def test_every_token_traceable_to_facts(self, ds_source):
        # regenerating the document from its facts reproduces it exactly
        facts, _ = parse_source_tree(ds_source)
        corpus = build_class_documents(facts)
        regenerated = {
            cls.name: class_document_text(package.name, cls)
            for package in facts.packages
            for cls in package.classes
        }
        for document in corpus.documents:
            assert document.text == regenerated[document.name]


class TestRequirementDocuments:
    def test_ds_requirements(self, ds_requirements):
        corpus = load_requirement_documents(ds_requirements)
        assert [q.name for q in corpus.queries] == [
            "Draw a line", "Draw oval", "Draw rectangle",
        ]
        # file body follows the name line
        first = corpus.queries[0]
        assert first.text.startswith("Draw a line\n")
        assert "drawLine()" in first.text

    def test_empty_body_query_is_just_its_name(self, tmp_path):
        (tmp_path / "Sole_requirement.txt").write_text("   \n")
        corpus = load_requirement_documents(tmp_path)
        assert corpus.queries[0].name == "Sole requirement"
        assert corpus.queries[0].text == "Sole requirement"

    def test_byte_order_mark_is_not_text(self, tmp_path):
        body = "Draw a line\nThe user draws a line.\n".encode()
        for folder, data in (("plain", body), ("marked", b"\xef\xbb\xbf" + body)):
            (tmp_path / folder).mkdir()
            (tmp_path / folder / "Draw_a_line.txt").write_bytes(data)
        (tmp_path / "marked" / "Only_a_mark.txt").write_bytes(b"\xef\xbb\xbf")
        plain = load_requirement_documents(tmp_path / "plain").queries
        marked = load_requirement_documents(tmp_path / "marked").queries
        assert marked[0] == plain[0]
        assert marked[1] == RawDocument(name="Only a mark", text="Only a mark")

    def test_empty_directory_is_configuration_error(self, tmp_path):
        message = f"^requirement directory {re.escape(str(tmp_path))}: no .txt"
        with pytest.raises(ConfigurationError, match=message):
            load_requirement_documents(tmp_path)

    def test_seventeen_files_make_seventeen_queries(self, tmp_path):
        for i in range(17):
            (tmp_path / f"req_{i:02d}.txt").write_text(f"requirement body {i}")
        corpus = load_requirement_documents(tmp_path)
        assert len(corpus.queries) == 17

    def test_duplicate_names_rejected(self, tmp_path):
        (tmp_path / "a_b.txt").write_text("x")
        (tmp_path / "a b.txt").write_text("y")
        message = f"^requirement directory {re.escape(str(tmp_path))}: duplicate"
        with pytest.raises(ConfigurationError, match=message):
            load_requirement_documents(tmp_path)
