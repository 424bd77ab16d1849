from __future__ import annotations

from xml.sax.saxutils import escape, quoteattr

import pytest
from hypothesis import given, settings, strategies as st

from reqtrace.errors import XmlParseError, XmlSchemaError
from reqtrace.facts import (
    AttributeFact,
    ClassFact,
    CodeFacts,
    CommentFact,
    MethodFact,
    PackageFact,
    _escape,
    _quote,
    compute_metrics,
    load_facts_xml,
    save_facts_xml,
)

identifiers = st.text(
    alphabet=st.sampled_from("abcdXYZ_$123"), min_size=1, max_size=8
).filter(lambda s: not s[0].isdigit())

comment_text = st.text(
    alphabet=st.characters(blacklist_categories=("Cs", "Cc")), min_size=1, max_size=40
).filter(lambda s: bool(s.strip()))

comments = st.builds(
    CommentFact, text=comment_text, kind=st.sampled_from(["class-level", "method-level"])
)

typed_names = st.tuples(identifiers, identifiers)


@st.composite
def methods(draw):
    param_names = draw(st.lists(identifiers, max_size=3, unique=True))
    return MethodFact(
        name=draw(identifiers),
        parameters=tuple((n, draw(identifiers)) for n in param_names),
        local_variables=tuple(draw(st.lists(typed_names, max_size=3))),
        comments=tuple(draw(st.lists(comments, max_size=2))),
        attribute_accesses=tuple(draw(st.lists(identifiers, max_size=3))),
        method_invocations=tuple(draw(st.lists(identifiers, max_size=3))),
    )


@st.composite
def classes(draw):
    attr_names = draw(st.lists(identifiers, max_size=3, unique=True))
    method_list = []
    seen_signatures = set()
    for method in draw(st.lists(methods(), max_size=3)):
        signature = (method.name, len(method.parameters))
        if signature not in seen_signatures:
            seen_signatures.add(signature)
            method_list.append(method)
    return ClassFact(
        name=draw(identifiers),
        superclass=draw(st.none() | identifiers),
        attributes=tuple(AttributeFact(n, draw(identifiers)) for n in attr_names),
        methods=tuple(method_list),
        comments=tuple(draw(st.lists(comments, max_size=2))),
    )


@st.composite
def code_facts(draw):
    package_names = draw(st.lists(identifiers, max_size=3, unique=True))
    packages = []
    for name in package_names:
        class_names = draw(st.lists(identifiers, max_size=3, unique=True))
        class_list = []
        for class_name in class_names:
            cls = draw(classes())
            class_list.append(ClassFact(
                name=class_name,
                superclass=cls.superclass,
                attributes=cls.attributes,
                methods=cls.methods,
                comments=cls.comments,
            ))
        packages.append(PackageFact(name=name, classes=tuple(class_list)))
    # XML 1.0 cannot carry control characters, so neither can the format
    return CodeFacts(
        packages=tuple(packages),
        provenance=draw(
            st.text(
                alphabet=st.characters(blacklist_categories=("Cs", "Cc")),
                max_size=20,
            )
        ),
    )


SAMPLE = CodeFacts(
    packages=(
        PackageFact(
            name="a.b",
            classes=(
                ClassFact(
                    name="Widget",
                    superclass="Base",
                    attributes=(AttributeFact("size", "int"),),
                    methods=(
                        MethodFact(
                            name="resize",
                            parameters=(("amount", "int"),),
                            local_variables=(("next", "int"),),
                            comments=(CommentFact("grow it", "method-level"),),
                            attribute_accesses=("size",),
                            method_invocations=("max",),
                        ),
                    ),
                    comments=(CommentFact("a widget", "class-level"),),
                ),
            ),
        ),
        PackageFact(name="a.c", classes=()),
    ),
    provenance="unit test",
)


class TestRoundTrip:
    def test_sample_value_round_trip(self):
        assert load_facts_xml(save_facts_xml(SAMPLE)) == SAMPLE

    def test_canonical_bytes_stable(self):
        first = save_facts_xml(SAMPLE)
        assert save_facts_xml(load_facts_xml(first)) == first

    def test_empty_facts(self):
        data = save_facts_xml(CodeFacts())
        assert data.splitlines()[1] == b'<codefacts provenance="">'
        assert load_facts_xml(data) == CodeFacts()

    @settings(max_examples=120, deadline=None)
    @given(code_facts())
    def test_generated_round_trip(self, facts):
        assert load_facts_xml(save_facts_xml(facts)) == facts

    def test_escaping(self):
        facts = CodeFacts(
            packages=(
                PackageFact(
                    name="p",
                    classes=(
                        ClassFact(
                            name='we"ird<>&',
                            comments=(CommentFact("a < b && c > d", "class-level"),),
                        ),
                    ),
                ),
            ),
            provenance='quo"ted\nlines & <tags>',
        )
        assert load_facts_xml(save_facts_xml(facts)) == facts

    @settings(max_examples=300)
    @given(st.text() | st.text(alphabet=st.sampled_from("ab '&<>\"\n\r\t\x0b")))
    def test_quoting_equals_saxutils(self, value):
        assert _quote(value) == quoteattr(value)
        assert _escape(value) == escape(value)


class TestErrors:
    def test_malformed_xml_reports_line(self):
        with pytest.raises(XmlParseError) as info:
            load_facts_xml(b"<codefacts>\n<package name='x'>\n</codefacts>")
        assert info.value.line == 3

    def test_unknown_element_named(self):
        with pytest.raises(XmlSchemaError) as info:
            load_facts_xml(b'<codefacts><bogus name="x"/></codefacts>')
        assert info.value.element == "bogus"

    def test_missing_name_attribute(self):
        with pytest.raises(XmlSchemaError) as info:
            load_facts_xml(b"<codefacts><package/></codefacts>")
        assert info.value.element == "package"

    def test_duplicate_package_rejected(self):
        with pytest.raises(XmlSchemaError):
            load_facts_xml(
                b'<codefacts><package name="p"/><package name="p"/></codefacts>'
            )

    def test_bad_comment_kind(self):
        with pytest.raises(XmlSchemaError):
            load_facts_xml(
                b'<codefacts><package name="p"><class name="C">'
                b'<comment kind="stray">x</comment></class></package></codefacts>'
            )

    def test_minimal_one_empty_package(self):
        facts = load_facts_xml(b'<codefacts><package name="only"/></codefacts>')
        assert len(facts.packages) == 1
        assert compute_metrics(facts).noc == 0


class TestMetrics:
    def test_empty_facts_all_zero(self):
        metrics = compute_metrics(CodeFacts())
        assert all(
            getattr(metrics, field) == 0
            for field in (
                "nop", "noc", "noa", "nom", "identifiers",
                "comments", "locals", "invocations", "accesses",
            )
        )

    def test_direct_counts(self):
        two_methods = tuple(MethodFact(name=f"m{i}") for i in range(3))
        facts = CodeFacts(
            packages=(
                PackageFact(
                    name="p",
                    classes=(
                        ClassFact(name="A", methods=two_methods),
                        ClassFact(name="B", methods=two_methods),
                    ),
                ),
            )
        )
        assert compute_metrics(facts).nom == 6

    def test_sample_counts(self):
        metrics = compute_metrics(SAMPLE)
        assert (metrics.nop, metrics.noc, metrics.noa, metrics.nom) == (2, 1, 1, 1)
        assert metrics.identifiers == 1 + 1 + 1 + 1 + 1  # class+attr+method+param+local
        assert metrics.comments == 2
        assert metrics.invocations == 1
        assert metrics.accesses == 1

    def test_identifier_floor_invariant(self):
        metrics = compute_metrics(SAMPLE)
        assert metrics.identifiers >= metrics.noc + metrics.noa + metrics.nom

    def test_pure_function(self):
        assert compute_metrics(SAMPLE) == compute_metrics(SAMPLE)

    @settings(max_examples=60, deadline=None)
    @given(code_facts(), classes())
    def test_monotone_under_added_facts(self, facts, extra_class):
        if not facts.packages:
            return
        before = compute_metrics(facts)
        first = facts.packages[0]
        if any(cls.name == extra_class.name for cls in first.classes):
            return
        grown = CodeFacts(
            packages=(
                PackageFact(name=first.name, classes=first.classes + (extra_class,)),
            )
            + facts.packages[1:],
            provenance=facts.provenance,
        )
        after = compute_metrics(grown)
        for field in (
            "nop", "noc", "noa", "nom", "identifiers",
            "comments", "locals", "invocations", "accesses",
        ):
            assert getattr(after, field) >= getattr(before, field)
