from __future__ import annotations

import tracemalloc
import xml.etree.ElementTree as ET
from collections import Counter
from dataclasses import MISSING, FrozenInstanceError, fields, replace
from xml.sax.saxutils import escape, quoteattr

import pytest
from hypothesis import given, seed, settings, strategies as st

from reqtrace import facts as facts_module
from reqtrace.corpus import (
    DocumentCorpus,
    build_class_documents,
    class_document_text,
    name_class_documents,
)
from reqtrace.errors import XmlParseError, XmlSchemaError
from reqtrace.facts import (
    _SLICE,
    COMMENT_KINDS,
    METRICS,
    AttributeFact,
    ClassFact,
    CodeFacts,
    CommentFact,
    MethodFact,
    PackageFact,
    _escape,
    _quote,
    class_metrics,
    load_facts_xml,
    read_facts_xml,
    save_facts_xml,
    validate_class,
    validate_facts,
)
from reqtrace.javaparser import ParseDiagnostic

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


# One value of each record, with its repr.  The records that the parser and
# the reader make per item set their slots through their own constructor.
RECORDS = [
    (CommentFact("t", "method-level"), "CommentFact(text='t', kind='method-level')"),
    (AttributeFact("n", "int[]"), "AttributeFact(name='n', declared_type='int[]')"),
    (
        MethodFact("m", (("p", "int"),), (), (CommentFact("c", "method-level"),)),
        "MethodFact(name='m', parameters=(('p', 'int'),), local_variables=(),"
        " comments=(CommentFact(text='c', kind='method-level'),),"
        " attribute_accesses=(), method_invocations=())",
    ),
    (
        ClassFact("C", None, (AttributeFact("n", "int"),)),
        "ClassFact(name='C', superclass=None,"
        " attributes=(AttributeFact(name='n', declared_type='int'),), methods=(),"
        " comments=())",
    ),
    (
        PackageFact("p", (ClassFact("C"),)),
        "PackageFact(name='p', classes=(ClassFact(name='C', superclass=None,"
        " attributes=(), methods=(), comments=()),))",
    ),
    (
        CodeFacts((PackageFact("p"),), "x"),
        "CodeFacts(packages=(PackageFact(name='p', classes=()),), provenance='x')",
    ),
    (
        ParseDiagnostic("warning", "A.java", 3, "odd"),
        "ParseDiagnostic(severity='warning', file='A.java', line=3, message='odd')",
    ),
]


@pytest.mark.parametrize(
    "record, text", RECORDS, ids=[type(record).__name__ for record, _ in RECORDS]
)
class TestRecords:
    def test_no_field_can_be_assigned(self, record, text):
        for field in fields(record):
            with pytest.raises(FrozenInstanceError):
                setattr(record, field.name, getattr(record, field.name))
        with pytest.raises((AttributeError, TypeError)):
            record.extra = 1  # slotted: no other attribute either
        assert repr(record) == text

    def test_equal_fields_give_equal_records_and_hashes(self, record, text):
        values = {field.name: getattr(record, field.name) for field in fields(record)}
        rebuilt = [
            type(record)(*values.values()),
            type(record)(**values),
            replace(record),
        ]
        for other in rebuilt:
            assert other == record
            assert hash(other) == hash(record)
            assert repr(other) == text
        first = fields(record)[0].name
        assert replace(record, **{first: values[first] * 2}) != record

    def test_omitted_fields_take_their_defaults(self, record, text):
        required = {
            field.name: getattr(record, field.name)
            for field in fields(record)
            if field.default is MISSING
        }
        built = type(record)(**required)
        for field in fields(record):
            expected = required.get(field.name, field.default)
            assert getattr(built, field.name) == expected


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
        data = save_facts_xml(facts)
        assert load_facts_xml(data) == facts == tree_walk_load(data)
        assert pull_parser_load(data) == facts

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
    @given(
        st.text()
        | st.text(alphabet=st.sampled_from("ab '&<>\"\n\r\t\x0b"))
        | st.text(alphabet=st.sampled_from("aZ_9$\u00e9\u4e00\u0301<"))  # names
    )
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
        assert metrics_of(facts)["classes (NOC)"] == 0


def metrics_of(facts: CodeFacts) -> Counter[str]:
    """The counts of a whole document as `extract` makes them: its packages,
    and `class_metrics` added up class by class."""
    classes = (cls for package in facts.packages for cls in package.classes)
    return sum(map(class_metrics, classes), Counter({METRICS[0]: len(facts.packages)}))


def one_pass_metrics(facts: CodeFacts) -> Counter[str]:
    """The reference: one count over every package, class and method."""
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
    return Counter({
        "packages (NOP)": len(facts.packages),
        "classes (NOC)": noc,
        "attributes (NOA)": noa,
        "methods (NOM)": nom,
        "identifiers": noc + noa + nom + params + locals_count,
        "comments": comments,
        "local variables": locals_count,
        "method invocations": invocations,
        "attribute accesses": accesses,
    })


class TestMetrics:
    @settings(max_examples=60)
    @given(code_facts())
    def test_class_by_class_sum_equals_one_pass(self, facts):
        assert metrics_of(facts) == one_pass_metrics(facts)

    def test_empty_facts_all_zero(self):
        metrics = metrics_of(CodeFacts())
        assert all(metrics[label] == 0 for label in METRICS)
        assert list(one_pass_metrics(CodeFacts())) == list(METRICS)

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
        assert metrics_of(facts)["methods (NOM)"] == 6

    def test_sample_counts(self):
        metrics = metrics_of(SAMPLE)
        assert [metrics[label] for label in METRICS[:4]] == [2, 1, 1, 1]  # NOP..NOM
        assert metrics["identifiers"] == 1 + 1 + 1 + 1 + 1  # class+attr+method+param+local
        assert metrics["comments"] == 2
        assert metrics["method invocations"] == 1
        assert metrics["attribute accesses"] == 1

    def test_identifier_floor_invariant(self):
        metrics = metrics_of(SAMPLE)
        assert metrics["identifiers"] >= sum(metrics[label] for label in METRICS[1:4])

    def test_pure_function(self):
        assert metrics_of(SAMPLE) == metrics_of(SAMPLE)

    @settings(max_examples=60, deadline=None)
    @given(code_facts(), classes())
    def test_monotone_under_added_facts(self, facts, extra_class):
        if not facts.packages:
            return
        before = metrics_of(facts)
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
        after = metrics_of(grown)
        for label in METRICS:
            assert after[label] >= before[label]


# --- the streaming reader against two references --------------------------


def tree_walk_load(data: bytes) -> CodeFacts:
    """The reference for the facts of a valid document: build the whole
    ElementTree, then walk it.  Of a document with two faults, it may name
    either."""
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
    facts = CodeFacts(packages=tuple(packages), provenance=root.get("provenance", ""))
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


# For each container of the schema ("" for the document), the tags it may
# hold and the message for any other.  Every other tag is a leaf, and what
# a leaf holds is not read.
PULL_SCHEMA = {
    "": ({"codefacts"}, "root element must be <codefacts>"),
    "codefacts": ({"package"}, "expected <package>"),
    "package": ({"class"}, "expected <class>"),
    "class": ({"attribute", "method", "comment"}, "unexpected element inside <class>"),
    "method": (
        {"param", "local", "comment", "access", "invoke"},
        "unexpected element inside <method>",
    ),
}


def pull_parser_load(data: bytes) -> CodeFacts:
    """The reference for the first fault of a document: ElementTree's pull
    parser, with each check made at the event that completes what it checks,
    in document order, and the records built by the tree walk's helpers.

    Tags, comment kinds and leaf names are checked at start events, and a
    package's name against the earlier packages there too.  At end events a
    container's name is checked, and a class's name against its package's
    other classes, and then the class by `validate_class`.  The pull parser
    queues a parse error after the events before it, and a truncated
    document fails at `close`."""
    parser = ET.XMLPullParser(("start", "end"))
    containers = [""]  # the tags of the open containers
    in_leaf = 0  # open elements at or inside a leaf
    provenance, packages, package_names = "", [], set()
    classes: list[ClassFact] = []
    class_names: set[str] = set()

    def unique(name: str, seen: set[str], tag: str) -> None:
        if name in seen:
            raise XmlSchemaError(f"duplicate {tag} name {name!r}", tag)
        seen.add(name)

    try:
        parser.feed(data)
        for event, element in parser.read_events():
            tag = element.tag
            if in_leaf:
                in_leaf += 1 if event == "start" else -1
            elif event == "start":
                allowed, message = PULL_SCHEMA[containers[-1]]
                if tag not in allowed:
                    raise XmlSchemaError(message, tag)
                if tag not in PULL_SCHEMA:
                    in_leaf = 1
                    if tag == "comment":
                        _read_comment(element)  # checks its kind
                    else:
                        _require_name(element)
                    continue
                containers.append(tag)
                if tag == "package":
                    classes, class_names = [], set()
                    if "name" in element.attrib:
                        unique(element.get("name"), package_names, "package")
            else:
                containers.pop()
                if tag == "codefacts":
                    provenance = element.get("provenance", "")
                    continue
                name = _require_name(element)
                if tag == "class":
                    unique(name, class_names, "class")
                    cls = _read_class(element)
                    validate_class(cls)
                    classes.append(cls)
                elif tag == "package":
                    packages.append(PackageFact(name, tuple(classes)))
        parser.close()
    except ET.ParseError as exc:
        raise XmlParseError(str(exc), exc.position[0]) from exc
    except (LookupError, ValueError) as exc:
        # the codec of an unknown or multi-byte declared encoding
        raise XmlParseError(str(exc), 1) from exc
    return CodeFacts(tuple(packages), provenance)


def outcome(load, data: bytes):
    """What `load` makes of `data`: the facts, or the error it raises."""
    try:
        return load(data)
    except XmlParseError as exc:
        return type(exc), str(exc), exc.line
    except XmlSchemaError as exc:
        return type(exc), str(exc), exc.element
    except (LookupError, ValueError) as exc:
        # ElementTree lets the codec error of an unknown or multi-byte
        # declared encoding out; the readers must report it as a parse
        # error at the declaration
        if load is not tree_walk_load:
            raise
        return XmlParseError, f"line 1: {exc}", 1


def per_class_documents(data: bytes) -> DocumentCorpus:
    """The documents that `trace --facts` makes of `data`: each class turned
    into its text as it is read, and no facts built."""
    _, packages, _ = read_facts_xml(data, class_document_text)
    return name_class_documents(packages.items())


def assert_reads_as_the_references(data: bytes) -> None:
    """`load_facts_xml` gives the facts or the first fault that the pull
    parser finds, and the per-class read gives the documents of those facts
    or the same fault.  If either reference reads facts, the other reads the
    same facts."""
    expected = outcome(pull_parser_load, data)
    walked = outcome(tree_walk_load, data)
    if isinstance(expected, CodeFacts) or isinstance(walked, CodeFacts):
        assert walked == expected
    assert outcome(load_facts_xml, data) == expected
    if isinstance(expected, CodeFacts):
        expected = build_class_documents(expected)
    assert outcome(per_class_documents, data) == expected


def in_class(body: str) -> bytes:
    return (
        '<codefacts><package name="p"><class name="C">'
        + body
        + "</class></package></codefacts>"
    ).encode("utf-8")


def in_method(body: str) -> bytes:
    return in_class(f'<method name="m">{body}</method>')


INTERNAL_ENTITY = '<!DOCTYPE codefacts [<!ENTITY e "&lt;b&gt; &#65;">]>\n'
HAND_WRITTEN = {
    "children and text in leaves": in_method(
        '<param name="a" type="int">x<bogus><deeper/></bogus>y</param>'
        '<access name="f"><method/></access><invoke name="g">t</invoke>'
        '<local name="v" type="T"><class/></local>'
    ),
    "children of an attribute": in_class(
        '<attribute name="a" type="int"><package/>text</attribute>'
    ),
    "text after a child in a comment": in_class(
        '<comment kind="class-level">before<b>inside</b>after<c/>end</comment>'
    ),
    "comment with only a child": in_method(
        '<comment kind="method-level"><b>inside</b>after</comment>'
    ),
    "comment text split by a comment and a PI": in_class(
        '<comment kind="class-level">a<!-- x -->b<?pi y?>c</comment>'
    ),
    "CDATA": in_class(
        '<comment kind="class-level">x <![CDATA[&e; <a> & ]]> y</comment>'
    ),
    "schema violation before CDATA": in_class(
        '<bogus/><comment kind="class-level"><![CDATA[&e;]]></comment>'
    ),
    "character and predefined references": in_class(
        '<comment kind="class-level">&#65;&#x42;&amp;&lt;&gt;&apos;&quot;</comment>'
        '<attribute name="a&amp;b" type="&#x3c;T&#62;"/>'
    ),
    "internal entity": (
        INTERNAL_ENTITY.encode("utf-8")
        + in_class('<comment kind="class-level">x &e; y</comment>')
    ),
    "internal entity with markup": (
        b'<!DOCTYPE codefacts [<!ENTITY m "<attribute name=\'a\' type=\'t\'/>">]>'
        + in_class("&m;")
    ),
    "external entity": (
        b'<!DOCTYPE codefacts [<!ENTITY x SYSTEM "x.xml">]>\n'
        + in_class('<comment kind="class-level">&x;</comment>')
    ),
    "undeclared entity with an external subset": (
        b'<!DOCTYPE codefacts SYSTEM "facts.dtd">\n' + in_class("<bogus/>&u;")
    ),
    "undeclared entity without a DTD": in_class("&u;"),
    "long undeclared entity name": (
        b'<!DOCTYPE codefacts SYSTEM "facts.dtd">\n'
        + in_class("&" + "é" * 60 + ";")
    ),
    "DTD default attribute": (
        b'<!DOCTYPE codefacts [<!ATTLIST package name CDATA "dflt">]>'
        b"<codefacts><package/></codefacts>"
    ),
    "namespaced root": b'<f:codefacts xmlns:f="urn:facts"/>',
    "default-namespace root": b'<codefacts xmlns="urn:facts"/>',
    "namespaced package": (
        b'<codefacts xmlns:f="urn:facts"><f:package name="p"/></codefacts>'
    ),
    "namespaced leaf": in_method('<f:param xmlns:f="urn:f" name="a"/>'),
    "namespaced name attribute": in_method(
        '<param xmlns:f="urn:f" f:name="a" type="t"/>'
    ),
    "namespace declared on an ignored child": in_method(
        '<param name="a"><x:y xmlns:x="urn:x"/></param>'
    ),
    "unbound prefix": in_class("<x:y/>"),
    "missing package name": b"<codefacts><package></package></codefacts>",
    "missing class name": (
        b'<codefacts><package name="p"><class/></package></codefacts>'
    ),
    "missing method name": in_class("<method/>"),
    "missing attribute name": in_class('<attribute type="int"/>'),
    "missing param name": in_method('<param type="int"/>'),
    "missing local name": in_method('<local type="int"/>'),
    "missing access name": in_method("<access/>"),
    "missing invoke name": in_method("<invoke/>"),
    "children before the container name": (
        b"<codefacts><package><class><bogus/></class></package></codefacts>"
    ),
    "container name after its children": (
        b'<codefacts><package><class name="C"/></package><bogus/></codefacts>'
    ),
    "method name before a later sibling": in_class("<method/><bogus/>"),
    "bad comment kind in a method": in_method('<comment kind="other">x</comment>'),
    "comment without a kind": in_class("<comment>x</comment>"),
    "empty comment text": in_class('<comment kind="class-level"><b>x</b></comment>'),
    "schema violation before a syntax error": in_class("<bogus/>")[:-12] + b"</clas>",
    "schema violation before an undefined entity": in_class("<bogus/>&u;"),
    "schema violation then truncation": in_class("<bogus/>")[:-20],
    "wrong root": b'<facts><package name="p"/></facts>',
    # tags that are valid one level away, each in the wrong container
    "class in codefacts": b'<codefacts><class name="C"/></codefacts>',
    "method in a package": (
        b'<codefacts><package name="p"><method name="m"/></package></codefacts>'
    ),
    "param in a class": in_class('<param name="a" type="int"/>'),
    "attribute in a method": in_method('<attribute name="a" type="int"/>'),
    "method in a method": in_method('<method name="n"/>'),
    "codefacts in a class": in_class("<codefacts/>"),
    "text and comments everywhere": (
        b"<?xml version='1.0'?><!-- a --><codefacts provenance='here'>t"
        b'<package name="p">u<!-- b --><class name="C" superclass="B">v'
        b'<method name="m">w<param name="x" type="int"/>z</method>q'
        b"</class></package>r</codefacts><!-- end -->"
    ),
    "duplicate class": (
        b'<codefacts><package name="p"><class name="C"/><class name="C"/>'
        b"</package></codefacts>"
    ),
    # each document holds two faults, and is refused with the first
    "invariant violation before a schema error": (
        b'<codefacts><package name="p"><class name=""/><bogus/></package>'
        b"</codefacts>"
    ),
    "invariant violation then truncation": in_class('<attribute name=""/>')[:-20],
    "duplicate package whose class breaks an invariant": (
        b'<codefacts><package name="p"/><package name="p"><class name=""/>'
        b"</package></codefacts>"
    ),
    "duplicate class after a class that breaks an invariant": (
        b'<codefacts><package name="p"><class name="C"><attribute name=""/>'
        b'</class><class name="C"/></package></codefacts>'
    ),
    "duplicate class that also breaks an invariant": (
        b'<codefacts><package name="p"><class name="C"/><class name="C">'
        b'<attribute name=""/></class></package></codefacts>'
    ),
    "empty document": b"",
    "only a declaration": b'<?xml version="1.0"?>',
    "latin-1 declared encoding": (
        b'<?xml version="1.0" encoding="ISO-8859-1"?>'
        b'<codefacts provenance="caf\xe9"/>'
    ),
    "unknown declared encoding": b'<?xml version="1.0" encoding="x-none"?><a/>',
    "multi-byte declared encoding": b'<?xml version="1.0" encoding="utf-7"?><a/>',
    "two roots": b"<codefacts/><codefacts/>",
    "NUL byte": b"<codefacts>\x00</codefacts>",
}


class TestStreamingReader:
    @pytest.mark.parametrize("data", HAND_WRITTEN.values(), ids=HAND_WRITTEN.keys())
    def test_hand_written_document(self, data):
        assert_reads_as_the_references(data)

    def test_leaf_content_and_comment_text(self):
        facts = load_facts_xml(HAND_WRITTEN["text after a child in a comment"])
        assert facts.packages[0].classes[0].comments == (
            CommentFact("before", "class-level"),
        )
        facts = load_facts_xml(HAND_WRITTEN["internal entity"])
        assert facts.packages[0].classes[0].comments[0].text == "x <b> A y"

    def test_namespaced_tag_named_as_elementtree_names_it(self):
        with pytest.raises(XmlSchemaError) as info:
            load_facts_xml(HAND_WRITTEN["namespaced package"])
        assert info.value.element == "{urn:facts}package"

    def test_the_first_fault_in_the_document_wins(self):
        first_faults = {
            "schema violation before a syntax error": (
                "<bogus>: unexpected element inside <class>"
            ),
            "invariant violation before a schema error": (
                "<class>: class with empty name"
            ),
        }
        for name, message in first_faults.items():
            for read in (load_facts_xml, per_class_documents):
                with pytest.raises(XmlSchemaError) as info:
                    read(HAND_WRITTEN[name])
                assert str(info.value) == message

    @seed(10)
    @settings(max_examples=400)
    @given(code_facts(), st.data())
    def test_mutated_documents(self, facts, data):
        document = data.draw(mutated(save_facts_xml(facts)))
        assert_reads_as_the_references(document)

    def test_document_of_several_slices(self):
        assert len(SLICED) > 2 * _SLICE
        assert SLICED[_SLICE - 1 : _SLICE + 2].decode("utf-8") == "✓"
        assert load_facts_xml(SLICED) == tree_walk_load(SLICED)

    def test_a_refusal_stops_the_reading(self, monkeypatch):
        fed = []

        class CountingParser(facts_module.XMLParser):
            def feed(self, data):
                fed.append(len(data))
                super().feed(data)

        monkeypatch.setattr(facts_module, "XMLParser", CountingParser)
        data = save_facts_xml(large_facts(150))
        second = data.index(b"<class ", data.index(b"<class ") + 1)
        at = data.index(b"\n", second)
        data = data[:at] + b"<bogus/>" + data[at:]
        assert len(data) > 3 * _SLICE
        seen = []
        with pytest.raises(XmlSchemaError) as info:
            read_facts_xml(data, lambda package, cls: seen.append(cls.name))
        assert str(info.value) == "<bogus>: unexpected element inside <class>"
        assert fed == [_SLICE]
        assert seen == ["Class0x0"]  # the one class closed before the fault

    @seed(13)
    @settings(max_examples=200)
    @given(st.data())
    def test_edits_past_the_first_slice(self, data):
        document = data.draw(mutated(SLICED, after=_SLICE + 2))
        assert document[: _SLICE + 2] == SLICED[: _SLICE + 2]
        assert_reads_as_the_references(document)


def one_class(cls: ClassFact) -> CodeFacts:
    return CodeFacts(packages=(PackageFact(name="p", classes=(cls,)),))


MODEL_VIOLATIONS = {
    "empty class name": (
        one_class(ClassFact(name="")),
        b'<codefacts><package name="p"><class name=""/></package></codefacts>',
        "<class>: class with empty name",
    ),
    "empty attribute name": (
        one_class(ClassFact(name="C", attributes=(AttributeFact("", "int"),))),
        in_class('<attribute name="" type="int"/>'),
        "<attribute>: attribute with empty name",
    ),
    "duplicate attribute": (
        one_class(
            ClassFact(
                name="C",
                attributes=(AttributeFact("a", "int"), AttributeFact("a", "long")),
            )
        ),
        in_class('<attribute name="a" type="int"/><attribute name="a" type="long"/>'),
        "<attribute>: duplicate attribute 'a' in class 'C'",
    ),
    "duplicate method signature": (
        one_class(
            ClassFact(
                name="C",
                methods=(
                    MethodFact(name="m", parameters=(("a", "int"),)),
                    MethodFact(name="m", parameters=(("b", "long"),)),
                ),
            )
        ),
        in_class(
            '<method name="m"><param name="a" type="int"/></method>'
            '<method name="m"><param name="b" type="long"/></method>'
        ),
        "<method>: duplicate method signature 'm'/1 in class 'C'",
    ),
    "duplicate parameter": (
        one_class(
            ClassFact(
                name="C",
                methods=(
                    MethodFact(name="m", parameters=(("a", "int"), ("a", "long"))),
                ),
            )
        ),
        in_method('<param name="a" type="int"/><param name="a" type="long"/>'),
        "<param>: duplicate parameter 'a' in method 'm'",
    ),
    # the reader rejects the kind before the model check, so no document
    "unknown comment kind": (
        one_class(ClassFact(name="C", comments=(CommentFact("x", "other"),))),
        None,
        "<comment>: unknown comment kind 'other'",
    ),
}


@pytest.mark.parametrize(
    "facts, document, message", MODEL_VIOLATIONS.values(), ids=MODEL_VIOLATIONS.keys()
)
def test_model_violation_is_neither_written_nor_read(facts, document, message):
    with pytest.raises(XmlSchemaError) as info:
        save_facts_xml(facts)
    assert str(info.value) == message
    if document is not None:
        for read in (load_facts_xml, per_class_documents):
            with pytest.raises(XmlSchemaError) as info:
                read(document)
            assert str(info.value) == message
        assert_reads_as_the_references(document)


@st.composite
def mutated(draw, document: bytes, after: int = 0) -> bytes:
    """`document` with an optional prologue and one to four edits.  Most
    edits insert a whole element inside the root, so that many results
    stay well-formed and reach the schema checks.  With `after`, there is
    no prologue and the edits touch only lines that start past that byte."""
    lines = document.splitlines(keepends=True)  # declaration, root, ..., end
    first = 0  # the first line an edit may touch
    if after:
        first = document.count(b"\n", 0, after) + 1
    elif draw(st.booleans()):
        lines.insert(1, draw(st.sampled_from(PROLOGS)))
    for _ in range(draw(st.integers(1, 4))):
        edit = draw(st.sampled_from(EDITS))
        lowest = max(first, 2) if edit == "element" else first
        at = draw(st.integers(lowest, len(lines) - 1))
        line = lines[at]
        if edit in ("element", "markup"):
            tag = max(line.find(b"<"), 0)
            snippet = draw(st.sampled_from(ELEMENTS if edit == "element" else MARKUP))
            lines[at] = line[:tag] + snippet + line[tag:]
        elif edit == "drop":
            del lines[at]
        elif edit == "rename":
            old, new = draw(st.sampled_from(RENAMES))
            lines[at] = line.replace(old, new, 1)
        else:
            cut = draw(st.integers(0, len(line)))
            lines[at] = line[:cut] + line[cut + draw(st.integers(1, 12)) :]
        if len(lines) < 3:
            break
    return b"".join(lines)


EDITS = ("element",) * 5 + ("markup", "drop", "rename", "cut")
PROLOGS = (
    INTERNAL_ENTITY.encode("utf-8"),
    b'<!DOCTYPE codefacts [<!ENTITY x SYSTEM "x.xml">]>\n',
    b'<!DOCTYPE codefacts SYSTEM "facts.dtd">\n',
    b"<!-- lead -->\n",
)
# Well-formed wherever an element may start, except `&e;` without its
# declaration.
ELEMENTS = (
    b"<bogus/>",
    b'<class name="Z"/>',
    b"<class/>",
    b'<method name="n"/>',
    b"<method/>",
    b'<package name="q"/>',
    b"<attribute/>",
    b'<attribute name="b"><x/>y</attribute>',
    b'<param name="a" type="t">x<y/></param>',
    b"<param/>",
    b'<access name="f"/>',
    b"<invoke/>",
    b'<comment kind="class-level">t<b/>u</comment>',
    b'<comment kind="method-level"><![CDATA[<c>]]>&amp;&#65;</comment>',
    b'<comment kind="no">x</comment>',
    b"<comment/>",
    b"&e;",
    b"<![CDATA[&e; <a>]]>",
    b"<!-- c -->",
    b"<?pi x?>",
    b'<n:p xmlns:n="urn:n" name="a"/>',
    b'<method xmlns="urn:d" name="d"/>',
)
# Likely to break the document.
MARKUP = (
    b"</class>",
    b"</method>",
    b"<class>",
    b'<comment kind="method-level">',
    b"&x;",
    b"&u;",
    b' name="dup"',
    b"<",
    b">",
    b"/",
    b'"',
    b"\x00",
    b"\xff",
)
RENAMES = (
    (b"name=", b"nam="),
    (b"<class", b"<klass"),
    (b"<method", b"<methods"),
    (b"<package", b"<pkg"),
    (b"<param", b"<local"),
    (b"<access", b"<invoke"),
    (b"class-level", b"method-level"),
    (b"method-level", b"other"),
    (b"</codefacts>", b""),
    (b"<codefacts", b"<f:codefacts xmlns:f='urn:f'"),
)


def large_facts(classes: int) -> CodeFacts:
    """Facts shaped like those of `extract`: a class-level comment, four
    attributes and six methods of about a dozen leaves per class."""
    packages = []
    for p in range(classes // 50):
        class_list = []
        for c in range(50):
            methods = tuple(
                MethodFact(
                    name=f"method{m}",
                    parameters=((f"param{m}", "int"),),
                    local_variables=((f"local{m}", "long"),),
                    comments=(CommentFact(f"Does step {m}.", "method-level"),),
                    attribute_accesses=(f"field{m % 4}",),
                    method_invocations=(f"method{(m + 1) % 6}",),
                )
                for m in range(6)
            )
            class_list.append(
                ClassFact(
                    name=f"Class{p}x{c}",
                    superclass="Base",
                    attributes=tuple(
                        AttributeFact(f"field{a}", "int") for a in range(4)
                    ),
                    methods=methods,
                    comments=(CommentFact(f"Class {c} of {p}.", "class-level"),),
                )
            )
        packages.append(PackageFact(name=f"pkg{p}", classes=tuple(class_list)))
    return CodeFacts(packages=tuple(packages), provenance="generated")


def sliced_document() -> bytes:
    """`large_facts(100)` with multibyte comment text: more than two
    slices, and the end of the first splits a "✓"."""
    check = "✓".encode("utf-8")
    data = save_facts_xml(large_facts(100))
    data = data.replace(b"Does step", "Étape ✓".encode("utf-8"))
    pad = _SLICE - 1 - data.rfind(check, 0, _SLICE)
    return data.replace(b'"generated"', b'"generated' + b"-" * pad + b'"', 1)


SLICED = sliced_document()


class TestMemory:
    def test_facts_xml_ends_are_linear_in_the_document(self):
        facts = large_facts(600)
        data = save_facts_xml(facts)
        assert len(data) >= 1_000_000
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            loaded = load_facts_xml(data)
            load_peak = tracemalloc.get_traced_memory()[1] - held
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            written = save_facts_xml(loaded)
            save_peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert loaded == facts and written == data
        # the tree walk peaked at 11x and the joined lines at 4x
        assert load_peak < 6 * len(data)
        assert save_peak < 3 * len(data)

    def test_fact_records_have_no_instance_dict(self):
        facts = large_facts(50)
        package = facts.packages[0]
        cls = package.classes[0]
        method = cls.methods[0]
        records = (
            facts,
            package,
            cls,
            cls.attributes[0],
            method,
            method.comments[0],
            ParseDiagnostic("warning", "A.java", 1, "message"),
        )
        for record in records:
            assert not hasattr(record, "__dict__"), type(record).__name__
