from __future__ import annotations

import gc
import re
import tempfile
import time
from collections import Counter
from dataclasses import replace
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import example, given, seed, settings, strategies as st

from reqtrace.errors import ConfigurationError
from reqtrace.facts import (
    AttributeFact,
    ClassFact,
    CommentFact,
    MethodFact,
    class_metrics,
    load_facts_xml,
    save_facts_xml,
    validate_facts,
)
from reqtrace.javaparser import (
    _NOT_IN_GENERICS,
    _NOT_XML_CHAR,
    ParseDiagnostic,
    _Cursor,
    _is_ident,
    _lex,
    parse_compilation_unit,
    parse_source_tree,
)
from reqtrace.links import TraceLinkSet, emit_dot_tracelinks
from reqtrace.porter import stem

DS_SOURCES = sorted(
    path.read_text(encoding="utf-8")
    for path in (Path(__file__).parent / "fixtures" / "ds" / "src").rglob("*.java")
)

# Characters that change how Java text lexes: quotes, escapes, comment
# openers, line breaks and other str.isspace characters, letters and digits
# inside and outside ASCII, "²" (a digit that is not regex \d), "½" (regex
# \w but neither a letter nor a digit) and control characters.
JAVA_DENSE_ALPHABET = [
    *"aZ_$09.\"'\\/*{}();=<>@,[]:?",
    *"\n\r\x0b\x0c\x1c\x85\u2028 \t",
    *"é一٣²½€\u0301",
    *"\x00\x07\x7f\x9f",
]
java_dense_chars = st.sampled_from(JAVA_DENSE_ALPHABET)


class _Token(NamedTuple):
    kind: str  # "ident" | "punct" | "literal" | "comment"
    text: str
    line: int


def clean_comment_char_by_char(text: str) -> str:
    return "".join(ch if ch.isprintable() or ch == " " else " " for ch in text).strip()


def lex_char_by_char(
    text: str, file: str, diagnostics: list[ParseDiagnostic]
) -> list[_Token]:
    """Reference lexer: one character at a time, with str predicates."""
    tokens: list[_Token] = []
    i = 0
    line = 1
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            i += 1
            continue
        if ch.isspace():
            i += 1
            continue
        if ch == "/" and text.startswith("//", i):
            end = text.find("\n", i)
            end = n if end == -1 else end
            tokens.append(_Token("comment", clean_comment_char_by_char(text[i + 2 : end]), line))
            i = end
            continue
        if ch == "/" and text.startswith("/*", i):
            end = text.find("*/", i + 2)
            if end == -1:
                diagnostics.append(
                    ParseDiagnostic("error", file, line, "unterminated block comment")
                )
                end = n
                body = text[i + 2 : end]
            else:
                body = text[i + 2 : end]
                end += 2
            cleaned = " ".join(
                clean_comment_char_by_char(part.lstrip(" \t").lstrip("*"))
                for part in body.splitlines()
            ).strip()
            tokens.append(_Token("comment", cleaned, line))
            line += body.count("\n")
            i = end
            continue
        if ch in "\"'":
            quote = ch
            start_line = line
            j = i + 1
            while j < n and text[j] != quote:
                if text[j] == "\\":
                    j += 1
                if j < n and text[j] == "\n":
                    line += 1
                j += 1
            if j >= n:
                diagnostics.append(
                    ParseDiagnostic(
                        "error", file, start_line, "unterminated string or char literal"
                    )
                )
            tokens.append(_Token("literal", text[i : j + 1], start_line))
            i = j + 1
            continue
        if ch.isalpha() or ch in "_$":
            j = i
            while j < n and (text[j].isalnum() or text[j] in "_$"):
                j += 1
            tokens.append(_Token("ident", text[i:j], line))
            i = j
            continue
        if ch.isdigit():
            j = i
            while j < n and (text[j].isalnum() or text[j] in "._"):
                j += 1
            tokens.append(_Token("literal", text[i:j], line))
            i = j
            continue
        tokens.append(_Token("punct", ch, line))
        i += 1
    return tokens


@st.composite
def mutated_ds_sources(draw):
    """A DS source file with a few short spans replaced by Java-dense text."""
    text = draw(st.sampled_from(DS_SOURCES))
    for _ in range(draw(st.integers(1, 4))):
        start = draw(st.integers(0, len(text)))
        end = draw(st.integers(start, min(len(text), start + 40)))
        text = text[:start] + draw(st.text(java_dense_chars, max_size=12)) + text[end:]
    return text

SMALL_CLASS = """
package tiny;

// counts things
public class Counter {
    private int total;
    private int step;

    // bump the counter by its step
    public void bump( int times ) {
        int amount = times * step;
        total = total + amount;
        record( amount );
    }
}
"""


def only_class(fragment):
    assert len(fragment.classes) == 1
    return fragment.classes[0]


class TestCompilationUnit:
    def test_small_class_shape(self):
        fragment, diagnostics = parse_compilation_unit(SMALL_CLASS, "Counter.java")
        assert diagnostics == []
        assert fragment.name == "tiny"
        cls = only_class(fragment)
        assert [a.name for a in cls.attributes] == ["total", "step"]
        assert [m.name for m in cls.methods] == ["bump"]
        method = cls.methods[0]
        assert method.parameters == (("times", "int"),)
        assert method.local_variables == (("amount", "int"),)
        assert method.method_invocations == ("record",)
        # unqualified same-class fields count on every occurrence
        assert sorted(method.attribute_accesses) == ["step", "total", "total"]

    def test_metrics_of_small_class(self):
        fragment, _ = parse_compilation_unit(SMALL_CLASS, "Counter.java")
        metrics = sum(map(class_metrics, fragment.classes), Counter())
        assert metrics["attributes (NOA)"] == 2
        assert metrics["methods (NOM)"] == 1

    def test_package_only_file(self):
        fragment, diagnostics = parse_compilation_unit("package a.b;", "p.java")
        assert fragment.name == "a.b"
        assert fragment.classes == ()
        assert diagnostics == []

    def test_default_package(self):
        fragment, _ = parse_compilation_unit("class Solo { }", "Solo.java")
        assert fragment.name == ""
        assert only_class(fragment).name == "Solo"

    def test_extends_clause(self):
        fragment, _ = parse_compilation_unit(
            "package p; class Kid extends Parent { }", "Kid.java"
        )
        assert only_class(fragment).superclass == "Parent"

    def test_class_comment_attachment(self):
        source = """
        package p;
        // about the class
        public class Doc {
            // about the method
            public void act() { }
            // trailing note
        }
        """
        cls = only_class(parse_compilation_unit(source, "Doc.java")[0])
        assert [c.text for c in cls.comments] == ["about the class", "trailing note"]
        assert all(c.kind == "class-level" for c in cls.comments)
        assert [c.text for c in cls.methods[0].comments] == ["about the method"]
        assert cls.methods[0].comments[0].kind == "method-level"

    def test_body_comment_belongs_to_method(self):
        source = """
        class C {
            void act() {
                // inside note
                run();
            }
        }
        """
        cls = only_class(parse_compilation_unit(source, "C.java")[0])
        assert [c.text for c in cls.methods[0].comments] == ["inside note"]

    def test_block_comment_flattened(self):
        source = """
        class C {
            /* one
             * two
             */
            void act() { }
        }
        """
        cls = only_class(parse_compilation_unit(source, "C.java")[0])
        assert cls.methods[0].comments[0].text == "one two"

    def test_nested_braces_and_for_header_locals(self):
        source = """
        class Loops {
            void walk() {
                for ( int i = 0; i < 3; i = i + 1 ) {
                    if ( i > 1 ) {
                        double inner = 1.5;
                        { int deepest = 2; }
                    }
                }
            }
            void after() { }
        }
        """
        cls = only_class(parse_compilation_unit(source, "Loops.java")[0])
        walk = cls.methods[0]
        assert walk.local_variables == (
            ("i", "int"), ("inner", "double"), ("deepest", "int"),
        )
        assert [m.name for m in cls.methods] == ["walk", "after"]

    def test_multi_declarator_fields_and_locals(self):
        source = """
        class Multi {
            int a = 1, b, c = f(1, 2);
            void act() {
                int x = g(3, 4), y;
            }
        }
        """
        cls = only_class(parse_compilation_unit(source, "Multi.java")[0])
        assert [a.name for a in cls.attributes] == ["a", "b", "c"]
        assert cls.methods[0].local_variables == (("x", "int"), ("y", "int"))
        # calls inside initializers still observed
        assert cls.methods[0].method_invocations == ("g",)

    def test_constructor_and_this_access(self):
        source = """
        class Point {
            int x;
            Point( int x ) {
                this.x = x;
            }
        }
        """
        cls = only_class(parse_compilation_unit(source, "Point.java")[0])
        ctor = cls.methods[0]
        assert ctor.name == "Point"
        assert ctor.parameters == (("x", "int"),)
        assert ctor.attribute_accesses == ("x", "x")

    def test_this_qualified_unknown_field_still_access(self):
        source = "class C { void m() { this.inherited = 1; } }"
        cls = only_class(parse_compilation_unit(source, "C.java")[0])
        assert cls.methods[0].attribute_accesses == ("inherited",)

    def test_keywords_never_invocations(self):
        source = """
        class K {
            void m() {
                if ( ready() ) { return; }
                while ( false ) { }
                super.m();
            }
        }
        """
        cls = only_class(parse_compilation_unit(source, "K.java")[0])
        assert cls.methods[0].method_invocations == ("ready", "m")

    def test_two_classes_in_one_file_stay_separate(self):
        source = """
        package pair;
        class First {
            int a;
            void fa() { a = 1; }
        }
        class Second {
            int b;
            void fb() { b = 2; }
        }
        """
        fragment, _ = parse_compilation_unit(source, "pair.java")
        assert [c.name for c in fragment.classes] == ["First", "Second"]
        first, second = fragment.classes
        assert [a.name for a in first.attributes] == ["a"]
        assert [a.name for a in second.attributes] == ["b"]
        assert first.methods[0].attribute_accesses == ("a",)
        assert second.methods[0].attribute_accesses == ("b",)

    def test_skipped_constructs_warn(self):
        source = """
        package p;
        @Deprecated
        public class Odd {
            interface Inner { }
            java.util.List<String> names;
            void ok() { }
        }
        enum Color { RED }
        """
        fragment, diagnostics = parse_compilation_unit(source, "Odd.java")
        messages = " | ".join(d.message for d in diagnostics)
        assert "annotation" in messages
        assert "nested interface" in messages
        assert "generic" in messages
        assert "enum" in messages
        assert all(d.severity == "warning" for d in diagnostics)
        assert [m.name for m in only_class(fragment).methods] == ["ok"]

    def test_abstract_method_without_body(self):
        source = "class A { public abstract int area( int scale ); }"
        cls = only_class(parse_compilation_unit(source, "A.java")[0])
        assert cls.methods[0].name == "area"
        assert cls.methods[0].parameters == (("scale", "int"),)

    def test_string_literals_produce_no_identifiers(self):
        source = 'class S { void m() { log( "fake call()" ); } }'
        cls = only_class(parse_compilation_unit(source, "S.java")[0])
        assert cls.methods[0].method_invocations == ("log",)

    def test_determinism(self):
        results = [parse_compilation_unit(SMALL_CLASS, "x.java") for _ in range(2)]
        assert results[0] == results[1]

    def test_escaped_newline_in_literal_counts_as_a_line(self):
        source = 'class A {\n  String s = "ab\\\ncd";\n  int x;\n  @Deprecated int y;\n}'
        _, diagnostics = parse_compilation_unit(source, "A.java")
        assert [(d.line, d.message) for d in diagnostics] == [
            (5, "annotation @Deprecated ignored")
        ]

    def test_lines_after_a_text_block_and_a_block_comment(self):
        source = (
            'class A {\n  String s = """\n    x\n    """;\n'
            "  /* a\n     b */ @Override void m() {}\n  List<String> t;\n}\n"
        )
        _, diagnostics = parse_compilation_unit(source, "A.java")
        assert [(d.line, d.message) for d in diagnostics] == [
            (6, "annotation @Override ignored"),
            (7, "generic type arguments ignored"),
        ]


ARRAYS_AND_GENERICS = """class Box<T> extends Base<T> {
    String c[][];
    int[] a;
    void m(String[] y, int... z) {
        int w[] = null;
        this.g(c);
    }
}
"""


class TestArraysAndGenerics:
    def parse(self):
        fragment, diagnostics = parse_compilation_unit(ARRAYS_AND_GENERICS, "Box.java")
        return only_class(fragment), diagnostics

    def test_field_dims_after_type_or_name(self):
        cls, _ = self.parse()
        assert [(a.name, a.declared_type) for a in cls.attributes] == [
            ("c", "String[][]"),
            ("a", "int[]"),
        ]

    def test_array_and_varargs_parameters(self):
        cls, diagnostics = self.parse()
        assert cls.methods[0].parameters == (("y", "String[]"), ("z", "int[]"))
        assert [(d.line, d.message) for d in diagnostics if "varargs" in d.message] == [
            (4, "varargs parameter treated as array")
        ]

    def test_local_dims_after_name(self):
        cls, _ = self.parse()
        assert cls.methods[0].local_variables == (("w", "int[]"),)

    def test_generic_class_and_superclass(self):
        cls, diagnostics = self.parse()
        assert cls.superclass == "Base"
        assert [(d.line, d.message) for d in diagnostics if "generic" in d.message] == [
            (1, "generic type parameters ignored"),
            (1, "generic superclass arguments ignored"),
        ]

    def test_this_qualified_call_is_an_invocation(self):
        cls, _ = self.parse()
        assert cls.methods[0].method_invocations == ("g",)
        assert cls.methods[0].attribute_accesses == ("c",)


def parse_one(source: str):
    fragment, diagnostics = parse_compilation_unit(source, "D.java")
    return only_class(fragment), [(d.severity, d.message) for d in diagnostics]


class TestDeclarators:
    def test_generic_locals_are_recorded_without_a_warning(self):
        cls, diagnostics = parse_one(
            "class C { void m() { List<String> xs = f(); Map.Entry<K, V> e = null; } }"
        )
        assert cls.methods[0].local_variables == (
            ("xs", "List<String>"),
            ("e", "Map.Entry<K,V>"),
        )
        assert diagnostics == []

    def test_extra_declarator_takes_the_base_type_and_its_own_dims(self):
        cls, _ = parse_one(
            "class C { int q[], r; int[] a, b[]; void m() { int q[], r; } }"
        )
        assert [(a.name, a.declared_type) for a in cls.attributes] == [
            ("q", "int[]"), ("r", "int"), ("a", "int[]"), ("b", "int[][]"),
        ]
        assert cls.methods[0].local_variables == (("q", "int[]"), ("r", "int"))

    def test_extra_local_declarator_with_dims_is_recorded(self):
        cls, _ = parse_one("class C { void m() { int[] u = g(1), v[]; } }")
        assert cls.methods[0].local_variables == (("u", "int[]"), ("v", "int[][]"))
        assert cls.methods[0].method_invocations == ("g",)

    def test_parameter_dims_after_the_name_join_its_type(self):
        cls, _ = parse_one("class C { void m(int x[], String[] y[]) {} }")
        assert cls.methods[0].parameters == (("x", "int[]"), ("y", "String[][]"))

    def test_field_without_semicolon_stops_at_the_class_closer(self):
        source = "class A { int a = 1 } class B { int b; void m() {} }"
        fragment, _ = parse_compilation_unit(source, "D.java")
        first, second = fragment.classes
        assert [a.name for a in first.attributes] == ["a"]
        assert first.methods == ()
        assert [a.name for a in second.attributes] == ["b"]
        assert [m.name for m in second.methods] == ["m"]

    def test_comparisons_in_arguments_read_as_a_generic_local(self):
        # token-level ambiguity: `a < b, c > d` is also `Type<b, c> d`
        cls, _ = parse_one("class C { void m() { f(a < b, c > d); } }")
        assert cls.methods[0].local_variables == (("d", "a<b,c>"),)

    def test_annotated_parameter_keeps_its_type_and_name(self):
        cls, diagnostics = parse_one("class C { void m(@Nullable String s) {} }")
        assert cls.methods[0].parameters == (("s", "String"),)
        assert diagnostics == [("warning", "annotation @Nullable ignored")]

    def test_generic_method_type_parameters_warn_once(self):
        cls, diagnostics = parse_one("class C { public <U> List<U> f() { return null; } }")
        assert [m.name for m in cls.methods] == ["f"]
        assert diagnostics == [
            ("warning", "generic type parameters ignored"),
            ("warning", "generic type arguments ignored"),
        ]


class TestUnterminatedBodies:
    def test_method_body_to_end_of_file_keeps_its_last_token(self):
        source = "class C {\n void m() {\n foo(); bar(); baz("
        fragment, diagnostics = parse_compilation_unit(source, "D.java")
        assert only_class(fragment).methods[0].method_invocations == (
            "foo", "bar", "baz",
        )
        # each error is reported at the line of its opening brace
        assert [(d.severity, d.line, d.message) for d in diagnostics] == [
            ("error", 2, "unterminated body of method 'm'"),
            ("error", 1, "unterminated body of class 'C'"),
        ]

    def test_class_body_to_end_of_file_is_an_error(self):
        cls, diagnostics = parse_one("class C { int a; void m() {}")
        assert [a.name for a in cls.attributes] == ["a"]
        assert diagnostics == [("error", "unterminated body of class 'C'")]

    @pytest.mark.parametrize("keyword", ["interface", "enum"])
    def test_skipped_body_to_end_of_file_is_an_error(self, keyword):
        source = f"class C {{}}\n{keyword} I {{\n void m();"
        fragment, diagnostics = parse_compilation_unit(source, "D.java")
        assert only_class(fragment).name == "C"
        assert [(d.severity, d.line, d.message) for d in diagnostics] == [
            ("warning", 2, f"{keyword} declaration skipped"),
            ("error", 2, f"unterminated body of {keyword} 'I'"),
        ]

    def test_nested_skipped_body_to_end_of_file_is_an_error(self):
        source = "class C {\n int a;\n interface J {\n void m();"
        fragment, diagnostics = parse_compilation_unit(source, "D.java")
        assert [a.name for a in only_class(fragment).attributes] == ["a"]
        assert [(d.severity, d.line, d.message) for d in diagnostics] == [
            ("warning", 3, "nested interface skipped"),
            ("error", 3, "unterminated body of interface 'J'"),
            ("error", 1, "unterminated body of class 'C'"),
        ]

    def test_member_with_a_type_and_no_name_leaves_the_class_brace(self):
        source = "class A { int } class B { void m() {} }"
        fragment, diagnostics = parse_compilation_unit(source, "D.java")
        assert [(c.name, [m.name for m in c.methods]) for c in fragment.classes] == [
            ("A", []),
            ("B", ["m"]),
        ]
        assert [(d.severity, d.message) for d in diagnostics] == [
            ("warning", "unrecognized member after type 'int'")
        ]


def method_fact(name: str, *parameters: tuple[str, str]) -> MethodFact:
    return MethodFact(name=name, parameters=parameters)


SKIPPED_AND_IGNORED = {
    "duplicate field": (
        "class A { int x; String x; }",
        [ClassFact("A", attributes=(AttributeFact("x", "int"),))],
        [("warning", "duplicate field 'x' skipped")],
    ),
    "duplicate method signature": (
        "class A { void f(int a) {} void f(long b) {} }",
        [ClassFact("A", methods=(method_fact("f", ("a", "int")),))],
        [("warning", "duplicate method signature 'f'/1 skipped")],
    ),
    "duplicate parameter": (
        "class A { void f(int a, int a) {} }",
        [ClassFact("A", methods=(method_fact("f", ("a", "int")),))],
        [("warning", "duplicate parameter 'a' skipped")],
    ),
    "implements clause": (
        "class A implements B, C { }",
        [ClassFact("A")],
        [("warning", "implements clause ignored")],
    ),
    "class without a body": (
        "class A extends B",
        [],
        [("error", "class A has no body")],
    ),
    "class without a name": (
        "class { }",
        [],
        [
            ("error", "class keyword without a name"),
            ("warning", "unrecognized top-level token '{'"),
            ("warning", "unrecognized top-level token '}'"),
        ],
    ),
    "annotation on a method": (
        'class A { @SuppressWarnings("x") void f() {} }',
        [ClassFact("A", methods=(method_fact("f"),))],
        [("warning", "annotation @SuppressWarnings ignored")],
    ),
    "interface without a body": (
        "interface I; class A {}",
        [ClassFact("A")],
        [("warning", "interface declaration skipped")],
    ),
    "nested annotation type": (
        "class A { @interface Ann { int v() default 1; } void keep() { helper(); } }",
        [ClassFact("A", methods=(MethodFact("keep", method_invocations=("helper",)),))],
        [("warning", "nested @interface skipped")],
    ),
    "top-level annotation type": (
        "public @interface Ann { String value(); }",
        [],
        [("warning", "@interface declaration skipped")],
    ),
    "keyword as a member": (
        "class A { return; void keep() {} }",
        [ClassFact("A", methods=(method_fact("keep"),))],
        [("warning", "unrecognized member skipped")],
    ),
    "generic type to the end of the file": (
        "class A { List<String",
        [ClassFact("A")],
        [
            ("warning", "unrecognized member after type 'List'"),
            ("error", "unterminated body of class 'A'"),
        ],
    ),
    "generic arguments that do not close": (
        "class A { List<String x; void keep() {} }",
        [ClassFact("A", methods=(method_fact("keep"),))],
        [("warning", "unrecognized member after type 'List'")],
    ),
    "generic arguments that do not close, then a field": (
        "class A { Map<K, V m; int y; void keep() {} }",
        [
            ClassFact(
                "A",
                attributes=(AttributeFact("y", "int"),),
                methods=(method_fact("keep"),),
            )
        ],
        [("warning", "unrecognized member after type 'Map'")],
    ),
    "generic return type that does not close": (
        "class A { List<String f() { return null; } int y; void keep() {} }",
        [
            ClassFact(
                "A",
                attributes=(AttributeFact("y", "int"),),
                methods=(method_fact("keep"),),
            )
        ],
        [("warning", "unrecognized member after type 'List'")],
    ),
    "top-level enum": (
        "enum E { A, B; void f() {} } class A { void keep() {} }",
        [ClassFact("A", methods=(method_fact("keep"),))],
        [("warning", "enum declaration skipped")],
    ),
    "nested class and nested enum": (
        "class A { class B { int x; } enum E { X, Y } void keep() {} }",
        [ClassFact("A", methods=(method_fact("keep"),))],
        [("warning", "nested class skipped"), ("warning", "nested enum skipped")],
    ),
    "type keyword without a name": (
        "class A { void keep() {} } enum {",
        [ClassFact("A", methods=(method_fact("keep"),))],
        [
            ("warning", "enum declaration skipped"),
            ("error", "unterminated body of enum '?'"),
        ],
    ),
    "unterminated body of a skipped top-level enum": (
        "class A {} enum E { A, B",
        [ClassFact("A")],
        [
            ("warning", "enum declaration skipped"),
            ("error", "unterminated body of enum 'E'"),
        ],
    ),
    "unterminated body of a nested annotation type": (
        "class A { void keep() {} @interface Ann { int v();",
        [ClassFact("A", methods=(method_fact("keep"),))],
        [
            ("warning", "nested @interface skipped"),
            ("error", "unterminated body of @interface 'Ann'"),
            ("error", "unterminated body of class 'A'"),
        ],
    ),
    "abstract method with a throws clause": (
        "abstract class A { abstract void f(int a) throws IOException, X;"
        " void keep() {} }",
        [ClassFact("A", methods=(method_fact("f", ("a", "int")), method_fact("keep")))],
        [],
    ),
    "throws clause before an unterminated method body": (
        "class A { void f() throws E { g();",
        [ClassFact("A", methods=(MethodFact("f", method_invocations=("g",)),))],
        [
            ("error", "unterminated body of method 'f'"),
            ("error", "unterminated body of class 'A'"),
        ],
    ),
    "declarators with and without dims, as fields": (
        "class A { int a, b[][], c; }",
        [
            ClassFact(
                "A",
                attributes=(
                    AttributeFact("a", "int"),
                    AttributeFact("b", "int[][]"),
                    AttributeFact("c", "int"),
                ),
            )
        ],
        [],
    ),
    "declarators with and without dims, as locals": (
        "class A { void m() { int a, b[][], c; } }",
        [
            ClassFact(
                "A",
                methods=(
                    MethodFact(
                        "m",
                        local_variables=(("a", "int"), ("b", "int[][]"), ("c", "int")),
                    ),
                ),
            )
        ],
        [],
    ),
}


@pytest.mark.parametrize(
    "source, classes, diagnostics",
    SKIPPED_AND_IGNORED.values(),
    ids=SKIPPED_AND_IGNORED.keys(),
)
def test_what_is_skipped_or_ignored_is_reported(source, classes, diagnostics):
    package, found = parse_compilation_unit(source, "A.java")
    assert list(package.classes) == classes
    assert [(d.severity, d.message) for d in found] == diagnostics


def comment(text: str, kind: str = "method-level") -> CommentFact:
    return CommentFact(text=text, kind=kind)


# Which declaration owns a comment, and that a comment hides no code.  The
# rows marked "lost" lost the fact or the comment named while comments were
# tokens that every walker had to step over.
COMMENTS_BESIDE_CODE = {
    "doc comment of a skipped nested type": (  # lost: `m` took it
        "class A { /** doc of I */ interface I { } void m() {} }",
        [ClassFact("A", methods=(method_fact("m"),))],
        [("warning", "nested interface skipped")],
    ),
    "comment between field declarators": (  # lost: `b` and "c"
        "class A { int a, /* c */ b; void m() {} }",
        [
            ClassFact(
                "A",
                attributes=(AttributeFact("a", "int"), AttributeFact("b", "int")),
                methods=(MethodFact("m", comments=(comment("c"),)),),
            )
        ],
        [],
    ),
    "comment inside a local declaration": (  # lost: the local `x`
        "class A { void m() { int /* c */ x = 1; } }",
        [
            ClassFact(
                "A",
                methods=(
                    MethodFact(
                        "m", local_variables=(("x", "int"),), comments=(comment("c"),)
                    ),
                ),
            )
        ],
        [],
    ),
    "comment in a parameter list": (  # lost: "c"
        "class A { void f(int a /* c */, int b) {} }",
        [
            ClassFact(
                "A",
                methods=(
                    MethodFact(
                        "f",
                        parameters=(("a", "int"), ("b", "int")),
                        comments=(comment("c"),),
                    ),
                ),
            )
        ],
        [],
    ),
    "comment in the extends clause": (  # lost: the superclass
        "class A extends /* h */ B { }",
        [ClassFact("A", superclass="B", comments=(comment("h", "class-level"),))],
        [],
    ),
    "comment in an import": (  # lost: "c"
        "import a.b /* c */; class A {}",
        [ClassFact("A", comments=(comment("c", "class-level"),))],
        [],
    ),
    "comment in an initializer block": (
        "class A { static { /* init */ } void m() {} }",
        [ClassFact("A", methods=(method_fact("m"),))],
        [("warning", "initializer block skipped")],
    ),
    "comment ending an unterminated method body": (
        "class A { void m() { run(); // tail",
        [
            ClassFact(
                "A",
                methods=(
                    MethodFact(
                        "m", comments=(comment("tail"),), method_invocations=("run",)
                    ),
                ),
            )
        ],
        [
            ("error", "unterminated body of method 'm'"),
            ("error", "unterminated body of class 'A'"),
        ],
    ),
}


@pytest.mark.parametrize(
    "source, classes, diagnostics",
    COMMENTS_BESIDE_CODE.values(),
    ids=COMMENTS_BESIDE_CODE.keys(),
)
def test_each_comment_goes_to_its_declaration(source, classes, diagnostics):
    package, found = parse_compilation_unit(source, "A.java")
    assert list(package.classes) == classes
    assert [(d.severity, d.message) for d in found] == diagnostics


# Comments, literals, numbers and words: a comment inserted strictly inside
# one of these would change a token, not sit between two.
_ATOM = re.compile(
    r"//[^\n]*|/\*.*?\*/|\"(?:\\.|[^\"\\])*\"|'(?:\\.|[^'\\])*'|[0-9][\w.]*|[\w$]+",
    re.DOTALL,
)


@st.composite
def sources_with_a_comment(draw):
    """A DS or skipped-construct source, and the same source with `/* c */`
    inserted at a token boundary outside comments and literals."""
    text = draw(
        st.sampled_from(
            DS_SOURCES + [source for source, _, _ in SKIPPED_AND_IGNORED.values()]
        )
    )
    inside = {
        at
        for match in _ATOM.finditer(text)
        for at in range(match.start() + 1, match.end())
    }
    at = draw(st.sampled_from([at for at in range(len(text) + 1) if at not in inside]))
    return text, text[:at] + " /* c */ " + text[at:]


def without_comments(package):
    return [
        replace(
            cls,
            comments=(),
            methods=tuple(replace(method, comments=()) for method in cls.methods),
        )
        for cls in package.classes
    ]


@seed(16)
@settings(max_examples=200, deadline=None)
@given(sources_with_a_comment())
def test_a_comment_changes_only_comments(texts):
    (plain, plain_diagnostics), (commented, diagnostics) = (
        parse_compilation_unit(text, "A.java") for text in texts
    )
    assert diagnostics == plain_diagnostics
    assert without_comments(commented) == without_comments(plain)


class TestLexer:
    @settings(max_examples=400, deadline=None)
    @given(st.text() | st.text(java_dense_chars, max_size=80))
    @example('s = "a\\\nb";\n\'\\\n\' x')
    @example("²x.y$z ½ab é.c 一$d ٣$.5 €q \u0301 a½.b")
    @example('"abc\\')
    @example('"a\\"')
    @example('"a\\\\"')
    @example("/*/ x")
    @example("x \t\x0b")
    @example("/* a\n * b\x85c\r\n */ d // e\x00f\rg")
    def test_equals_char_by_char_lexer(self, text):
        expected_diagnostics: list[ParseDiagnostic] = []
        expected = lex_char_by_char(text, "F.java", expected_diagnostics)
        tokens, breaks, comments, errors = _lex(text)
        assert len(breaks) == text.count("\n")
        cursor = _Cursor(tokens, breaks)
        lines = [cursor.line(index) for index in range(len(tokens))]
        code: list[_Token] = []
        expected_comments: list[tuple[int, str]] = []
        for token in expected:
            if token.kind != "comment":
                code.append(token)
            elif token.text:  # with the index of the code token after it
                expected_comments.append((len(code), token.text))
        assert [(*kind_text(t), line) for t, line in zip(tokens, lines)] == code
        assert comments == expected_comments
        diagnostics = [ParseDiagnostic("error", "F.java", *error) for error in errors]
        assert diagnostics == expected_diagnostics


def kind_text(token: str) -> tuple[str, str]:
    """The (kind, text) of a lexer token, read from its first character."""
    if _is_ident(token):
        return "ident", token
    if token[0].isdigit() or token[0] in "\"'":
        return "literal", token
    return "punct", token


class TestMutatedSources:
    @settings(max_examples=150, deadline=None)
    @given(mutated_ds_sources())
    def test_parse_never_raises_and_facts_round_trip(self, text):
        parse_compilation_unit(text, "Fuzz.java")
        with tempfile.TemporaryDirectory() as root:
            Path(root, "Fuzz.java").write_text(text, encoding="utf-8")
            facts, _ = parse_source_tree(root)
        assert load_facts_xml(save_facts_xml(facts)) == facts


class TestLargeClasses:
    # Members are checked for duplicates by key, not against every earlier
    # member; a generated class such as Android's R.java holds thousands.
    def parse_in_under(self, seconds: float, text: str) -> ClassFact:
        start = time.perf_counter()
        fragment, diagnostics = parse_compilation_unit(text, "R.java")
        assert time.perf_counter() - start < seconds
        assert diagnostics == []
        return fragment.classes[0]

    def test_20000_fields_parse_in_under_2_s(self):
        fields = " ".join(f"int f{i};" for i in range(20000))
        text = f"class R {{ {fields} void m() {{ f7 = f19999; }} }}"
        cls = self.parse_in_under(2.0, text)
        assert len(cls.attributes) == 20000
        assert cls.methods[0].attribute_accesses == ("f7", "f19999")

    def test_10000_methods_parse_in_under_2_s(self):
        methods = " ".join(
            f"void m{i}(int a, int b) {{ m{i - 1}(a, b); }}" for i in range(10000)
        )
        cls = self.parse_in_under(2.0, f"class R {{ {methods} }}")
        assert [m.name for m in cls.methods] == [f"m{i}" for i in range(10000)]
        assert cls.methods[-1].method_invocations == ("m9998",)


    def test_a_dotted_chain_of_4000_links_parses_in_under_half_a_second(self):
        # each name of the chain used to read the rest of it as a type
        chain = ".".join(["a"] * 4000)
        text = f"class C {{ int a; void m() {{ x = {chain}.f(); T y = a.b; }} }}"
        (method,) = self.parse_in_under(0.5, text).methods
        assert method.attribute_accesses == ("a",) * 4001
        assert method.method_invocations == ("f",)
        assert method.local_variables == (("y", "T"),)


def parse(text: str) -> None:
    parse_compilation_unit(text, "G.java")


def dot_names_that_sanitize_alike(n: int) -> TraceLinkSet:
    names = tuple(f"A{chr(0x100 + i)}" for i in range(n))
    return TraceLinkSet(
        links={"r": names[:10]}, unlinked_classes=names[10:], unlinked_requirements=()
    )


# Each construct repeated n times, as (the work, its input for n).  A
# quadratic case once hid in each; the last six rows are those found one at a
# time: 16,000 trailing spaces, a long run of `y`, 20,000 fields, a dotted
# chain of 4,000 links, and DOT names that sanitize alike.
LINEAR_GROWTH = {
    "nested blocks": (
        parse,
        lambda n: "class C { void m() { " + "{" * n + "}" * n + " } }",
    ),
    "nested parentheses": (
        parse,
        lambda n: "class C { void m() { x = " + "(" * n + "a" + ")" * n + "; } }",
    ),
    "nested generics": (
        parse,
        lambda n: "class C { " + "List<" * n + "String" + ">" * n + " x; }",
    ),
    "annotations": (parse, lambda n: "class C { " + "@A " * n + "void m() {} }"),
    "comments": (parse, lambda n: "class C { " + "/* c */ " * n + "void m() {} }"),
    "+ terms": (
        parse,
        lambda n: "class C { int a; void m() { x = " + " + ".join(["a"] * n) + "; } }",
    ),
    "array initializer": (
        parse,
        lambda n: "class C { int[] a = {" + ", ".join(["1"] * n) + "}; }",
    ),
    "classes in one file": (
        parse,
        lambda n: " ".join(f"class C{i} {{ void m() {{}} }}" for i in range(n)),
    ),
    "nested skipped classes": (
        parse,
        lambda n: "class C { " + "class D { " * n + "} " * n + "void m() {} }",
    ),
    "generic members that do not close": (
        parse,
        lambda n: "class C { " + "List<String x; " * n + "}",
    ),
    "comparisons in an argument list": (
        parse,
        lambda n: "class C { void m() { f(" + ", ".join(["a < b"] * n) + "); } }",
    ),
    "trailing whitespace": (parse, lambda n: "class C {}" + " " * n),
    "a run of y": (stem, lambda n: "y" * n + "ed"),
    "fields": (
        parse,
        lambda n: "class R { " + " ".join(f"int f{i};" for i in range(n)) + " }",
    ),
    "methods": (
        parse,
        lambda n: "class R { "
        + " ".join(f"void m{i}(int a) {{ m{i - 1}(a); }}" for i in range(n))
        + " }",
    ),
    "a dotted chain": (
        parse,
        lambda n: "class C { void m() { x = " + ".".join(["a"] * n) + ".f(); } }",
    ),
    "DOT names": (emit_dot_tracelinks, dot_names_that_sanitize_alike),
}


def best_of_3(work, argument) -> float:
    times = []
    for _ in range(3):
        start = time.process_time()
        work(argument)
        times.append(time.process_time() - start)
    return min(times)


@pytest.mark.parametrize(
    "work, make", LINEAR_GROWTH.values(), ids=LINEAR_GROWTH.keys()
)
def test_four_times_the_input_takes_less_than_eight_times_as_long(work, make):
    # A linear case grows about 4x, a quadratic one about 16x.  The
    # collector is paused, as in each command, so that it times the work.
    small, large = make(1000), make(4000)
    enabled = gc.isenabled()
    gc.disable()
    try:
        growth = best_of_3(work, large) / best_of_3(work, small)
    finally:
        if enabled:
            gc.enable()
    assert growth < 8


class TestGenericArguments:
    # `_Cursor.generic` settles every `<` its scan passes; at each index, in
    # any order, it must read what a scan from that `<` alone reads.
    @staticmethod
    def generic_by_rescan(tokens: list[str], start: int) -> tuple[str | None, int]:
        if start >= len(tokens) or tokens[start] != "<":
            return None, start
        depth = 0
        for j in range(start, len(tokens)):
            if tokens[j] == "<":
                depth += 1
            elif tokens[j] == ">":
                depth -= 1
                if depth == 0:
                    return "".join(tokens[start : j + 1]), j + 1
            elif tokens[j] not in (",", ".", "?", "[", "]") and (
                not _is_ident(tokens[j]) or tokens[j] in _NOT_IN_GENERICS
            ):
                break
        return None, start

    @seed(21)
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.sampled_from([*"<<>>,.?[]();", "a", "B", "int", "extends", "new"]),
            max_size=30,
        ),
        st.randoms(use_true_random=False),
    )
    @example(list("a<b,c<d>e"), None)
    @example(["<", "int", "[", "]", ">"], None)
    def test_equals_a_scan_from_each_start(self, tokens, rng):
        starts = list(range(len(tokens) + 1))
        if rng is not None:
            rng.shuffle(starts)
        cursor = _Cursor(tokens)
        for start in starts:
            cursor.i = start
            text = cursor.generic()
            assert (text, cursor.i) == self.generic_by_rescan(tokens, start)


# A declaration that fails at a chain's first name is not tried at its later
# names; one that starts after the chain, or at a name the chain stops
# before, is still found.
@pytest.mark.parametrize(
    "statement, local_variables, attribute_accesses",
    [
        ("a.int x;", (("x", "int"),), ("a",)),
        ("a < b c;", (("c", "b"),), ("a",)),
        ("a.b x y = 1;", (("y", "x"),), ("a", "b")),
        ("this.a.b c = 1;", (("c", "b"),), ("a",)),
        ("x = a.b.c; a.b.C d = e;", (("d", "a.b.C"),), ("a", "b")),
    ],
)
def test_declarations_around_a_dotted_chain(
    statement, local_variables, attribute_accesses
):
    cls, diagnostics = parse_one(f"class C {{ int a, b; void m() {{ {statement} }} }}")
    assert cls.methods[0].local_variables == local_variables
    assert cls.methods[0].attribute_accesses == attribute_accesses
    assert diagnostics == []


class TestSourceTree:
    def test_missing_root_raises(self, tmp_path):
        root = tmp_path / "nowhere"
        message = f"^source root {re.escape(str(root))}: "
        with pytest.raises(ConfigurationError, match=message):
            parse_source_tree(root)

    def test_file_as_root_raises(self, tmp_path):
        root = tmp_path / "A.java"
        root.write_text("class A { }")
        message = f"^source root {re.escape(str(root))}: "
        with pytest.raises(ConfigurationError, match=message):
            parse_source_tree(root)

    def test_empty_directory(self, tmp_path):
        facts, diagnostics = parse_source_tree(tmp_path)
        assert facts.packages == ()
        assert diagnostics == []

    def test_merge_by_sorted_path(self, tmp_path):
        (tmp_path / "B.java").write_text("package p; class B { }")
        (tmp_path / "A.java").write_text("package p; class A { }")
        facts, _ = parse_source_tree(tmp_path)
        assert [c.name for c in facts.packages[0].classes] == ["A", "B"]

    def test_duplicate_class_skipped_with_warning(self, tmp_path):
        (tmp_path / "A.java").write_text("package p; class Dup { }")
        (tmp_path / "B.java").write_text("package p; class Dup { int x; }")
        facts, diagnostics = parse_source_tree(tmp_path)
        assert len(facts.packages[0].classes) == 1
        assert any("duplicate class" in d.message for d in diagnostics)

    def test_unreadable_file_reported_others_parsed(self, tmp_path):
        (tmp_path / "Bad.java").mkdir()  # matches *.java, but read fails
        (tmp_path / "Good.java").write_text("package p; class Good { }")
        facts, diagnostics = parse_source_tree(tmp_path)
        assert [c.name for p in facts.packages for c in p.classes] == ["Good"]
        assert [(d.severity, d.file) for d in diagnostics] == [
            ("error", str(tmp_path / "Bad.java"))
        ]
        assert diagnostics[0].message.startswith("unreadable file: ")

    def test_file_not_in_utf8_is_read_as_latin1_with_a_warning(self, tmp_path):
        (tmp_path / "Legacy.java").write_bytes(
            b"package p;\r\n// caf\xe9\r\nclass Legacy { }\n\xff\xfe\x00bogus"
        )
        facts, diagnostics = parse_source_tree(tmp_path)
        (legacy,) = facts.packages[0].classes
        assert [c.text for c in legacy.comments] == ["caf\u00e9"]
        assert {d.file for d in diagnostics} == {str(tmp_path / "Legacy.java")}
        # CRLF line ends count as one line each, as with UTF-8 sources
        assert [(d.severity, d.line, d.message) for d in diagnostics] == [
            ("warning", 1, "not UTF-8; decoded as ISO-8859-1"),
            ("warning", 4, "unrecognized top-level construct near '\u00ff\u00fe'"),
            ("warning", 4, "unrecognized top-level token '\\x00'"),
            ("warning", 4, "unrecognized top-level construct near 'bogus'"),
        ]

    def test_a_byte_order_mark_before_latin1_is_dropped(self, tmp_path):
        source = b"package p;\nclass Lat { /* caf\xe9 */ void m() {} }\n"
        (tmp_path / "marked").mkdir()
        (tmp_path / "marked" / "Lat.java").write_bytes(b"\xef\xbb\xbf" + source)
        (tmp_path / "plain").mkdir()
        (tmp_path / "plain" / "Lat.java").write_bytes(source)
        marked, diagnostics = parse_source_tree(tmp_path / "marked")
        plain, _ = parse_source_tree(tmp_path / "plain")
        assert [(d.severity, d.line, d.message) for d in diagnostics] == [
            ("warning", 1, "not UTF-8; decoded as ISO-8859-1")
        ]
        assert marked.packages == plain.packages

    def test_crlf_lines_after_a_block_comment(self, tmp_path):
        (tmp_path / "A.java").write_bytes(
            b"class A {\r\n  /* x\r\n     y */\r\n  @Override void m() {}\r\n}\r\n"
        )
        _, diagnostics = parse_source_tree(tmp_path)
        assert [(d.line, d.message) for d in diagnostics] == [
            (4, "annotation @Override ignored")
        ]

    def test_what_xml_cannot_hold_is_matched_at_every_code_point(self):
        # the negated class of the characters of XML 1.0
        not_xml_char = re.compile(
            "[^\t\n\r\x20-\ud7ff\ue000-\ufffd\U00010000-\U0010ffff]"
        )
        every_code_point = "".join(map(chr, range(0x110000)))
        assert [m.start() for m in _NOT_XML_CHAR.finditer(every_code_point)] == [
            m.start() for m in not_xml_char.finditer(every_code_point)
        ]

    def test_ds_tree(self, ds_source):
        facts, diagnostics = parse_source_tree(ds_source)
        assert diagnostics == []
        validate_facts(facts)
        class_names = {c.name for p in facts.packages for c in p.classes}
        assert class_names == {
            "DrawingShapes", "MyLine", "MyOval", "MyRectangle", "MyShape", "PaintJPanel",
        }
        my_line = next(
            c for p in facts.packages for c in p.classes if c.name == "MyLine"
        )
        assert my_line.superclass == "MyShape"

    def test_no_invented_identifiers(self, ds_source):
        facts, _ = parse_source_tree(ds_source)
        source_tokens = set()
        for path in ds_source.rglob("*.java"):
            source_tokens.update(re.findall(r"[A-Za-z_$][A-Za-z0-9_$]*", path.read_text()))
        for package in facts.packages:
            for part in package.name.split("."):
                assert part in source_tokens
            for cls in package.classes:
                assert cls.name in source_tokens
                if cls.superclass:
                    assert cls.superclass in source_tokens
                for attribute in cls.attributes:
                    assert attribute.name in source_tokens
                for method in cls.methods:
                    assert method.name in source_tokens
                    for name, _ in method.parameters:
                        assert name in source_tokens
                    for name, _ in method.local_variables:
                        assert name in source_tokens
                    for name in method.attribute_accesses:
                        assert name in source_tokens
                    for name in method.method_invocations:
                        assert name in source_tokens
