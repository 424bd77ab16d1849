"""Token-level Java source scanner that extracts code facts.

Recognized subset: package declarations, top-level classes (several per
file allowed), `extends`, fields, methods and constructors, parameters,
local variable declarations (plain statements and `for` headers), line and
block comments, plus token-level attribute accesses and method
invocations inside bodies.  Imports and `throws` clauses are read and
deliberately not modeled.  Annotations (on parameters too), generic type
parameters of classes and methods, interfaces, enums, inner classes, and
initializer blocks are skipped with a warning diagnostic; a class or
method body that runs to the end of the file is an error.  Nothing is
dropped silently.

Fields, parameters and locals read a declared type the same way: a dotted
name, its generic arguments (kept in the type text, with a warning on
fields and parameters; `List<String> xs` is a local too) and `[]` pairs.
A declarator's own `[]` pairs after its name join its type, and each
extra declarator of `int a, b[];` gets the base type plus its own pairs.

Detection rules inside a method body are intentionally token-level: any
`name(` occurrence that is not a keyword counts as an invocation, and an
identifier counts as an attribute access when it names a field declared in
the same class or is written `this.name`.  Recall matters more than
precision here; the facts feed a text corpus, not a call graph.

Lexing is one compiled regular expression: `findall` returns every token
string in C, skipping whitespace, and one Python pass sorts the strings by
their first character into identifiers, numbers, string and char literals,
comments and punctuation, counting lines and reporting unterminated
comments and literals.  Identifiers start where `str.isalpha` holds and
numbers where `str.isdigit` does; a run that starts outside ASCII is split
by those predicates, because the regex word and digit classes draw them
differently.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

from .facts import (
    AttributeFact,
    ClassFact,
    CodeFacts,
    CommentFact,
    MethodFact,
    PackageFact,
)

__all__ = ["ParseDiagnostic", "parse_compilation_unit", "parse_source_tree"]

KEYWORDS = frozenset(
    """abstract assert boolean break byte case catch char class const continue
    default do double else enum extends final finally float for goto if
    implements import instanceof int interface long native new package private
    protected public return short static strictfp super switch synchronized
    this throw throws transient try void volatile while true false null""".split()
)

PRIMITIVE_TYPES = frozenset(
    "boolean byte char short int long float double void".split()
)

MODIFIERS = frozenset(
    """public private protected static final abstract synchronized native
    transient volatile strictfp""".split()
)

# Keywords that end a generic argument list: primitives and the bounds
# `extends` and `super` may appear inside one.
_NOT_IN_GENERICS = KEYWORDS - PRIMITIVE_TYPES - {"extends", "super"}


@dataclass(frozen=True)
class ParseDiagnostic:
    severity: str  # "warning" | "error"
    file: str
    line: int
    message: str


class _Token(NamedTuple):
    kind: str  # "ident" | "punct" | "literal" | "comment"
    text: str
    line: int


# One token string per match, in C.  Whitespace matches no alternative, so
# findall skips it; regex \s is exactly str.isspace and \w is exactly
# str.isalnum plus "_".  A newline is its own token so lines can be
# counted.  Comments and string or char literals may run unterminated to
# the end of the text.  A run that starts with a non-ASCII character is
# matched as broadly as any token it can begin, then split in `_lex`.
_TOKEN = re.compile(
    "|".join(
        (
            r"\n",
            r"[A-Za-z_$][\w$]*",  # identifier
            r"//[^\n]*",
            r"/\*.*?(?:\*/|\Z)",
            r"[0-9][\w.]*",  # number
            r'"[^"\\]*(?:\\.[^"\\]*)*(?:"|\\?\Z)',
            r"'[^'\\]*(?:\\.[^'\\]*)*(?:'|\\?\Z)",
            r"[^\x00-\x7f\s][\w$.]*",
            r"[^\s]",  # one punctuation character
        )
    ),
    re.DOTALL,
)

# Kind of a token by its first character, for the ASCII characters whose
# token needs no further look: "/" may open a comment, quotes a literal.
_ASCII_KIND = {
    ch: "ident" if ch.isalpha() or ch in "_$" else "literal" if ch.isdigit() else "punct"
    for ch in map(chr, range(128))
    if not ch.isspace() and ch not in "/\"'"
}


def _clean_comment(text: str) -> str:
    """Collapse control characters to spaces; comment text feeds XML and docs."""
    if text.isprintable():
        return text.strip()
    return "".join(ch if ch.isprintable() or ch == " " else " " for ch in text).strip()


def _literal_terminated(token: str) -> bool:
    """A quoted token ends with its own quote, not with an escaped one."""
    if len(token) < 2 or token[-1] != token[0]:
        return False
    body = token[:-1]
    return (len(body) - len(body.rstrip("\\"))) % 2 == 0


def _lex(text: str, file: str, diagnostics: list[ParseDiagnostic]) -> list[_Token]:
    tokens: list[_Token] = []
    append = tokens.append
    kinds = _ASCII_KIND
    line = 1
    for tok in _TOKEN.findall(text):
        first = tok[0]
        kind = kinds.get(first)
        if kind is not None:
            append(_Token(kind, tok, line))
        elif first == "\n":
            line += 1
        elif first == "/":
            if tok == "/":
                append(_Token("punct", tok, line))
            elif tok[1] == "/":
                append(_Token("comment", _clean_comment(tok[2:]), line))
            else:
                if len(tok) >= 4 and tok.endswith("*/"):
                    body = tok[2:-2]
                else:
                    diagnostics.append(
                        ParseDiagnostic("error", file, line, "unterminated block comment")
                    )
                    body = tok[2:]
                cleaned = " ".join(
                    _clean_comment(part.lstrip(" \t").lstrip("*"))
                    for part in body.splitlines()
                ).strip()
                append(_Token("comment", cleaned, line))
                line += body.count("\n")
        elif first == '"' or first == "'":
            if not _literal_terminated(tok):
                diagnostics.append(
                    ParseDiagnostic(
                        "error", file, line, "unterminated string or char literal"
                    )
                )
            append(_Token("literal", tok, line))
            line += tok.count("\n")
        else:
            # A run that starts outside ASCII.  Identifiers start where
            # str.isalpha holds and numbers where str.isdigit does, which
            # regex \w and \d draw differently ("²" is a digit but not \d,
            # "½" is \w but neither).  After its first character the run
            # holds only [\w$.], so each piece ends at the first character
            # its kind cannot continue with, and the next piece starts there.
            while tok:
                first = tok[0]
                if first.isalpha() or first in "_$":
                    kind, end = "ident", tok.find(".")
                elif first.isdigit():
                    kind, end = "literal", tok.find("$")
                else:
                    kind, end = "punct", 1
                if end < 0:
                    end = len(tok)
                append(_Token(kind, tok[:end], line))
                tok = tok[end:]
    return tokens


class _Cursor:
    """Linear token walker: balanced skips and the parts of a type."""

    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.n = len(tokens)
        self.i = 0

    def eof(self) -> bool:
        return self.i >= self.n

    def peek(self, offset: int = 0) -> _Token | None:
        j = self.i + offset
        return self.tokens[j] if j < self.n else None

    def take(self) -> _Token:
        token = self.tokens[self.i]
        self.i += 1
        return token

    def at_punct(self, ch: str, offset: int = 0) -> bool:
        j = self.i + offset
        if j >= self.n:
            return False
        token = self.tokens[j]
        return token.kind == "punct" and token.text == ch

    def at_name(self, offset: int = 0) -> bool:
        """An identifier that is not a keyword."""
        j = self.i + offset
        if j >= self.n:
            return False
        token = self.tokens[j]
        return token.kind == "ident" and token.text not in KEYWORDS

    def dims(self) -> str:
        """Consume `[]` pairs and return their text."""
        text = ""
        while self.at_punct("[") and self.at_punct("]", 1):
            self.i += 2
            text += "[]"
        return text

    def generic(self) -> str | None:
        """Consume a balanced `<...>` of type-like tokens and return its text.

        Anything else inside, or no closing `>`, consumes nothing: None.
        """
        if not self.at_punct("<"):
            return None
        tokens = self.tokens
        depth = 0
        for j in range(self.i, self.n):
            token = tokens[j]
            if token.kind == "punct":
                if token.text == "<":
                    depth += 1
                elif token.text == ">":
                    depth -= 1
                    if depth == 0:
                        text = "".join(t.text for t in tokens[self.i : j + 1])
                        self.i = j + 1
                        return text
                elif token.text not in ",.?[]":
                    return None
            elif token.kind != "ident" or token.text in _NOT_IN_GENERICS:
                return None
        return None

    def skip_balanced(self, opener: str, closer: str) -> bool:
        """Consume from the opener through its matching closer; False when
        the tokens end first."""
        tokens = self.tokens
        n = self.n
        i = self.i
        depth = 0
        while i < n:
            token = tokens[i]
            i += 1
            if token.kind == "punct":
                if token.text == opener:
                    depth += 1
                elif token.text == closer:
                    depth -= 1
                    if depth == 0:
                        self.i = i
                        return True
        self.i = i
        return False

    def skip_past_semicolon(self) -> None:
        tokens = self.tokens
        n = self.n
        i = self.i
        while i < n:
            token = tokens[i]
            i += 1
            if token.kind == "punct" and token.text == ";":
                break
        self.i = i


def _dotted_name(cursor: _Cursor) -> str:
    parts = []
    while True:
        token = cursor.peek()
        if token is None or token.kind != "ident":
            break
        parts.append(cursor.take().text)
        if cursor.at_punct(".") and cursor.at_name(1):
            cursor.take()
            continue
        break
    return ".".join(parts)


def parse_compilation_unit(
    text: str, file: str = "<memory>"
) -> tuple[PackageFact, list[ParseDiagnostic]]:
    """Extract one file's package fragment; never raises on source content."""
    diagnostics: list[ParseDiagnostic] = []
    cursor = _Cursor(_lex(text, file, diagnostics))
    package_name = ""
    classes: list[ClassFact] = []
    pending: list[_Token] = []

    while not cursor.eof():
        token = cursor.peek()
        if token.kind == "comment":
            if token.text:
                pending.append(token)
            cursor.take()
            continue
        if token.kind == "ident":
            word = token.text
            if word == "package":
                cursor.take()
                package_name = _dotted_name(cursor)
                cursor.skip_past_semicolon()
                continue
            if word == "import":
                cursor.take()
                cursor.skip_past_semicolon()
                continue
            if word in MODIFIERS:
                cursor.take()
                continue
            if word == "class":
                cls = _parse_class(cursor, file, diagnostics, pending)
                pending = []
                if cls is not None:
                    classes.append(cls)
                continue
            if word in ("interface", "enum"):
                diagnostics.append(
                    ParseDiagnostic(
                        "warning", file, token.line, f"{word} declaration skipped"
                    )
                )
                _skip_type_declaration(cursor, file, diagnostics)
                pending = []
                continue
            diagnostics.append(
                ParseDiagnostic(
                    "warning",
                    file,
                    token.line,
                    f"unrecognized top-level construct near {word!r}",
                )
            )
            cursor.take()
            continue
        if token.kind == "punct" and token.text == "@":
            _skip_annotation(cursor, file, diagnostics)
            continue
        if token.kind == "punct" and token.text == ";":
            cursor.take()
            continue
        diagnostics.append(
            ParseDiagnostic(
                "warning",
                file,
                token.line,
                f"unrecognized top-level token {token.text!r}",
            )
        )
        cursor.take()

    return PackageFact(name=package_name, classes=tuple(classes)), diagnostics


def _skip_annotation(
    cursor: _Cursor, file: str, diagnostics: list[ParseDiagnostic]
) -> None:
    at = cursor.take()  # "@"
    name = _dotted_name(cursor) or "?"
    if cursor.at_punct("("):
        cursor.skip_balanced("(", ")")
    diagnostics.append(
        ParseDiagnostic("warning", file, at.line, f"annotation @{name} ignored")
    )


def _skip_type_declaration(
    cursor: _Cursor, file: str, diagnostics: list[ParseDiagnostic]
) -> None:
    """Skip a declaration headed by `class`, `interface` or `enum`.

    A body that runs to the end of the file is an error at its `{` line.
    """
    keyword = cursor.take()
    name = cursor.peek().text if cursor.at_name() else "?"
    while not cursor.eof() and not cursor.at_punct("{"):
        if cursor.at_punct(";"):
            cursor.take()
            return
        cursor.take()
    if cursor.at_punct("{"):
        open_brace = cursor.peek()
        if not cursor.skip_balanced("{", "}"):
            diagnostics.append(
                ParseDiagnostic(
                    "error",
                    file,
                    open_brace.line,
                    f"unterminated body of {keyword.text} {name!r}",
                )
            )


def _parse_class(
    cursor: _Cursor,
    file: str,
    diagnostics: list[ParseDiagnostic],
    pending: list[_Token],
) -> ClassFact | None:
    class_token = cursor.take()  # "class"
    name_token = cursor.peek()
    if name_token is None or name_token.kind != "ident":
        diagnostics.append(
            ParseDiagnostic(
                "error", file, class_token.line, "class keyword without a name"
            )
        )
        return None
    builder = _ClassBuilder(cursor.take().text, file, diagnostics)
    builder.comments.extend(CommentFact(text=c.text, kind="class-level") for c in pending)

    if cursor.generic() is not None:
        builder.warn(name_token.line, "generic type parameters ignored")
    while not cursor.eof() and not cursor.at_punct("{"):
        token = cursor.peek()
        if token.kind == "ident" and token.text == "extends":
            cursor.take()
            builder.superclass = _dotted_name(cursor) or None
            if cursor.generic() is not None:
                builder.warn(token.line, "generic superclass arguments ignored")
            continue
        if token.kind == "ident" and token.text == "implements":
            builder.warn(token.line, "implements clause ignored")
            while not cursor.eof() and not cursor.at_punct("{"):
                cursor.take()
            break
        cursor.take()
    if not cursor.at_punct("{"):
        diagnostics.append(
            ParseDiagnostic(
                "error", file, class_token.line, f"class {builder.name} has no body"
            )
        )
        return None
    _parse_class_body(cursor, builder)
    return builder.finish()


@dataclass
class _PendingMethod:
    name: str
    parameters: list[tuple[str, str]]
    body: list[_Token]
    leading_comments: list[str]
    line: int


class _ClassBuilder:
    def __init__(self, name: str, file: str, diagnostics: list[ParseDiagnostic]):
        self.name = name
        self.file = file
        self.diagnostics = diagnostics
        self.superclass: str | None = None
        self.comments: list[CommentFact] = []
        self.attributes: list[AttributeFact] = []
        self.methods: list[_PendingMethod] = []

    def warn(self, line: int, message: str) -> None:
        self.diagnostics.append(
            ParseDiagnostic("warning", self.file, line, message)
        )

    def error(self, line: int, message: str) -> None:
        self.diagnostics.append(ParseDiagnostic("error", self.file, line, message))

    def add_field(self, name: str, declared_type: str, line: int) -> None:
        if any(a.name == name for a in self.attributes):
            self.warn(line, f"duplicate field {name!r} skipped")
            return
        self.attributes.append(AttributeFact(name=name, declared_type=declared_type))

    def add_method(self, method: _PendingMethod) -> None:
        signature = (method.name, len(method.parameters))
        if any(
            (m.name, len(m.parameters)) == signature for m in self.methods
        ):
            self.warn(
                method.line,
                f"duplicate method signature {method.name!r}"
                f"/{len(method.parameters)} skipped",
            )
            return
        self.methods.append(method)

    def finish(self) -> ClassFact:
        field_names = {a.name for a in self.attributes}
        methods = tuple(
            _scan_method_body(pending, field_names) for pending in self.methods
        )
        return ClassFact(
            name=self.name,
            superclass=self.superclass,
            attributes=tuple(self.attributes),
            methods=methods,
            comments=tuple(self.comments),
        )


def _parse_class_body(cursor: _Cursor, builder: _ClassBuilder) -> None:
    open_brace = cursor.take()
    pending: list[_Token] = []
    while True:
        token = cursor.peek()
        if token is None:
            builder.error(
                open_brace.line, f"unterminated body of class {builder.name!r}"
            )
            break
        if token.kind == "punct" and token.text == "}":
            cursor.take()
            break
        if token.kind == "comment":
            if token.text:
                pending.append(token)
            cursor.take()
            continue
        if token.kind == "punct" and token.text == ";":
            cursor.take()
            continue
        if token.kind == "punct" and token.text == "@":
            _skip_annotation(cursor, builder.file, builder.diagnostics)
            continue
        if token.kind == "punct" and token.text == "{":
            builder.warn(token.line, "initializer block skipped")
            cursor.skip_balanced("{", "}")
            continue
        if token.kind == "punct" and token.text == "<":
            if cursor.generic() is not None:  # of a generic method
                builder.warn(token.line, "generic type parameters ignored")
                continue
        if token.kind == "ident" and token.text in MODIFIERS:
            cursor.take()
            continue
        if token.kind == "ident" and token.text in ("class", "interface", "enum"):
            builder.warn(token.line, f"nested {token.text} skipped")
            _skip_type_declaration(cursor, builder.file, builder.diagnostics)
            continue
        if token.kind == "ident":
            pending = _parse_member(cursor, builder, pending)
            continue
        builder.warn(token.line, f"unrecognized token {token.text!r} in class body")
        cursor.take()
    # trailing comments with no following member belong to the class
    builder.comments.extend(
        CommentFact(text=c.text, kind="class-level") for c in pending
    )


def _read_type_text(cursor: _Cursor, builder: _ClassBuilder | None) -> str | None:
    """Dotted type name with optional generic suffix and [] pairs.

    A generic suffix is warned about through `builder`, if one is given.
    """
    token = cursor.peek()
    if token is None or token.kind != "ident":
        return None
    if token.text in KEYWORDS and token.text not in PRIMITIVE_TYPES:
        return None
    text = _dotted_name(cursor)
    generic = cursor.generic()
    if generic is not None:
        if builder is not None:
            builder.warn(token.line, "generic type arguments ignored")
        text += generic
    return text + cursor.dims()


def _parse_member(
    cursor: _Cursor, builder: _ClassBuilder, pending: list[_Token]
) -> list[_Token]:
    start_line = cursor.peek().line
    type_text = _read_type_text(cursor, builder)
    if type_text is None:
        builder.warn(start_line, "unrecognized member skipped")
        cursor.take()
        return pending

    if cursor.at_punct("(") and type_text == builder.name:
        _parse_callable(cursor, builder, builder.name, pending, start_line)
        return []

    if not cursor.at_name():
        builder.warn(start_line, f"unrecognized member after type {type_text!r}")
        if not (cursor.eof() or cursor.at_punct("}")):  # `}` ends the class
            cursor.take()
        return pending
    member_name = cursor.take().text

    if cursor.at_punct("("):
        _parse_callable(cursor, builder, member_name, pending, start_line)
        return []

    # field declaration, possibly with several declarators
    builder.add_field(member_name, type_text + cursor.dims(), start_line)
    extras, cursor.i = _more_declarators(cursor.tokens, cursor.i, type_text)
    for _, name, declared_type in extras:
        builder.add_field(name, declared_type, start_line)
    return pending


def _more_declarators(
    tokens: list[_Token], start: int, base_type: str
) -> tuple[list[tuple[int, str, str]], int]:
    """The declarators after the first one of a field or local declaration.

    Scans from `start` at bracket depth 0 up to the `;` or the unbalanced
    closer that ends the statement, and returns the end index with the
    (index, name, type) of each extra declarator: a name after a `,` whose
    `[]` pairs are followed by `=`, `,` or `;`.  Its type is `base_type`
    plus its own pairs.
    """
    n = len(tokens)
    found = []
    depth = 0
    k = start
    while k < n:
        token = tokens[k]
        if token.kind == "punct":
            text = token.text
            if text in "([{":
                depth += 1
            elif text in ")]}":
                if depth == 0:
                    break
                depth -= 1
            elif text == ";" and depth == 0:
                break
            elif text == "," and depth == 0 and k + 1 < n:
                name = tokens[k + 1]
                if name.kind == "ident" and name.text not in KEYWORDS:
                    dims = ""
                    m = k + 2
                    while (
                        m + 1 < n
                        and tokens[m][:2] == ("punct", "[")
                        and tokens[m + 1][:2] == ("punct", "]")
                    ):
                        dims += "[]"
                        m += 2
                    if m < n and tokens[m].kind == "punct" and tokens[m].text in "=,;":
                        found.append((k + 1, name.text, base_type + dims))
        k += 1
    return found, k


def _parse_callable(
    cursor: _Cursor,
    builder: _ClassBuilder,
    name: str,
    pending: list[_Token],
    line: int,
) -> None:
    parameters = _parse_parameters(cursor, builder)
    while not cursor.eof() and not (cursor.at_punct("{") or cursor.at_punct(";")):
        cursor.take()  # a `throws` clause, not modeled
    body: list[_Token] = []
    if cursor.at_punct("{"):
        start = cursor.i
        if cursor.skip_balanced("{", "}"):
            body = cursor.tokens[start + 1 : cursor.i - 1]
        else:
            body = cursor.tokens[start + 1 :]
            builder.error(
                cursor.tokens[start].line, f"unterminated body of method {name!r}"
            )
    elif cursor.at_punct(";"):
        cursor.take()
    builder.add_method(
        _PendingMethod(
            name=name,
            parameters=parameters,
            body=body,
            leading_comments=[c.text for c in pending],
            line=line,
        )
    )


def _parse_parameters(
    cursor: _Cursor, builder: _ClassBuilder
) -> list[tuple[str, str]]:
    parameters: list[tuple[str, str]] = []
    open_token = cursor.take()  # "("
    while not cursor.eof() and not cursor.at_punct(")"):
        if cursor.at_punct("@"):
            _skip_annotation(cursor, builder.file, builder.diagnostics)
            continue
        type_text = _read_type_text(cursor, builder)
        if type_text is None:  # `final` included
            cursor.take()
            continue
        dots = 0  # varargs: three dot tokens before the name
        while cursor.at_punct("."):
            cursor.take()
            dots += 1
        if dots == 3:
            builder.warn(open_token.line, "varargs parameter treated as array")
            type_text += "[]"
        if cursor.at_name():
            name_token = cursor.take()
            type_text += cursor.dims()
            if any(existing == name_token.text for existing, _ in parameters):
                builder.warn(
                    name_token.line, f"duplicate parameter {name_token.text!r} skipped"
                )
            else:
                parameters.append((name_token.text, type_text))
        if cursor.at_punct(","):
            cursor.take()
    if cursor.at_punct(")"):
        cursor.take()
    return parameters


def _scan_method_body(pending: _PendingMethod, field_names: set[str]) -> MethodFact:
    """Token scan for locals, accesses, invocations, and in-body comments."""
    locals_found: list[tuple[str, str]] = []
    accesses: list[str] = []
    invocations: list[str] = []
    comments = [
        CommentFact(text=text, kind="method-level")
        for text in pending.leading_comments
        if text
    ]

    tokens = pending.body
    cursor = _Cursor(tokens)
    consumed: set[int] = set()
    n = len(tokens)

    j = 0
    while j < n:
        token = tokens[j]
        if token.kind == "comment":
            if token.text:
                comments.append(CommentFact(text=token.text, kind="method-level"))
            j += 1
            continue
        if token.kind != "ident" or j in consumed:
            j += 1
            continue
        word = token.text
        if word == "this":
            if (
                j + 2 < n
                and tokens[j + 1].kind == "punct"
                and tokens[j + 1].text == "."
                and tokens[j + 2].kind == "ident"
            ):
                target = tokens[j + 2].text
                follows = tokens[j + 3] if j + 3 < n else None
                if follows is not None and follows.kind == "punct" and follows.text == "(":
                    invocations.append(target)
                else:
                    accesses.append(target)
                consumed.add(j + 2)
            j += 1
            continue
        if word in KEYWORDS and word not in PRIMITIVE_TYPES:
            j += 1
            continue
        nxt = tokens[j + 1] if j + 1 < n else None
        if nxt is not None and nxt.kind == "punct" and nxt.text == "(":
            if word not in PRIMITIVE_TYPES:
                invocations.append(word)
            j += 1
            continue
        # a type goes on with `.`, `<` or `[`, or is followed by the name
        if nxt is not None and (nxt.kind == "ident" or nxt.text in ".<["):
            cursor.i = j
            declared = _match_declaration(cursor, consumed)
            if declared is not None:
                locals_found.extend(declared)
                j = cursor.i
                continue
        if word in field_names:
            accesses.append(word)
        j += 1
    return MethodFact(
        name=pending.name,
        parameters=tuple(pending.parameters),
        local_variables=tuple(locals_found),
        comments=tuple(comments),
        attribute_accesses=tuple(accesses),
        method_invocations=tuple(invocations),
    )


def _match_declaration(
    cursor: _Cursor, consumed: set[int]
) -> list[tuple[str, str]] | None:
    """Match `Type name` at an identifier that may start a type; returns the
    declared (name, type) pairs with the cursor just past the first
    declarator name, or None.

    The type is read as a field's is, without its generic warning.  Only
    the type and the first declarator name are consumed; initializer
    expressions remain visible to the main scan so the calls and field
    reads inside them are still recorded.  Extra declarator names are
    marked in `consumed` instead.
    """
    type_text = _read_type_text(cursor, None)
    if type_text is None or not cursor.at_name():
        return None
    name = cursor.take().text
    dims = cursor.dims()
    follows = cursor.peek()
    if follows is None or follows.kind != "punct" or follows.text not in "=;,:)":
        return None
    extras, _ = _more_declarators(cursor.tokens, cursor.i, type_text)
    consumed.update(index for index, _, _ in extras)
    return [(name, type_text + dims), *((extra, t) for _, extra, t in extras)]


def parse_source_tree(root: str | Path) -> tuple[CodeFacts, list[ParseDiagnostic]]:
    """Parse every .java file under `root`, merged in sorted-path order."""
    root = Path(root)
    if not root.exists():
        raise OSError(f"source root does not exist: {root}")
    if not root.is_dir():
        raise OSError(f"source root is not a directory: {root}")
    diagnostics: list[ParseDiagnostic] = []
    # package name -> class name -> class, both in first-seen order
    package_classes: dict[str, dict[str, ClassFact]] = {}
    for path in sorted(root.rglob("*.java")):
        try:
            text = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            diagnostics.append(
                ParseDiagnostic("error", str(path), 1, f"unreadable file: {exc}")
            )
            continue
        fragment, file_diagnostics = parse_compilation_unit(text, str(path))
        diagnostics.extend(file_diagnostics)
        kept = package_classes.setdefault(fragment.name, {})
        for cls in fragment.classes:
            if cls.name in kept:
                diagnostics.append(
                    ParseDiagnostic(
                        "warning",
                        str(path),
                        1,
                        f"duplicate class {cls.name!r} in package"
                        f" {fragment.name!r} skipped",
                    )
                )
                continue
            kept[cls.name] = cls
    packages = tuple(
        PackageFact(name=name, classes=tuple(classes.values()))
        for name, classes in package_classes.items()
    )
    facts = CodeFacts(packages=packages, provenance=str(root))
    return facts, diagnostics
