"""Token-level Java source scanner that extracts code facts.

Recognized subset: package declarations, top-level classes (several per
file allowed), `extends`, fields, methods and constructors, parameters,
local variable declarations (plain statements and `for` headers), line and
block comments, plus token-level attribute accesses and method
invocations inside bodies.  Imports and `throws` clauses are read and
deliberately not modeled.  Annotations (on parameters too), generic type
parameters of classes and methods, interfaces, enums, annotation type
declarations (`@interface`), inner classes, and initializer blocks are
skipped with a warning diagnostic; a body that runs to the end of the file,
of a class, a method or a skipped type, is an error.  Nothing is dropped
silently, except from the Java 16-17 forms that the scanner does not know
yet: records, `sealed`, `non-sealed` and `permits`, and `yield` in a switch
expression.  A file that is not UTF-8 is read as ISO-8859-1 with a warning.

Comments never reach the token list: the lexer sets each nonempty one
aside with the index of the token after it, and the cursor hands them out
in order, each declaration taking its own where it is read.  A class takes
as class-level those before its `{`, and at its `}` whatever no method
took.  A method takes as method-level every comment up to the end of its
body, so also those before the fields since the previous method; a body
that runs to the end of the file ends there.  A skipped type declaration
or initializer block drops its comments, as does the end of the file.

Fields, parameters and locals read a declared type the same way: a dotted
name, its generic arguments (kept in the type text, with a warning on
fields and parameters; `List<String> xs` is a local too) and `[]` pairs.
A declarator's own `[]` pairs after its name join its type, and each
extra declarator of `int a, b[];` gets the base type plus its own pairs.
A member whose generic arguments do not close is skipped to the end of
its declaration, with one warning.  Generic arguments are read by one scan
that settles each `<` it passes: closed by the `>` that ends it, or never,
when a token no type argument may hold (or the end) comes first.  So no `<`
is scanned from twice, and `f(a < b, a < b, ...)` reads in linear time.

Detection rules inside a method body are intentionally token-level: any
`name(` occurrence that is not a keyword counts as an invocation, and an
identifier counts as an attribute access when it names a field declared in
the same class or is written `this.name`.  Recall matters more than
precision here; the facts feed a text corpus, not a call graph.

Lexing is one compiled regular expression: `findall` returns every token
string in C, skipping whitespace, and one Python pass keeps those strings
as the tokens.  No token carries a line number: the pass records, for each
newline, the index of the token after it, and a diagnostic's line is found
from that list only when the diagnostic is made.  The pass also reports
unterminated comments and literals and cleans comment text.  A token's
kind is read from its first character: an ASCII letter, `_`, `$` or a
non-ASCII `str.isalpha` character starts an identifier, a digit or a quote
a literal, and anything else is punctuation.  A run that starts outside
ASCII is split by the `str` predicates, because the regex word and digit
classes draw them differently.
"""

from __future__ import annotations

import os
import re
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

from .errors import refused
from .facts import (
    AttributeFact,
    ClassFact,
    CodeFacts,
    CommentFact,
    MethodFact,
    PackageFact,
    _slot_init,
)

__all__ = [
    "ParseDiagnostic", "parse_compilation_unit", "parse_source_files",
    "source_provenance", "parse_source_tree",
]

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

# Keywords that cannot start a type.
_NON_TYPE_KEYWORDS = KEYWORDS - PRIMITIVE_TYPES

# Keywords that end a generic argument list: primitives and the bounds
# `extends` and `super` may appear inside one.
_NOT_IN_GENERICS = _NON_TYPE_KEYWORDS - {"extends", "super"}


@_slot_init
@dataclass(frozen=True, slots=True)
class ParseDiagnostic:
    severity: str  # "warning" | "error"
    file: str
    line: int
    message: str


# One token string per match, in C: the group, after the whitespace that
# precedes it.  Regex \s is exactly str.isspace and \w is exactly
# str.isalnum plus "_".  A newline is its own token so lines can be
# counted.  Comments and string or char literals may run unterminated to
# the end of the text.  A run that starts with a non-ASCII character is
# matched as broadly as any token it can begin, then split in `_lex`.
# Whitespace at the end of the text matches the second branch, as one
# empty string: left unmatched, it would be rescanned from each of its
# positions, in time quadratic in its length.
_TOKEN = re.compile(
    r"[^\S\n]*("
    + "|".join(
        (
            r"\n",
            r"[A-Za-z_$][\w$]*",  # identifier
            r"//[^\n]*",
            r"/\*[^*]*\*+(?:[^/*][^*]*\*+)*/|/\*.*",
            r"[0-9][\w.]*",  # number
            r'"[^"\\]*(?:\\.[^"\\]*)*(?:"|\\?\Z)',
            r"'[^'\\]*(?:\\.[^'\\]*)*(?:'|\\?\Z)",
            r"[^\x00-\x7f\s][\w$.]*",
            r"[^\s]",  # one punctuation character
        )
    )
    + r")|[^\S\n]+\Z",
    re.DOTALL,
)

# The first characters of an ASCII identifier or keyword.
_IDENT_STARTS = frozenset(
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_$"
)

# The first characters of the ASCII tokens after which an identifier in a
# method body may be a type: another identifier, or `.`, `<` or `[`, each a
# token of its own.
_TYPE_GOES_ON = _IDENT_STARTS | {".", "<", "["}


def _is_ident(token: str) -> bool:
    """An identifier or keyword: it starts with a letter, `_` or `$`."""
    first = token[:1]
    return first in _IDENT_STARTS or first > "\x7f" and first.isalpha()


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


def _lex(
    text: str,
) -> tuple[list[str], list[int], list[tuple[int, str]], list[tuple[int, str]]]:
    """The code tokens, the line breaks, the (index of the next token,
    cleaned text) of each nonempty comment, and the (line, message) of each
    unterminated comment or literal.

    The line breaks hold one entry per newline of the text, also for those
    inside comments and literals: the index of the first token that starts
    after it.  A token's line is one more than the number of entries up to
    its index (`_Cursor.line`).
    """
    tokens: list[str] = []
    breaks: list[int] = []
    comments: list[tuple[int, str]] = []
    errors: list[tuple[int, str]] = []
    found = _TOKEN.findall(text)
    if found and not found[-1]:  # the whitespace at the end
        found.pop()
    for tok in found:
        first = tok[0]
        if "/" < first < "\x80":  # ASCII after "/": opens no comment or literal
            tokens.append(tok)
        elif first == "\n":
            breaks.append(len(tokens))
        elif first == "/" and tok != "/":
            if tok[1] == "/":
                cleaned = _clean_comment(tok[2:])
            else:
                if len(tok) >= 4 and tok.endswith("*/"):
                    body = tok[2:-2]
                else:
                    errors.append((len(breaks) + 1, "unterminated block comment"))
                    body = tok[2:]
                cleaned = " ".join(
                    _clean_comment(part.lstrip(" \t").lstrip("*"))
                    for part in body.splitlines()
                ).strip()
                breaks += [len(tokens)] * tok.count("\n")
            if cleaned:
                comments.append((len(tokens), cleaned))
        elif first == '"' or first == "'":
            if not _literal_terminated(tok):
                errors.append((len(breaks) + 1, "unterminated string or char literal"))
            tokens.append(tok)
            breaks += [len(tokens)] * tok.count("\n")
        elif first < "\x80":  # punctuation before "/", and "/" itself
            tokens.append(tok)
        else:
            # A run that starts outside ASCII.  Identifiers start where
            # str.isalpha holds and numbers where str.isdigit does, which
            # regex \w and \d draw differently ("²" is a digit but not \d,
            # "½" is \w but neither).  After its first character the run
            # holds only [\w$.], so each piece ends at the first character
            # its kind cannot continue with, and the next piece starts there.
            while tok:
                if _is_ident(tok):
                    end = tok.find(".")
                elif tok[0].isdigit():
                    end = tok.find("$")
                else:
                    end = 1
                if end < 0:
                    end = len(tok)
                tokens.append(tok[:end])
                tok = tok[end:]
    return tokens, breaks, comments, errors


class _Cursor:
    """Linear token walker: balanced skips, the parts of a type, the file's
    comments and its diagnostics."""

    def __init__(
        self,
        tokens: list[str],
        breaks: Sequence[int] = (),
        comments: Sequence[tuple[int, str]] = (),
        file: str = "<memory>",
    ):
        self.reset(tokens)
        self.breaks = breaks
        self.comments = comments
        self.taken = 0  # comments handed out
        self.file = file
        self.diagnostics: list[ParseDiagnostic] = []

    def reset(self, tokens: list[str]) -> None:
        """Walk `tokens` from the start: set every field that depends on
        the token list."""
        self.tokens = tokens
        self.n = len(tokens)
        self.i = 0
        # the index of the `>` that closes the `<` at each index, or -1
        self.closers: dict[int, int] = {}

    def line(self, index: int) -> int:
        """The line of the token at `index`."""
        return bisect_right(self.breaks, index) + 1

    def warn(self, index: int, message: str) -> None:
        """A warning at the line of the token at `index`."""
        self.diagnostics.append(
            ParseDiagnostic("warning", self.file, self.line(index), message)
        )

    def error(self, index: int, message: str) -> None:
        """An error at the line of the token at `index`."""
        self.diagnostics.append(
            ParseDiagnostic("error", self.file, self.line(index), message)
        )

    def eof(self) -> bool:
        return self.i >= self.n

    def peek(self, offset: int = 0) -> str:
        """The token at `offset`, or "" past the end."""
        j = self.i + offset
        return self.tokens[j] if j < self.n else ""

    def take(self) -> str:
        token = self.tokens[self.i]
        self.i += 1
        return token

    def take_comments(self) -> list[str]:
        """The texts of the comments not yet taken that lie before the
        cursor, or of every one left once the tokens are all read."""
        start = self.taken
        end = self.i if self.i < self.n else self.n + 1
        self.taken = bisect_left(self.comments, (end,), start)
        return [text for _, text in self.comments[start : self.taken]]

    def at_name(self, offset: int = 0) -> bool:
        """An identifier that is not a keyword."""
        j = self.i + offset
        if j >= self.n:
            return False
        token = self.tokens[j]
        return _is_ident(token) and token not in KEYWORDS

    def type_keyword(self) -> str | None:
        """The keyword of a type declaration that starts at the cursor, with
        `@interface` as one word, or None."""
        i = self.i
        token = self.tokens[i] if i < self.n else ""
        if token in ("class", "interface", "enum"):
            return token
        if token == "@" and self.peek(1) == "interface":
            return "@interface"
        return None

    def dims(self) -> str:
        """Consume `[]` pairs and return their text."""
        text = _dims(self.tokens, self.i)
        self.i += len(text)
        return text

    def generic(self) -> str | None:
        """Consume a balanced `<...>` of type-like tokens and return its text.

        Anything else inside, or no closing `>`, consumes nothing: None.
        One scan settles, in `closers`, every `<` it passes: each closes
        where the scan pops it, or not at all if still open where the scan
        stops, so no `<` is scanned from twice.
        """
        tokens = self.tokens
        start = self.i
        if start >= self.n or tokens[start] != "<":
            return None
        closers = self.closers
        end = closers.get(start)
        if end is None:
            opened = []
            for j in range(start, self.n):
                token = tokens[j]
                if token == "<":
                    opened.append(j)
                elif token == ">":
                    closers[opened.pop()] = j
                    if not opened:
                        break
                elif token not in (",", ".", "?", "[", "]") and (
                    not _is_ident(token) or token in _NOT_IN_GENERICS
                ):
                    break
            for j in opened:
                closers[j] = -1
            end = closers[start]
        if end < 0:
            return None
        self.i = end + 1
        return "".join(tokens[start : end + 1])

    def skip_balanced(self, opener: str, closer: str) -> bool:
        """Consume from the opener at the cursor through its matching
        closer; False when the tokens end first."""
        tokens = self.tokens
        depth = 0
        i = self.i  # the opener, counted by the first slice
        while True:
            try:
                j = tokens.index(closer, i + 1)
            except ValueError:
                self.i = self.n
                return False
            depth += tokens[i:j].count(opener) - 1
            i = j
            if depth == 0:
                self.i = j + 1
                return True

    def skip_past_semicolon(self) -> None:
        try:
            self.i = self.tokens.index(";", self.i) + 1
        except ValueError:
            self.i = self.n

    def body(self, kind: str, name: str) -> list[str]:
        """Consume a declaration's head up to its first `{` or `;`, then the
        `;` or the balanced `{...}`, and return the tokens inside the braces,
        or [] at a `;` or the end.  A body that runs to the end of the tokens
        keeps them all, and is an error at its `{`: `unterminated body of
        {kind} {name!r}`."""
        tokens = self.tokens
        n = self.n
        i = self.i
        while i < n and tokens[i] not in ("{", ";"):
            i += 1
        self.i = i
        if i == n:
            return []
        if tokens[i] == ";":
            self.i += 1
            return []
        if self.skip_balanced("{", "}"):
            return tokens[i + 1 : self.i - 1]
        self.error(i, f"unterminated body of {kind} {name!r}")
        return tokens[i + 1 :]


def _dims(tokens: list[str], start: int) -> str:
    """The text of the `[]` pairs from `start`, one character per token."""
    end = start
    while end + 1 < len(tokens) and tokens[end] == "[" and tokens[end + 1] == "]":
        end += 2
    return "[]" * ((end - start) // 2)


def _dotted_name(cursor: _Cursor) -> str:
    """Consume an identifier and each `.name` after it; "" at anything else."""
    tokens = cursor.tokens
    start = cursor.i
    if start == cursor.n or not _is_ident(tokens[start]):
        return ""
    cursor.i += 1
    while cursor.i < cursor.n and tokens[cursor.i] == "." and cursor.at_name(1):
        cursor.i += 2
    return "".join(tokens[start : cursor.i])


def parse_compilation_unit(
    text: str, file: str = "<memory>"
) -> tuple[PackageFact, list[ParseDiagnostic]]:
    """Extract one file's package fragment; never raises on source content."""
    tokens, breaks, comments, errors = _lex(text)
    cursor = _Cursor(tokens, breaks, comments, file)
    cursor.diagnostics.extend(
        ParseDiagnostic("error", file, line, message) for line, message in errors
    )
    package_name = ""
    classes: list[ClassFact] = []

    while not cursor.eof():
        token = cursor.peek()
        keyword = cursor.type_keyword()
        if keyword == "class":
            cls = _parse_class(cursor)
            if cls is not None:
                classes.append(cls)
        elif keyword is not None:
            _skip_type_declaration(cursor, keyword, "{} declaration skipped")
        elif token == "package":
            cursor.take()
            package_name = _dotted_name(cursor)
            cursor.skip_past_semicolon()
        elif token == "import":
            cursor.take()
            cursor.skip_past_semicolon()
        elif token in MODIFIERS or token == ";":
            cursor.take()
        elif token == "@":
            _skip_annotation(cursor)
        else:
            what = "construct near" if _is_ident(token) else "token"
            cursor.warn(cursor.i, f"unrecognized top-level {what} {token!r}")
            cursor.take()

    # comments after the last declaration are dropped
    return PackageFact(name=package_name, classes=tuple(classes)), cursor.diagnostics


def _skip_annotation(cursor: _Cursor) -> None:
    start = cursor.i
    cursor.take()  # "@"
    name = _dotted_name(cursor) or "?"
    if cursor.peek() == "(":
        cursor.skip_balanced("(", ")")
    cursor.warn(start, f"annotation @{name} ignored")


def _skip_type_declaration(cursor: _Cursor, keyword: str, warning: str) -> None:
    """Skip the type declaration headed by `keyword` at the cursor, with the
    warning `warning` formatted with that keyword, and drop the comments
    not yet taken up to its end."""
    start = cursor.i
    cursor.i += 2 if keyword == "@interface" else 1  # `@`, then `interface`
    cursor.warn(start, warning.format(keyword))
    name = cursor.peek() if cursor.at_name() else "?"
    cursor.body(keyword, name)
    cursor.take_comments()


def _parse_class(cursor: _Cursor) -> ClassFact | None:
    start = cursor.i
    cursor.take()  # "class"
    if not _is_ident(cursor.peek()):
        cursor.error(start, "class keyword without a name")
        return None
    name_at = cursor.i
    builder = _ClassBuilder(cursor.take(), cursor)

    if cursor.generic() is not None:
        cursor.warn(name_at, "generic type parameters ignored")
    while not cursor.eof() and cursor.peek() != "{":
        at = cursor.i
        token = cursor.take()
        if token == "extends":
            builder.superclass = _dotted_name(cursor) or None
            if cursor.generic() is not None:
                cursor.warn(at, "generic superclass arguments ignored")
        elif token == "implements":
            cursor.warn(at, "implements clause ignored")
            while not cursor.eof() and cursor.peek() != "{":
                cursor.take()
    if cursor.peek() != "{":
        cursor.error(start, f"class {builder.name} has no body")
        return None
    open_brace = cursor.i
    cursor.take()  # "{"
    builder.comments += cursor.take_comments()  # those of the header
    tokens = cursor.tokens
    while True:
        if cursor.i >= cursor.n:
            cursor.error(open_brace, f"unterminated body of class {builder.name!r}")
            break
        token = tokens[cursor.i]
        if token == "}":
            cursor.i += 1
            break
        if token == ";" or token in MODIFIERS:
            cursor.i += 1
            continue
        keyword = cursor.type_keyword()
        if keyword is not None:
            _skip_type_declaration(cursor, keyword, "nested {} skipped")
            continue
        if token == "@":
            _skip_annotation(cursor)
            continue
        if token == "{":
            cursor.warn(cursor.i, "initializer block skipped")
            cursor.skip_balanced("{", "}")
            cursor.take_comments()  # dropped with the block
            continue
        if token == "<":  # type parameters of a generic method
            at = cursor.i
            if cursor.generic() is not None:
                cursor.warn(at, "generic type parameters ignored")
                continue
        first = token[0]
        if first in _IDENT_STARTS or first > "\x7f" and first.isalpha():
            _parse_member(cursor, builder)
            continue
        cursor.warn(cursor.i, f"unrecognized token {token!r} in class body")
        cursor.i += 1
    builder.comments += cursor.take_comments()  # those no method took
    return builder.finish()


@dataclass
class _PendingMethod:
    name: str
    parameters: dict[str, str]  # name -> type
    body: list[str]
    comments: list[str]
    start: int  # index of the member's first token


class _ClassBuilder:
    def __init__(self, name: str, cursor: _Cursor):
        self.name = name
        self.cursor = cursor
        self.superclass: str | None = None
        self.comments: list[str] = []  # class-level
        self.attributes: dict[str, AttributeFact] = {}  # by name
        self.methods: dict[tuple[str, int], _PendingMethod] = {}  # by name, arity

    def add_field(self, name: str, declared_type: str, start: int) -> None:
        if name in self.attributes:
            self.cursor.warn(start, f"duplicate field {name!r} skipped")
            return
        self.attributes[name] = AttributeFact(name, declared_type)

    def add_method(self, method: _PendingMethod) -> None:
        signature = (method.name, len(method.parameters))
        if signature in self.methods:
            self.cursor.warn(
                method.start,
                f"duplicate method signature {method.name!r}"
                f"/{len(method.parameters)} skipped",
            )
            return
        self.methods[signature] = method

    def finish(self) -> ClassFact:
        scanner = _Cursor([])  # reads each body in turn
        return ClassFact(
            self.name,
            self.superclass,
            tuple(self.attributes.values()),
            tuple(
                [
                    _scan_method_body(pending, self.attributes, scanner)
                    for pending in self.methods.values()
                ]
            ),
            tuple([CommentFact(text, "class-level") for text in self.comments]),
        )


def _read_type_text(cursor: _Cursor, warn: bool) -> str | None:
    """Dotted type name with optional generic suffix and [] pairs.

    A generic suffix is warned about when `warn` is set.
    """
    start = cursor.i
    token = cursor.peek()
    if not _is_ident(token) or token in _NON_TYPE_KEYWORDS:
        return None
    text = _dotted_name(cursor)
    generic = cursor.generic()
    if generic is not None:
        if warn:
            cursor.warn(start, "generic type arguments ignored")
        text += generic
    return text + cursor.dims()


def _parse_member(cursor: _Cursor, builder: _ClassBuilder) -> None:
    start = cursor.i
    type_text = _read_type_text(cursor, warn=True)
    if type_text is None:
        cursor.warn(start, "unrecognized member skipped")
        cursor.take()
        return

    if cursor.peek() == "(" and type_text == builder.name:
        _parse_callable(cursor, builder, builder.name, start)
        return

    if not cursor.at_name():
        cursor.warn(start, f"unrecognized member after type {type_text!r}")
        if cursor.peek() == "<":  # generic arguments that do not close
            _skip_declaration(cursor)
        elif cursor.peek() not in ("", "}"):  # `}` ends the class
            cursor.take()
        return
    member_name = cursor.take()

    if cursor.peek() == "(":
        _parse_callable(cursor, builder, member_name, start)
        return

    # field declaration, possibly with several declarators
    builder.add_field(member_name, type_text + cursor.dims(), start)
    extras, cursor.i = _more_declarators(cursor.tokens, cursor.i, type_text)
    for _, name, declared_type in extras:
        builder.add_field(name, declared_type, start)


def _skip_declaration(cursor: _Cursor) -> None:
    """Skip the rest of a member declaration: through the `;` or the `}`
    of a body that ends it at bracket depth 0, or up to the unbalanced
    closer (the `}` of the class) or the end of the tokens."""
    tokens = cursor.tokens
    depth = 0
    while cursor.i < cursor.n:
        token = tokens[cursor.i]
        if token in ("(", "[", "{"):
            depth += 1
        elif token in (")", "]", "}"):
            if depth == 0:
                return
            depth -= 1
            if depth == 0 and token == "}":
                cursor.i += 1
                return
        elif depth == 0 and token == ";":
            cursor.i += 1
            return
        cursor.i += 1


def _more_declarators(
    tokens: list[str], start: int, base_type: str
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
        if token in ("(", "[", "{"):
            depth += 1
        elif token in (")", "]", "}"):
            if depth == 0:
                break
            depth -= 1
        elif depth == 0 and token == ";":
            break
        elif depth == 0 and token == "," and k + 1 < n:
            name = tokens[k + 1]
            if _is_ident(name) and name not in KEYWORDS:
                dims = _dims(tokens, k + 2)
                m = k + 2 + len(dims)
                if m < n and tokens[m] in ("=", ",", ";"):
                    found.append((k + 1, name, base_type + dims))
        k += 1
    return found, k


def _parse_callable(
    cursor: _Cursor, builder: _ClassBuilder, name: str, start: int
) -> None:
    parameters = _parse_parameters(cursor)
    body = cursor.body("method", name)  # past a `throws` clause, not modeled
    comments = cursor.take_comments()  # up to the end of its body
    builder.add_method(_PendingMethod(name, parameters, body, comments, start))


def _parse_parameters(cursor: _Cursor) -> dict[str, str]:
    parameters: dict[str, str] = {}  # name -> type, in order
    open_paren = cursor.i
    cursor.take()  # "("
    while not cursor.eof() and cursor.peek() != ")":
        if cursor.peek() == "@":
            _skip_annotation(cursor)
            continue
        type_text = _read_type_text(cursor, warn=True)
        if type_text is None:  # `final` included
            cursor.take()
            continue
        dots = 0  # varargs: three dot tokens before the name
        while cursor.peek() == ".":
            cursor.take()
            dots += 1
        if dots == 3:
            cursor.warn(open_paren, "varargs parameter treated as array")
            type_text += "[]"
        if cursor.at_name():
            name_at = cursor.i
            name = cursor.take()
            type_text += cursor.dims()
            if name in parameters:
                cursor.warn(name_at, f"duplicate parameter {name!r} skipped")
            else:
                parameters[name] = type_text
        if cursor.peek() == ",":
            cursor.take()
    if cursor.peek() == ")":
        cursor.take()
    return parameters


def _scan_method_body(
    pending: _PendingMethod, fields: dict[str, object], cursor: _Cursor
) -> MethodFact:
    """Token scan for locals, accesses and invocations; `fields` is keyed
    by the class's field names.  `cursor` is set to the body's tokens.

    A declaration that fails to match at a name fails at each later name of
    the same dotted chain too: each reads the same rest of the chain, and
    the same tokens after it.  So the scan tries none of those names, and a
    chain costs time linear in its length.
    """
    locals_found: list[tuple[str, str]] = []
    accesses: list[str] = []
    invocations: list[str] = []

    cursor.reset(pending.body)
    tokens, n = cursor.tokens, cursor.n
    consumed: set[int] = set()
    failed = None  # the last name at which no declaration can start

    j = 0
    while j < n:
        token = tokens[j]
        first = token[0]
        if not (first in _IDENT_STARTS or first > "\x7f" and first.isalpha()) or (
            consumed and j in consumed
        ):
            j += 1
            continue
        if token in _NON_TYPE_KEYWORDS:
            if (
                token == "this"
                and j + 2 < n
                and tokens[j + 1] == "."
                and _is_ident(tokens[j + 2])
            ):
                target = tokens[j + 2]
                if j + 3 < n and tokens[j + 3] == "(":
                    invocations.append(target)
                else:
                    accesses.append(target)
                consumed.add(j + 2)
            j += 1
            continue
        if j + 1 < n:
            nxt = tokens[j + 1]
            if nxt == "(":
                if token not in PRIMITIVE_TYPES:
                    invocations.append(token)
                j += 1
                continue
            # a type goes on with `.`, `<` or `[`, or is followed by the name
            second = nxt[0]
            if second in _TYPE_GOES_ON or second > "\x7f" and second.isalpha():
                if (
                    failed == j - 2
                    and tokens[j - 1] == "."
                    and token not in PRIMITIVE_TYPES
                ):
                    failed = j  # on the chain of the name at `failed`
                else:
                    cursor.i = j
                    declared = _match_declaration(cursor, consumed)
                    if declared is not None:
                        locals_found.extend(declared)
                        j = cursor.i
                        continue
                    failed = j
        if token in fields:
            accesses.append(token)
        j += 1
    return MethodFact(
        pending.name,
        tuple(pending.parameters.items()),
        tuple(locals_found),
        tuple([CommentFact(text, "method-level") for text in pending.comments]),
        tuple(accesses),
        tuple(invocations),
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
    type_text = _read_type_text(cursor, warn=False)
    if type_text is None or not cursor.at_name():
        return None
    name = cursor.take()
    dims = cursor.dims()
    if cursor.peek() not in ("=", ";", ",", ":", ")"):
        return None
    extras, _ = _more_declarators(cursor.tokens, cursor.i, type_text)
    consumed.update(index for index, _, _ in extras)
    return [(name, type_text + dims), *((extra, t) for _, extra, t in extras)]


# What XML 1.0 cannot hold: the control characters other than tab, newline
# and carriage return, U+FFFE and U+FFFF, and the surrogates, which stand
# for the bytes of a path that are not UTF-8.  (The negated class of what
# XML can hold is equal, but took sre about 7 ms to compile at import.)
_NOT_XML_CHAR = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")


def parse_source_files(
    root: str | Path,
) -> Iterator[tuple[str | None, list[ClassFact], list[ParseDiagnostic]]]:
    """Parse each .java file under `root`, in sorted-path order, and yield
    its package name (None for a file that cannot be read), the classes
    kept and its diagnostics; refuse a root that is not a readable directory.

    A file is read as UTF-8, or else decoded as ISO-8859-1, with a warning;
    either way less a leading UTF-8 byte-order mark.  A class whose package
    already holds a class of its name is skipped, with a warning: only the
    names kept so far in each package are held, not their classes.
    """
    root = Path(root)
    with refused("source root", root):
        os.scandir(root).close()
    names: dict[str, set[str]] = {}  # package name -> names of its kept classes
    for path in sorted(root.rglob("*.java")):
        file = str(path)
        diagnostics: list[ParseDiagnostic] = []
        try:
            text = path.read_text(encoding="utf-8-sig")
        except UnicodeDecodeError:
            text = path.read_text(encoding="iso-8859-1")
            text = text.removeprefix("\xef\xbb\xbf")  # a UTF-8 byte-order mark
            diagnostics.append(
                ParseDiagnostic("warning", file, 1, "not UTF-8; decoded as ISO-8859-1")
            )
        except OSError as exc:
            message = f"unreadable file: {exc}"
            yield None, [], [ParseDiagnostic("error", file, 1, message)]
            continue
        fragment, file_diagnostics = parse_compilation_unit(text, file)
        diagnostics += file_diagnostics
        kept_names = names.setdefault(fragment.name, set())
        kept = []
        for cls in fragment.classes:
            if cls.name in kept_names:
                message = (
                    f"duplicate class {cls.name!r} in package {fragment.name!r} skipped"
                )
                diagnostics.append(ParseDiagnostic("warning", file, 1, message))
                continue
            kept_names.add(cls.name)
            kept.append(cls)
        yield fragment.name, kept, diagnostics


def source_provenance(root: str | Path) -> str:
    """The path of `root`, with U+FFFD for each character that the facts
    XML cannot carry."""
    return _NOT_XML_CHAR.sub("\ufffd", str(Path(root)))


def parse_source_tree(root: str | Path) -> tuple[CodeFacts, list[ParseDiagnostic]]:
    """Parse every .java file under `root` (`parse_source_files`), merged in
    sorted-path order: each package in the order of its first file, with its
    classes in file order.  The provenance is `source_provenance(root)`.
    """
    diagnostics: list[ParseDiagnostic] = []
    package_classes: dict[str, list[ClassFact]] = {}  # in first-seen order
    for package, classes, file_diagnostics in parse_source_files(root):
        diagnostics += file_diagnostics
        if package is not None:
            package_classes.setdefault(package, []).extend(classes)
    packages = tuple(
        PackageFact(name=name, classes=tuple(classes))
        for name, classes in package_classes.items()
    )
    return CodeFacts(packages, source_provenance(root)), diagnostics
