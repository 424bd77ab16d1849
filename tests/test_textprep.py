from __future__ import annotations

import re

import pytest
from hypothesis import given, strategies as st

from reqtrace.corpus import RawDocument
from reqtrace.porter import stem
from reqtrace.textprep import (
    DEFAULT_STOP_WORDS,
    StopWordList,
    TermBag,
    load_stop_words,
    preprocess,
    split_camel_case,
)

from conftest import DS_LINE_DESCRIPTION


def bag_of(text: str, stops: StopWordList | None = None) -> TermBag:
    if stops is None:
        stops = StopWordList()
    return preprocess(RawDocument(name="t", text=text), stops)


def split_token_by_token(text: str) -> list[str]:
    """Reference split: strip noise, split on spaces, split each token at
    uppercase runs and then before each capitalized word."""
    words = []
    for token in re.sub(r"[^A-Za-z]", " ", text).split():
        spaced = re.sub(r"([A-Z]+)", r" \1", token)
        words += re.sub(r"([A-Z][a-z])", r" \1", spaced).split()
    return words


# Any text (digits, "_", non-ASCII letters, whitespace), plus text dense in
# case changes, which arbitrary text rarely contains.
TEXT = st.text(max_size=80) | st.text(alphabet="aeBsXyZ_9 é\n", max_size=40)


class TestSplitCamelCase:
    @pytest.mark.parametrize(
        "token, expected",
        [
            ("fillRect", ["fill", "Rect"]),
            ("shapeColor", ["shape", "Color"]),
            ("draw", ["draw"]),
            ("XMLFile", ["XML", "File"]),
            ("PaintJPanel", ["Paint", "J", "Panel"]),
            ("MyLine", ["My", "Line"]),
            ("g", ["g"]),
            ("HTML", ["HTML"]),
        ],
    )
    def test_boundaries(self, token, expected):
        assert split_camel_case(token) == expected

    def test_splits_noise_and_case_in_one_pass(self):
        assert split_camel_case("fillRect(x1, XMLFile)") == [
            "fill", "Rect", "x", "XML", "File",
        ]

    @given(TEXT)
    def test_matches_the_token_by_token_split(self, text):
        assert split_camel_case(text) == split_token_by_token(text)


class TestStopWords:
    def test_required_words_present(self):
        assert {"my", "to", "an", "a", "the"} <= DEFAULT_STOP_WORDS

    def test_loader_accepts_comments(self, tmp_path):
        path = tmp_path / "stops.txt"
        path.write_text("# header\nfoo\nbar # trailing\n\nBAZ\n")
        stops = load_stop_words(path)
        assert stops.words == {"foo", "bar", "baz"}

    def test_loader_drops_a_byte_order_mark(self, tmp_path):
        path = tmp_path / "stops.txt"
        path.write_bytes("\ufeffdraw\nline\n".encode("utf-8"))
        assert load_stop_words(path).words == {"draw", "line"}


def preprocess_token_by_token(text: str, stops: StopWordList) -> dict[str, int]:
    """Reference: lowercase each word, drop a stop word, stem, drop a stem
    that is a stop word, count."""
    counts: dict[str, int] = {}
    for part in split_camel_case(text):
        word = part.lower()
        if word in stops:
            continue
        root = stem(word)
        if root in stops:
            continue
        counts[root] = counts.get(root, 0) + 1
    return counts


# Identifier-like text: words in any case, run together or split by noise.
VOCABULARY = "draw drawing draws line lines doing do the my a XML file g".split()
CASINGS = [str.lower, str.upper, str.capitalize]
SEPARATORS = ["", "", " ", "_", "9", ".", "é", "\n"]
MIXED_TEXT = st.lists(
    st.tuples(
        st.sampled_from(VOCABULARY),
        st.sampled_from(CASINGS),
        st.sampled_from(SEPARATORS),
    ),
    max_size=25,
).map(lambda parts: "".join(case(word) + sep for word, case, sep in parts))

# "draws" is a stop word whose stem "draw" is one too; "doing" is not a
# stop word but stems to "do".
STOP_LISTS = [
    StopWordList(),
    StopWordList(frozenset({"draws", "draw", "do", "xml"})),
    StopWordList(frozenset()),
]


class TestPreprocess:
    def test_pipeline_order_and_counts(self):
        bag = bag_of("The drawLine draws drawings; a drawing!")
        assert bag.counts == {"draw": 4, "line": 1}

    def test_stop_words_never_survive(self):
        bag = bag_of("My the TO an A THE myCount")
        assert "my" not in bag.counts
        assert "the" not in bag.counts
        assert bag.counts == {"count": 1}

    def test_stems_landing_on_stop_words_dropped(self):
        # "doing" stems to the stop word "do"
        bag = bag_of("doing lines")
        assert bag.counts == {"line": 1}

    def test_only_stop_words_gives_empty_bag(self):
        assert bag_of("the a an to my").counts == {}

    def test_line_requirement_description_counts(self):
        bag = bag_of(DS_LINE_DESCRIPTION)
        assert bag.counts["line"] == 7
        # "drawn" keeps its own suffix-stripped root, distinct from "draw"
        assert bag.counts["draw"] == 6
        assert bag.counts["drawn"] == 1

    def test_single_letter_tokens_retained(self):
        bag = bag_of("draw( Graphics g )")
        assert bag.counts["g"] == 1

    def test_invariants(self):
        bag = bag_of("Shapes.coreElements fillRect X1 the my 42")
        assert all(count >= 1 for count in bag.counts.values())
        assert all(term.isalpha() and term.islower() for term in bag.counts)
        assert not set(bag.counts) & DEFAULT_STOP_WORDS

    @given(TEXT)
    def test_bag_counts_the_token_by_token_split(self, text):
        expected: dict[str, int] = {}
        for part in split_token_by_token(text):
            word = part.lower()
            if word not in DEFAULT_STOP_WORDS and stem(word) not in DEFAULT_STOP_WORDS:
                expected[stem(word)] = expected.get(stem(word), 0) + 1
        assert bag_of(text).counts == expected

    @given(MIXED_TEXT | TEXT, st.sampled_from(STOP_LISTS))
    def test_word_map_gives_the_token_by_token_bag(self, text, stops):
        bag = bag_of(text, stops)
        expected = preprocess_token_by_token(text, stops)
        assert bag.counts == expected
        assert list(bag.counts) == list(expected)

    def test_stop_lists_keep_their_own_word_maps(self):
        plain = StopWordList(frozenset())
        strict = StopWordList(frozenset({"draw"}))
        for _ in range(2):
            assert bag_of("drawLine draws", plain).counts == {"draw": 2, "line": 1}
            assert bag_of("drawLine draws", strict).counts == {"line": 1}

    def test_default_stop_list(self):
        text = DS_LINE_DESCRIPTION + " doing MyLine"
        bag = bag_of(text)
        expected = preprocess_token_by_token(text, StopWordList(DEFAULT_STOP_WORDS))
        assert bag.counts == expected
        assert list(bag.counts) == list(expected)

    @given(st.lists(st.sampled_from("drawLine Shape X1 the myColor zone g".split()), max_size=30))
    def test_order_independence(self, tokens):
        forward = bag_of(" ".join(tokens))
        backward = bag_of(" ".join(reversed(tokens)))
        assert forward.counts == backward.counts

    def test_idempotent_over_fixture_vocabulary(self):
        # dictionary scope: stems of the drawing-fixture style vocabulary
        source = (
            "Drawing Shapes coreElements MyLine MyShape draw drawLine"
            " X1 Y1 X2 Y2 g shapeColor getShapeColor setColor line lines"
            " single unlimited zone points two right color user"
        )
        first = bag_of(source)
        replay = bag_of(" ".join(
            term for term, count in sorted(first.counts.items()) for _ in range(count)
        ))
        assert replay.counts == first.counts

    def test_fig_style_class_document(self):
        text = "\n".join(
            [
                "Drawing.Shapes.coreElements",
                "MyLine",
                "MyShape",
                "MyLine",
                "draw",
                "g",
                "X1",
                "drawLine",
                "draw a line",
            ]
        )
        bag = bag_of(text)
        assert bag.counts["line"] == 4  # MyLine x2, drawLine, comment
        assert bag.counts["draw"] == 4  # Drawing, draw, drawLine, comment
        assert bag.counts["shape"] == 2
        assert bag.counts["x"] == 1
