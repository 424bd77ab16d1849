"""Document normalization: noise removal, camel-case splitting, stemming.

A raw document becomes a bag of lowercase stems via a fixed pipeline:
split the whole text into words in one pass (every character outside
[A-Za-z] separates words, and so do camel-case boundaries), lowercase, drop
stop words, stem, count.  Any stem that lands on a stop word is dropped as
well, so no stop word can ever appear in a term bag.  Each lowercase word
is stemmed once: the stop-word list keeps a map from the words it has met
to their stems, or to None for a dropped word, and each token costs one
lookup in it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path

from .corpus import RawDocument
from .errors import read_input
from .porter import stem

__all__ = [
    "TermBag",
    "StopWordList",
    "DEFAULT_STOP_WORDS",
    "load_stop_words",
    "split_camel_case",
    "preprocess",
]

# ~120 common English function words plus possessives and modals.  Kept
# deliberately free of domain vocabulary (draw, line, user, software, ...).
DEFAULT_STOP_WORDS = frozenset("""
a about above after again all also am an and any are as at be because been
before being below between both but by can could did do does doing down
during each etc few for from further had has have having he her here hers
him his how i if in into is it its itself just like may me might more most
must my myself no nor not of off on once only or other our ours out over
own same shall she should so some such than that the their theirs them then
there these they this those through to too under until up upon very was we
were what when where which while who whom why will with would you your
yours
""".split())

# An uppercase run that ends before a capitalized word, a word with at most
# one leading capital, or a trailing uppercase run.
_WORD = re.compile(r"[A-Z]+(?=[A-Z][a-z])|[A-Z]?[a-z]+|[A-Z]+")


@dataclass(frozen=True)
class StopWordList:
    """Lowercase words excluded from term bags, and the map `preprocess`
    fills from each lowercase word to its stem, or to None where the word or
    its stem is one of these words."""

    words: frozenset[str] = field(default=DEFAULT_STOP_WORDS)
    _roots: dict[str, str | None] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __contains__(self, word: str) -> bool:
        return word in self.words


@dataclass(frozen=True)
class TermBag:
    """Occurrence counts of stemmed terms for one named document."""

    name: str
    counts: dict[str, int]

    def total(self) -> int:
        return sum(self.counts.values())


def load_stop_words(path: str | Path) -> StopWordList:
    """Read a stop-word file: one lowercase word per line, # comments."""
    words = set()
    for raw_line in read_input(path, "stop-word file").splitlines():
        line = raw_line.split("#", 1)[0].strip()
        if line:
            words.add(line.lower())
    return StopWordList(frozenset(words))


def split_camel_case(text: str) -> list[str]:
    """Split text into words at noise and case boundaries in one pass.

    Every character outside [A-Za-z] separates words.  A lower-to-upper
    boundary always splits; an uppercase run followed by lowercase splits
    before its final letter (XMLFile -> XML, File).  Single-case tokens
    pass through untouched.
    """
    return _WORD.findall(text)


def preprocess(doc: RawDocument, stops: StopWordList) -> TermBag:
    """Normalize one document into a term bag.  Pass one `stops` to every
    call over a corpus: the list keeps the word map."""
    roots = stops._roots
    counts: dict[str, int] = {}
    for part in split_camel_case(doc.text):
        word = part.lower()
        try:
            root = roots[word]
        except KeyError:
            root = stem(word)
            root = roots[word] = None if word in stops or root in stops else root
        if root is not None:
            counts[root] = counts.get(root, 0) + 1
    return TermBag(name=doc.name, counts=counts)
