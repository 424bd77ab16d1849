"""Suffix-stripping stemmer (Porter's algorithm, original rule set).

Operates on lowercase alphabetic words only; anything of length <= 2 is
returned unchanged, matching the published behaviour.

The rules read the consonant/vowel marks of a stem.  A letter's mark
depends only on the letters before it, so the marks of a stem are a prefix
of the marks of its word.  `stem` marks each word form once, at the start
and after each step that changed it, and the steps read m, *v*, *d and *o
from slices of those marks.  Each table of suffixes is rejected with one
`str.endswith` call before it is walked.
"""

_VOWELS = "aeiou"

# The marks of ASCII letters other than "y", which depend on no other letter
_ASCII_MARKS = b"".join(b"v" if chr(code) in _VOWELS else b"c" for code in range(256))


def _pattern(word: str) -> bytes:
    """One mark per letter of `word`: b"v" for a vowel, b"c" for a
    consonant.  A "y" is a vowel after a consonant, and a consonant first or
    after a vowel."""
    if word.isascii() and "y" not in word:
        return word.encode().translate(_ASCII_MARKS)
    marks = bytearray()
    after_consonant = False
    for ch in word:
        vowel = ch in _VOWELS or (ch == "y" and after_consonant)
        marks += b"v" if vowel else b"c"
        after_consonant = not vowel
    return bytes(marks)


def _measure(marks: bytes) -> int:
    """Count VC alternations: <C>(VC){m}<V>."""
    return marks.count(b"vc")


def _ends_cvc(stem: str, marks: bytes) -> bool:
    """*o condition: ends consonant-vowel-consonant, final not w, x, or y."""
    return marks.endswith(b"cvc") and stem[-1] not in "wxy"


def _step1a(word: str) -> str:
    if word.endswith("sses"):
        return word[:-2]
    if word.endswith("ies"):
        return word[:-2]
    if word.endswith("ss"):
        return word
    if word.endswith("s"):
        return word[:-1]
    return word


def _step1b(word: str, marks: bytes) -> str:
    if word.endswith("eed"):
        return word[:-1] if _measure(marks[:-3]) > 0 else word
    if word.endswith("ed") and b"v" in marks[:-2]:
        cut = -2
    elif word.endswith("ing") and b"v" in marks[:-3]:
        cut = -3
    else:
        return word
    cleaned, marks = word[:cut], marks[:cut]
    if cleaned.endswith(("at", "bl", "iz")):
        return cleaned + "e"
    last = cleaned[-1]
    if cleaned[-2:-1] == last and marks.endswith(b"c") and last not in "lsz":
        return cleaned[:-1]  # *d, a double consonant, other than l, s or z
    if _measure(marks) == 1 and _ends_cvc(cleaned, marks):
        return cleaned + "e"
    return cleaned


def _step1c(word: str, marks: bytes) -> str:
    if word.endswith("y") and b"v" in marks[:-1]:
        return word[:-1] + "i"
    return word


def _suffix_step(rules: dict[str, str]):
    """Steps 2 and 3, which differ only in their rules: replace the first
    suffix of `rules` that a word ends with, when what precedes it has a
    measure above 0."""
    suffixes = tuple(rules)

    def step(word: str, marks: bytes) -> str:
        if word.endswith(suffixes):
            for suffix in suffixes:
                if word.endswith(suffix):
                    cut = len(word) - len(suffix)
                    if _measure(marks[:cut]) > 0:
                        return word[:cut] + rules[suffix]
                    return word
        return word

    return step


_step2 = _suffix_step({
    "ational": "ate", "tional": "tion", "enci": "ence", "anci": "ance",
    "izer": "ize", "abli": "able", "alli": "al", "entli": "ent", "eli": "e",
    "ousli": "ous", "ization": "ize", "ation": "ate", "ator": "ate",
    "alism": "al", "iveness": "ive", "fulness": "ful", "ousness": "ous",
    "aliti": "al", "iviti": "ive", "biliti": "ble",
})

_step3 = _suffix_step({
    "icate": "ic", "ative": "", "alize": "al", "iciti": "ic", "ical": "ic",
    "ful": "", "ness": "",
})

_STEP4_SUFFIXES = (
    "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
    "ment", "ent", "ion", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
)


def _step4(word: str, marks: bytes) -> str:
    if word.endswith(_STEP4_SUFFIXES):
        for suffix in _STEP4_SUFFIXES:
            if word.endswith(suffix):
                cut = len(word) - len(suffix)
                if suffix == "ion" and not word.endswith(("sion", "tion")):
                    return word
                return word[:cut] if _measure(marks[:cut]) > 1 else word
    return word


def _step5a(word: str, marks: bytes) -> str:
    if word.endswith("e"):
        m = _measure(marks[:-1])
        if m > 1 or (m == 1 and not _ends_cvc(word[:-1], marks[:-1])):
            return word[:-1]
    return word


def _step5b(word: str, marks: bytes) -> str:
    if word.endswith("ll") and _measure(marks) > 1:
        return word[:-1]
    return word


# Documented root forms the suffix rules over-strip.  Applied to outputs, so
# every member of a family (declare, declared, declares, declarative, ...)
# lands on the same root and stemming stays idempotent.
_ROOT_FIXUPS = {"declar": "declare"}


def stem(word: str) -> str:
    """Reduce a lowercase word to its root form."""
    if len(word) <= 2:
        return word
    word = _step1a(word)
    marks = _pattern(word)
    for step in (_step1b, _step1c, _step2, _step3, _step4, _step5a, _step5b):
        changed = step(word, marks)
        if changed is not word:
            word, marks = changed, _pattern(changed)
    return _ROOT_FIXUPS.get(word, word)
