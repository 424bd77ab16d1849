"""Suffix-stripping stemmer (Porter's algorithm, original rule set).

Operates on lowercase alphabetic words only; anything of length <= 2 is
returned unchanged, matching the published behaviour.
"""

_VOWELS = "aeiou"


def _is_consonant(word: str, i: int) -> bool:
    ch = word[i]
    if ch in _VOWELS:
        return False
    if ch == "y":
        return i == 0 or not _is_consonant(word, i - 1)
    return True


def _measure(stem: str) -> int:
    """Count VC alternations: <C>(VC){m}<V>."""
    m = 0
    prev_vowel = False
    for i in range(len(stem)):
        vowel = not _is_consonant(stem, i)
        if prev_vowel and not vowel:
            m += 1
        prev_vowel = vowel
    return m


def _has_vowel(stem: str) -> bool:
    return any(not _is_consonant(stem, i) for i in range(len(stem)))


def _ends_double_consonant(stem: str) -> bool:
    return (
        len(stem) >= 2
        and stem[-1] == stem[-2]
        and _is_consonant(stem, len(stem) - 1)
    )


def _ends_cvc(stem: str) -> bool:
    """*o condition: ends consonant-vowel-consonant, final not w, x, or y."""
    if len(stem) < 3:
        return False
    return (
        _is_consonant(stem, len(stem) - 3)
        and not _is_consonant(stem, len(stem) - 2)
        and _is_consonant(stem, len(stem) - 1)
        and stem[-1] not in "wxy"
    )


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


def _step1b(word: str) -> str:
    if word.endswith("eed"):
        stem = word[:-3]
        return stem + "ee" if _measure(stem) > 0 else word
    cleaned = None
    if word.endswith("ed") and _has_vowel(word[:-2]):
        cleaned = word[:-2]
    elif word.endswith("ing") and _has_vowel(word[:-3]):
        cleaned = word[:-3]
    if cleaned is None:
        return word
    if cleaned.endswith(("at", "bl", "iz")):
        return cleaned + "e"
    if _ends_double_consonant(cleaned) and cleaned[-1] not in "lsz":
        return cleaned[:-1]
    if _measure(cleaned) == 1 and _ends_cvc(cleaned):
        return cleaned + "e"
    return cleaned


def _step1c(word: str) -> str:
    if word.endswith("y") and _has_vowel(word[:-1]):
        return word[:-1] + "i"
    return word


_STEP2_RULES = (
    ("ational", "ate"),
    ("tional", "tion"),
    ("enci", "ence"),
    ("anci", "ance"),
    ("izer", "ize"),
    ("abli", "able"),
    ("alli", "al"),
    ("entli", "ent"),
    ("eli", "e"),
    ("ousli", "ous"),
    ("ization", "ize"),
    ("ation", "ate"),
    ("ator", "ate"),
    ("alism", "al"),
    ("iveness", "ive"),
    ("fulness", "ful"),
    ("ousness", "ous"),
    ("aliti", "al"),
    ("iviti", "ive"),
    ("biliti", "ble"),
)

_STEP3_RULES = (
    ("icate", "ic"),
    ("ative", ""),
    ("alize", "al"),
    ("iciti", "ic"),
    ("ical", "ic"),
    ("ful", ""),
    ("ness", ""),
)

_STEP4_SUFFIXES = (
    "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
    "ment", "ent", "ion", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
)


def _step2or3(word: str, rules: tuple[tuple[str, str], ...]) -> str:
    """Steps 2 and 3, which differ only in their rules: replace the first
    suffix of `rules` that `word` ends with, when what precedes it has a
    measure above 0."""
    for suffix, replacement in rules:
        if word.endswith(suffix):
            stem = word[: len(word) - len(suffix)]
            return stem + replacement if _measure(stem) > 0 else word
    return word


def _step4(word: str) -> str:
    for suffix in _STEP4_SUFFIXES:
        if word.endswith(suffix):
            stem = word[: len(word) - len(suffix)]
            if suffix == "ion" and not stem.endswith(("s", "t")):
                return word
            return stem if _measure(stem) > 1 else word
    return word


def _step5a(word: str) -> str:
    if word.endswith("e"):
        stem = word[:-1]
        m = _measure(stem)
        if m > 1 or (m == 1 and not _ends_cvc(stem)):
            return stem
    return word


def _step5b(word: str) -> str:
    if word.endswith("ll") and _measure(word) > 1:
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
    word = _step1b(word)
    word = _step1c(word)
    word = _step2or3(word, _STEP2_RULES)
    word = _step2or3(word, _STEP3_RULES)
    word = _step4(word)
    word = _step5a(word)
    word = _step5b(word)
    return _ROOT_FIXUPS.get(word, word)
