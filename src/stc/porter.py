"""Porter suffix-stripping stemmer.

Implements the classic five-step rule cascade (1a, 1b, 1c, 2, 3, 4, 5a,
5b) over lowercase words. Within a step only the longest matching suffix
is considered; its condition is then tested and, on failure, the step
leaves the word unchanged. Words of length <= 2 are returned as-is, as is
conventional for this algorithm.
"""

from __future__ import annotations

from functools import lru_cache

__all__ = ["porter_stem"]

_VOWELS = frozenset("aeiou")


def _is_consonant(word: str, i: int) -> bool:
    ch = word[i]
    if ch in _VOWELS:
        return False
    if ch == "y":
        return i == 0 or not _is_consonant(word, i - 1)
    return True


def _measure(stem: str) -> int:
    """Number of vowel-consonant sequences: [C](VC)^m[V]."""
    m = 0
    prev_vowel = False
    for i in range(len(stem)):
        if _is_consonant(stem, i):
            if prev_vowel:
                m += 1
            prev_vowel = False
        else:
            prev_vowel = True
    return m


def _contains_vowel(stem: str) -> bool:
    return any(not _is_consonant(stem, i) for i in range(len(stem)))


def _ends_double_consonant(word: str) -> bool:
    return (
        len(word) >= 2
        and word[-1] == word[-2]
        and _is_consonant(word, len(word) - 1)
    )


def _ends_cvc(word: str) -> bool:
    """Final letters are consonant-vowel-consonant, last not w, x or y."""
    if len(word) < 3:
        return False
    return (
        _is_consonant(word, len(word) - 3)
        and not _is_consonant(word, len(word) - 2)
        and _is_consonant(word, len(word) - 1)
        and word[-1] not in "wxy"
    )


def _apply_rule_list(word: str, rules) -> str:
    """Replace the longest matching suffix if its condition holds.

    ``rules`` is a list of (suffix, replacement, condition) with condition
    a predicate over the stem (word minus suffix) or None. Only the
    longest matching suffix is tried.
    """
    best = None
    for suffix, replacement, condition in rules:
        if word.endswith(suffix) and (best is None or len(suffix) > len(best[0])):
            best = (suffix, replacement, condition)
    if best is None:
        return word
    suffix, replacement, condition = best
    stem = word[: len(word) - len(suffix)]
    if condition is None or condition(stem):
        return stem + replacement
    return word


def _step1a(word: str) -> str:
    return _apply_rule_list(
        word,
        [
            ("sses", "ss", None),
            ("ies", "i", None),
            ("ss", "ss", None),
            ("s", "", None),
        ],
    )


def _step1b(word: str) -> str:
    if word.endswith("eed"):
        stem = word[:-3]
        return stem + "ee" if _measure(stem) > 0 else word

    fired = False
    if word.endswith("ed"):
        stem = word[:-2]
        if _contains_vowel(stem):
            word, fired = stem, True
    elif word.endswith("ing"):
        stem = word[:-3]
        if _contains_vowel(stem):
            word, fired = stem, True
    if not fired:
        return word

    if word.endswith(("at", "bl", "iz")):
        return word + "e"
    if _ends_double_consonant(word) and word[-1] not in "lsz":
        return word[:-1]
    if _measure(word) == 1 and _ends_cvc(word):
        return word + "e"
    return word


def _step1c(word: str) -> str:
    if word.endswith("y") and _contains_vowel(word[:-1]):
        return word[:-1] + "i"
    return word


_STEP2_RULES = [
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
]

_STEP3_RULES = [
    ("icate", "ic"),
    ("ative", ""),
    ("alize", "al"),
    ("iciti", "ic"),
    ("ical", "ic"),
    ("ful", ""),
    ("ness", ""),
]

_STEP4_SUFFIXES = [
    "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
    "ment", "ent", "ion", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
]


def _step2(word: str) -> str:
    cond = lambda stem: _measure(stem) > 0
    return _apply_rule_list(word, [(s, r, cond) for s, r in _STEP2_RULES])


def _step3(word: str) -> str:
    cond = lambda stem: _measure(stem) > 0
    return _apply_rule_list(word, [(s, r, cond) for s, r in _STEP3_RULES])


def _step4(word: str) -> str:
    def cond(stem, suffix):
        if _measure(stem) <= 1:
            return False
        if suffix == "ion":
            return stem.endswith(("s", "t"))
        return True

    rules = [(s, "", (lambda st, s=s: cond(st, s))) for s in _STEP4_SUFFIXES]
    return _apply_rule_list(word, rules)


def _step5a(word: str) -> str:
    if word.endswith("e"):
        stem = word[:-1]
        m = _measure(stem)
        if m > 1 or (m == 1 and not _ends_cvc(stem)):
            return stem
    return word


def _step5b(word: str) -> str:
    if _measure(word) > 1 and _ends_double_consonant(word) and word.endswith("l"):
        return word[:-1]
    return word


@lru_cache(maxsize=None)
def porter_stem(token: str) -> str:
    """Stem one lowercase word.

    Tokens shorter than three characters or containing non-alphabetic
    characters (digits survive the preprocessing pipeline) are returned
    unchanged. Results are memoized: a corpus repeats few distinct words
    many times, and every occurrence of a word then shares one stem string.
    """
    if len(token) <= 2 or not token.isalpha():
        return token
    word = _step1a(token)
    word = _step1b(word)
    word = _step1c(word)
    word = _step2(word)
    word = _step3(word)
    word = _step4(word)
    word = _step5a(word)
    word = _step5b(word)
    return word
