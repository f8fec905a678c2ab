"""Text cleaning pipeline: sentence splitting, normalization, stop-word
removal, length filtering, and stemming.

Periods are the only sentence delimiter; all other punctuation is folded
to whitespace. Stop words come from the bundled SMART list shipped under
``assets/`` (override the asset directory with the ``STC_ASSETS_DIR``
environment variable). All functions are pure.
"""

from __future__ import annotations

import os
import re
from functools import lru_cache
from pathlib import Path

from .porter import porter_stem

__all__ = [
    "split_sentences",
    "normalize",
    "is_stopword",
    "stopword_set",
    "preprocess_sentence",
    "porter_stem",
    "assets_dir",
]

_NON_ALNUM = re.compile(r"[^a-z0-9\s]")
_MIN_TOKEN_LEN = 3


def assets_dir() -> Path:
    return _assets_dir(os.environ.get("STC_ASSETS_DIR"))


def _assets_dir(override: str | None) -> Path:
    if override:
        return Path(override)
    return Path(__file__).parent / "assets"


@lru_cache(maxsize=None)
def _load_stopwords(override: str | None) -> frozenset[str]:
    with open(_assets_dir(override) / "smart_stopwords.txt", encoding="utf-8") as fh:
        return frozenset(line.strip() for line in fh if line.strip())


def stopword_set() -> frozenset[str]:
    """The stop words of the asset directory, read once per value of
    ``STC_ASSETS_DIR``, so an override set at run time takes effect."""
    return _load_stopwords(os.environ.get("STC_ASSETS_DIR"))


def split_sentences(text: str) -> list[str]:
    """Split on '.' characters, dropping empty or whitespace-only segments."""
    return [seg for seg in text.split(".") if seg.strip()]


def normalize(text: str) -> str:
    """Lowercase and replace every non-alphanumeric, non-whitespace
    character with a space."""
    return _NON_ALNUM.sub(" ", text.lower())


def is_stopword(token: str) -> bool:
    return token in stopword_set()


def preprocess_sentence(sentence: str) -> list[str]:
    """Full token pipeline for one sentence.

    normalize -> whitespace split -> drop stop words -> drop tokens
    shorter than three characters -> Porter-stem the survivors. Order is
    preserved and the result may be empty.
    """
    stopwords = stopword_set()
    return [
        porter_stem(raw)
        for raw in normalize(sentence).split()
        if raw not in stopwords and len(raw) >= _MIN_TOKEN_LEN
    ]
