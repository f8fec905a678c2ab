import hashlib

import pytest

from stc import preprocess
from stc.preprocess import (
    is_stopword,
    normalize,
    preprocess_sentence,
    split_sentences,
    stopword_set,
)


def test_split_on_periods():
    assert split_sentences("Cocoa rose. Prices fell.") == ["Cocoa rose", " Prices fell"]


def test_split_without_delimiter():
    assert split_sentences("no period here") == ["no period here"]


def test_split_drops_empty_segments():
    assert split_sentences("a..") == ["a"]
    assert split_sentences("") == []
    assert split_sentences(" . . ") == []


def test_split_rejoin_fixed_point():
    for text in ["one. two. three", "a.b.c", "x", "hello world. bye."]:
        segments = split_sentences(text)
        assert split_sentences(".".join(segments)) == segments


def test_normalize_punctuation_to_space():
    assert normalize("US-based, Inc") == "us based  inc"
    assert normalize("abc") == "abc"
    assert normalize("Qtr-3 profit!") == "qtr 3 profit "


def test_normalize_idempotent():
    for text in ["Hello, World!", "a&b|c", "", "MiXeD 42 CaSe?"]:
        once = normalize(text)
        assert normalize(once) == once


def test_stopword_membership():
    assert is_stopword("the") is True
    assert is_stopword("of") is True
    assert is_stopword("cocoa") is False
    assert is_stopword("") is False


def test_stopword_list_is_clean():
    words = stopword_set()
    assert len(words) > 500
    assert all(w == w.lower() and w == w.strip() for w in words)


def test_stopword_asset_checksum_is_stable():
    path = preprocess.assets_dir() / "smart_stopwords.txt"
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == "220f9e4fde204eb4d4a216f4b5024633b61e41555809f95d9b12f0773be0a3f3"


def test_stopword_override_set_at_run_time_takes_effect(tmp_path, monkeypatch):
    bundled = stopword_set()
    (tmp_path / "smart_stopwords.txt").write_text("cocoa\nprices\n", encoding="utf-8")
    monkeypatch.setenv("STC_ASSETS_DIR", str(tmp_path))
    assert stopword_set() == {"cocoa", "prices"}
    assert preprocess_sentence("The prices of cocoa") == ["the"]
    monkeypatch.delenv("STC_ASSETS_DIR")
    assert stopword_set() == bundled


def test_pipeline_drops_stopwords_and_stems():
    assert preprocess_sentence("The prices of cocoa") == ["price", "cocoa"]


def test_pipeline_all_stopwords_or_short():
    assert preprocess_sentence("a an to") == []
    assert preprocess_sentence("") == []


def test_pipeline_keeps_digit_tokens():
    # Digits are alphanumeric; only punctuation and short/stop words go.
    assert preprocess_sentence("profit 1234 up") == ["profit", "1234"]


def test_pipeline_length_filter_precedes_stemming():
    # "ties" stems to "ti" (2 chars); the length filter sees the raw token.
    assert preprocess_sentence("ties") == ["ti"]


@pytest.mark.parametrize(
    "sentence",
    ["Cocoa PRICES rose; sharply!", "U S wheat-futures fell 3%", "plain words here"],
)
def test_pipeline_output_is_clean(sentence):
    for token in preprocess_sentence(sentence):
        assert token == token.lower()
        assert all(c.isalnum() for c in token)


def test_pipeline_env_override(tmp_path, monkeypatch):
    assets = tmp_path / "assets"
    assets.mkdir()
    (assets / "smart_stopwords.txt").write_text("cocoa\n", encoding="utf-8")
    monkeypatch.setenv("STC_ASSETS_DIR", str(assets))
    assert is_stopword("cocoa") is True
    assert is_stopword("the") is False
