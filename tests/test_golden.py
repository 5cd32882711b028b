"""Byte identity of the CLI: every line of the golden corpus reproduces."""

import golden_corpus


def test_cover_corpus_is_unchanged():
    assert len(golden_corpus.read("cover")) == 60
    assert golden_corpus.changed("cover") == []
