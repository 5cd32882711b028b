"""Byte identity of the CLI: every line of the golden corpus reproduces."""

import pytest

import golden_corpus


def test_cover_corpus_is_unchanged():
    assert len(golden_corpus.read("cover")) == 66
    assert golden_corpus.changed("cover") == []


# 100 ordered pairs of the 10 bundled knots, with and without -p 7 -p 2
# --max-n 40; filter, skp -p 5 and bounds per knot; 14 error lines; each
# line in text and --json; table list and check; bounds 3_1 over genus
# {1, 2, 5, 25} x delta {2, 8, 20, 21, 40} and bounds 4_1 over the 5
# samples files in golden/; through main() in a subprocess, cover 4_1 --n
# 12000 in text and --json, and render - of a saved record on stdin
@pytest.mark.parametrize(
    "name, lines",
    [("obstruct", 400), ("per_knot", 60), ("errors", 28), ("table", 4), ("bounds", 50), ("main", 3)],
)
def test_corpus_is_unchanged(name, lines):
    assert len(golden_corpus.read(name)) == lines
    assert golden_corpus.changed(name) == []
