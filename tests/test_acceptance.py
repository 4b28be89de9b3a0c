"""Acceptance criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion. The two sweeps are shared module-scoped fixtures so the
exhaustive work runs once.
"""

import time
from pathlib import Path

import pytest

from snakeword import render
from snakeword.bijections import full_correspondence
from snakeword.posets import (
    antichain_trie,
    enumerate_antichains,
    enumerate_order_filters,
    poset_from_word,
)
from snakeword.snake import enumerate_perfect_matchings, snake_from_word
from snakeword.verify import all_words_up_to, verify_words
from snakeword.words import (
    enumerate_subwords,
    lrs_subword_trie,
    parse_word,
)

GOLDEN = Path(__file__).parent / "golden"

BIJECTION_CHECKS = (
    "trie-equivalence",
    "antichain-trie",
    "trie-isomorphism",
    "bijection-roundtrip",
    "pm-bijection",
    "filter-identity",
)

SIGN_CHECKS = ("sign-function", "minimal-matching")


@pytest.fixture(scope="module")
def bijection_sweep():
    started = time.perf_counter()
    report = verify_words(all_words_up_to(10), check_names=BIJECTION_CHECKS)
    report["wall_seconds"] = time.perf_counter() - started
    return report


@pytest.fixture(scope="module")
def sign_sweep():
    return verify_words(all_words_up_to(12), check_names=SIGN_CHECKS)


def _four_counts(bits):
    word = parse_word(bits)
    poset = poset_from_word(word)
    return (
        len(enumerate_subwords(word)),
        len(enumerate_antichains(poset)),
        len(enumerate_order_filters(poset)),
        len(enumerate_perfect_matchings(snake_from_word(word))),
    )


def test_criterion_count_reproduction():
    """All four object counts reproduce the paper's 32 and 16 in under a
    second per word."""
    for bits, expected in (("10010111", 32), ("101110", 16)):
        started = time.perf_counter()
        counts = _four_counts(bits)
        elapsed = time.perf_counter() - started
        assert counts == (expected,) * 4, f"{bits}: {counts}"
        assert elapsed < 1.0, f"{bits} took {elapsed:.3f}s"
    print("ACCEPTANCE count-reproduction: PASS (32/32/32/32 and 16/16/16/16)")


def test_criterion_golden_figures():
    """The stored figure documents match the emitters byte for byte, and
    their structural content matches the figures they reproduce."""
    w101110 = parse_word("101110")
    w10010111 = parse_word("10010111")
    w_snake = parse_word("1011101100")

    documents = {
        "hasse_101110.dot": render.hasse_dot(poset_from_word(w101110)),
        "subword_trie_101110.dot": render.trie_dot(
            lrs_subword_trie(w101110), "subword_trie"
        ),
        "subword_trie_101110.json": render.to_json(
            render.trie_json_dict(lrs_subword_trie(w101110))
        ),
        "antichain_trie_101110.dot": render.trie_dot(
            antichain_trie(poset_from_word(w101110)), "antichain_trie"
        ),
        "antichain_trie_101110.json": render.to_json(
            render.trie_json_dict(antichain_trie(poset_from_word(w101110)))
        ),
        "subword_trie_10010111.dot": render.trie_dot(
            lrs_subword_trie(w10010111), "subword_trie"
        ),
        "subword_trie_10010111.json": render.to_json(
            render.trie_json_dict(lrs_subword_trie(w10010111))
        ),
        "antichain_trie_10010111.dot": render.trie_dot(
            antichain_trie(poset_from_word(w10010111)), "antichain_trie"
        ),
        "antichain_trie_10010111.json": render.to_json(
            render.trie_json_dict(antichain_trie(poset_from_word(w10010111)))
        ),
        "snake_1011101100.json": render.to_json(
            render.snake_json_dict(snake_from_word(w_snake))
        ),
        "record_1011101100_11010.json": render.to_json(
            full_correspondence(w_snake, parse_word("11010")).to_json_dict()
        ),
        "pm_1011101100_101101100.json": render.to_json(
            render.subword_matching_json_dict(w_snake, parse_word("101101100"))
        ),
    }
    for name, text in documents.items():
        assert text == (GOLDEN / name).read_text(encoding="utf-8"), name

    # structural anchors from the figures, independent of serialization
    assert documents["hasse_101110.dot"].count(" -- ") == 5
    assert documents["subword_trie_101110.dot"].count("[label=") == 2 * 16 - 1
    assert documents["antichain_trie_10010111.dot"].count("[label=") == 32
    snake_doc = documents["snake_1011101100.json"]
    assert '"sign_sequence": [\n    1,\n    0,\n    1,\n    1,\n    1,\n    0,\n    1,\n    1,\n    0,\n    0\n  ]' in snake_doc
    record = documents["record_1011101100_11010.json"]
    assert '"antichain": [\n    1,\n    3,\n    7,\n    9\n  ]' in record
    pm_doc = documents["pm_1011101100_101101100.json"]
    assert '"fil_blocks": [\n    [\n      4,\n      5\n    ],\n    [\n      8,\n      9,\n      10\n    ]\n  ]' in pm_doc
    print("ACCEPTANCE golden-figures: PASS (12 documents, exact match)")


def test_criterion_exhaustive_bijections(bijection_sweep):
    """Every word of length at most 10: trie equivalence, antichain-trie
    completeness, both bijection round trips, matching injectivity with
    full image, and the filter identity. Zero failures."""
    report = bijection_sweep
    assert report["words_checked"] == 2**10 - 1
    for check in report["checks"]:
        tag = "PASS" if check["passed"] else f"FAIL ({check['counterexample']})"
        print(f"ACCEPTANCE exhaustive/{check['name']}: {tag}")
    assert report["passed"], report
    assert report["wall_seconds"] < 300.0, "sweep exceeded the 5-minute target"
    print(
        "ACCEPTANCE exhaustive-bijections: PASS "
        f"({report['words_checked']} words in {report['wall_seconds']:.1f}s)"
    )


def test_criterion_sign_invariants(sign_sweep):
    """Every word of length at most 12: per-tile sign constraints, interior
    signs spelling the word, and minimal-matching uniqueness (against the
    oracle up to length 10). Zero failures."""
    report = sign_sweep
    assert report["words_checked"] == 2**12 - 1
    for check in report["checks"]:
        tag = "PASS" if check["passed"] else f"FAIL ({check['counterexample']})"
        print(f"ACCEPTANCE signs/{check['name']}: {tag}")
    assert report["passed"], report
    print(f"ACCEPTANCE sign-invariants: PASS ({report['words_checked']} words)")


def test_criterion_structural_results(bijection_sweep, sign_sweep):
    """The headline results are structural; the exhaustive property suites
    above are their full verification at desk scale."""
    assert bijection_sweep["passed"] and sign_sweep["passed"]
    print("ACCEPTANCE structural-results: PASS (exhaustive suites constitute the verification)")
