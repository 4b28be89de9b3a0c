"""Word parsing, block factorization, embeddings, and the subword tries."""

import itertools
import sys

import pytest

from snakeword.errors import (
    CapExceededError,
    EmptyWordError,
    InvalidCharacterError,
    LeadingZeroError,
    NotASubwordError,
)
from snakeword.trie import iter_nodes, node_count, same_shape
from snakeword.words import (
    BinaryWord,
    enumerate_subwords,
    factor_blocks,
    is_subword,
    leftmost_embedding,
    lrs_subword_trie,
    naive_subword_trie,
    parse_word,
)


def all_words_up_to(n):
    for length in range(1, n + 1):
        for tail in itertools.product("01", repeat=length - 1):
            yield BinaryWord("1" + "".join(tail))


class TestParse:
    def test_basic(self):
        assert len(parse_word("101110")) == 6
        assert parse_word("101110").bit(1) == 1
        assert parse_word("101110").bit(2) == 0

    def test_empty(self):
        assert len(parse_word("")) == 0
        assert str(parse_word("")) == ""

    def test_leading_zero(self):
        with pytest.raises(LeadingZeroError):
            parse_word("0101")

    def test_bad_character(self):
        with pytest.raises(InvalidCharacterError):
            parse_word("10120")
        with pytest.raises(InvalidCharacterError):
            parse_word("1 0")


class TestBlocks:
    def test_example_101110(self):
        blocks = factor_blocks(parse_word("101110"))
        assert [(b.letter, b.length) for b in blocks] == [(1, 1), (0, 1), (1, 3), (0, 1)]
        assert len(blocks) == 4
        assert [b.start for b in blocks] == [1, 2, 3, 6]
        assert [b.end for b in blocks] == [1, 2, 5, 6]

    def test_example_10010111(self):
        blocks = factor_blocks(parse_word("10010111"))
        assert [(b.letter, b.length) for b in blocks] == [
            (1, 1),
            (0, 2),
            (1, 1),
            (0, 1),
            (1, 3),
        ]
        assert len(blocks) == 5

    def test_single_letter(self):
        assert [(b.letter, b.length) for b in factor_blocks(parse_word("1"))] == [(1, 1)]

    def test_empty_rejected(self):
        with pytest.raises(EmptyWordError):
            factor_blocks(parse_word(""))

    def test_concatenation_roundtrip(self):
        for w in all_words_up_to(7):
            blocks = factor_blocks(w)
            assert "".join(str(b.letter) * b.length for b in blocks) == w.bits
            assert all(a.letter != b.letter for a, b in zip(blocks, blocks[1:]))


class TestSubwordPredicate:
    def test_paper_example(self):
        assert is_subword(parse_word("11010"), parse_word("1011101100"))

    def test_empty_always(self):
        for text in ("", "1", "1011101100"):
            assert is_subword(parse_word(""), parse_word(text))

    def test_too_many_ones(self):
        # the three subwords of 10 are the empty word, 1, and 10
        assert not is_subword(parse_word("11"), parse_word("10"))


class TestLeftmostEmbedding:
    def test_paper_example(self):
        emb = leftmost_embedding(parse_word("11010"), parse_word("1011101100"))
        assert emb.indices == (1, 3, 6, 7, 9)
        assert emb.blocks == ((1, 1), (3, 3), (6, 7), (9, 9))

    def test_first_letter(self):
        emb = leftmost_embedding(parse_word("1"), parse_word("1011101100"))
        assert emb.indices == (1,)
        assert emb.blocks == ((1, 1),)

    def test_greedy_scan(self):
        # greedy places the fifth letter (a 0) at host position 6, giving
        # blocks (1..4) and (6..10); their last positions are the antichain
        # {4, 10} paired with this subword in the figures
        emb = leftmost_embedding(parse_word("101101100"), parse_word("1011101100"))
        assert emb.indices == (1, 2, 3, 4, 6, 7, 8, 9, 10)
        assert emb.blocks == ((1, 4), (6, 10))

    def test_not_a_subword(self):
        with pytest.raises(NotASubwordError):
            leftmost_embedding(parse_word("111"), parse_word("10"))

    def test_empty_rejected(self):
        with pytest.raises(EmptyWordError):
            leftmost_embedding(parse_word(""), parse_word("10"))

    def test_reextraction_and_greedy_property(self):
        for w in all_words_up_to(7):
            for s in enumerate_subwords(w):
                if not len(s):
                    continue
                emb = leftmost_embedding(s, w)
                assert "".join(w.bits[i - 1] for i in emb.indices) == s.bits
                prev = 0
                for k, index in enumerate(emb.indices):
                    assert s.bits[k] not in w.bits[prev : index - 1]
                    prev = index


class TestEnumerateSubwords:
    @pytest.mark.parametrize(
        "word, count",
        [("101110", 16), ("10010111", 32), ("1", 2)],
    )
    def test_counts(self, word, count):
        assert len(enumerate_subwords(parse_word(word))) == count

    def test_order_and_empty(self):
        subs = enumerate_subwords(parse_word("101"))
        assert subs[0].bits == ""
        keys = [(len(s), s.bits) for s in subs]
        assert keys == sorted(keys)

    def test_cap(self):
        with pytest.raises(CapExceededError):
            enumerate_subwords(parse_word("10110"), cap=4)


class TestTries:
    @pytest.mark.parametrize("word, count", [("101110", 16), ("10010111", 32), ("1", 2)])
    def test_node_counts(self, word, count):
        w = parse_word(word)
        assert node_count(lrs_subword_trie(w)) == count
        assert node_count(naive_subword_trie(w)) == count

    def test_single_letter_shape(self):
        root = lrs_subword_trie(parse_word("1"))
        assert root.label == "" and root.right is None
        assert root.left.label == "1" and root.left.edge == "1"
        assert root.left.left is None and root.left.right is None

    def test_empty_rejected(self):
        with pytest.raises(EmptyWordError):
            lrs_subword_trie(parse_word(""))

    def test_fig_shape_101110(self):
        # the spine carries one single-node copy hanging off the prefix 10,
        # and the prefix 1 carries the larger copy rooted at 11
        root = lrs_subword_trie(parse_word("101110"))
        assert root.left.label == "1"
        assert root.left.right.label == "11"
        assert root.left.left.label == "10"
        assert root.left.left.right.label == "100"
        assert root.left.left.right.left is None

    def test_long_first_block(self):
        # first block longer than one letter: copies of the innermost
        # subtree hang off every proper nonempty prefix of that block
        w = parse_word("110")
        root = lrs_subword_trie(w)
        assert node_count(root) == len(enumerate_subwords(w)) == 5
        assert root.right is None  # nothing may dangle from the root
        assert root.left.right.label == "10"

    def test_naive_trie_needs_no_recursion(self):
        """Under the default recursion limit of 1000, the prefix tree of a
        1,100-letter word is one path of 1,101 nodes; a build nesting one
        frame per letter overflows."""
        d = 1100
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            root = naive_subword_trie(parse_word("1" * d), cap=2000)
        finally:
            sys.setrecursionlimit(limit)
        labels, node = [], root
        while node is not None:
            assert node.right is None, node.label
            labels.append(node.label)
            node = node.left
        assert labels == ["1" * i for i in range(d + 1)]

    @pytest.mark.parametrize("bound", [8])
    def test_matches_oracle_exhaustively(self, bound):
        for w in all_words_up_to(bound):
            lrs = lrs_subword_trie(w)
            naive = naive_subword_trie(w)
            assert same_shape(lrs, naive, edges=True, labels=True), w.bits
            spelled = sorted(
                (node.label for node in iter_nodes(lrs)), key=lambda b: (len(b), b)
            )
            assert spelled == [s.bits for s in enumerate_subwords(w)], w.bits
