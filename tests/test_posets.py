"""Zigzag posets, antichains, order filters, and the antichain trie."""

import itertools

import pytest

from snakeword.errors import (
    CapExceededError,
    EmptyWordError,
    IndexOutOfRangeError,
    MalformedPathError,
    NotAFilterError,
    NotAnAntichainError,
)
from snakeword.posets import (
    antichain_of_path,
    antichain_trie,
    enumerate_antichains,
    enumerate_order_filters,
    extrema,
    is_antichain,
    is_order_filter,
    min_elements,
    poset_from_word,
    up_closure,
)
from snakeword.trie import iter_nodes, node_count
from snakeword.verify import all_words_up_to
from snakeword.words import BinaryWord, parse_word


def all_words_up_to(n):
    for length in range(1, n + 1):
        for tail in itertools.product("01", repeat=length - 1):
            yield BinaryWord("1" + "".join(tail))


def poset(text):
    return poset_from_word(parse_word(text))


class TestPoset:
    def test_empty_rejected(self):
        with pytest.raises(EmptyWordError):
            poset("")

    def test_comparability_examples(self):
        p = poset("101110")
        assert p.comparable(2, 4)  # 2 < 3 < 4 along the up-slope
        assert not p.comparable(1, 4)
        assert p.comparable(3, 3)

    def test_orientation(self):
        p = poset("101110")
        assert p.less_equal(2, 1) and not p.less_equal(1, 2)
        assert p.less_equal(2, 5) and not p.less_equal(5, 2)

    def test_range_check(self):
        with pytest.raises(IndexOutOfRangeError):
            poset("101").comparable(0, 2)
        with pytest.raises(IndexOutOfRangeError):
            poset("101").less_equal(1, 4)

    def test_less_equal_matches_slice_definition(self):
        for w in all_words_up_to(9):
            p = poset_from_word(w)
            for i, j in itertools.product(range(1, p.d + 1), repeat=2):
                below = "0" not in w.bits[i:j] if i <= j else "1" not in w.bits[j:i]
                assert p.less_equal(i, j) == below, (w.bits, i, j)
            for bad in (0, -1, p.d + 1):
                with pytest.raises(IndexOutOfRangeError):
                    p.less_equal(bad, 1)
                with pytest.raises(IndexOutOfRangeError):
                    p.less_equal(1, bad)

    def test_closure_oracle(self):
        # transitive closure of the covering digraph, computed independently
        for w in all_words_up_to(7):
            p = poset_from_word(w)
            d = p.d
            below = {i: {i} for i in range(1, d + 1)}
            for i in range(2, d + 1):
                lower, upper = (i - 1, i) if w.bit(i) else (i, i - 1)
                below[upper].add(lower)
            changed = True
            while changed:
                changed = False
                for i in range(1, d + 1):
                    extra = set().union(*(below[j] for j in below[i])) - below[i]
                    if extra:
                        below[i] |= extra
                        changed = True
            for i in range(1, d + 1):
                for j in range(1, d + 1):
                    assert p.less_equal(i, j) == (i in below[j]), (w.bits, i, j)


class TestExtrema:
    @pytest.mark.parametrize(
        "word, positions, interior",
        [
            ("11001110", (1, 2, 4, 7, 8), 3),
            ("1", (1,), -1),
            ("101110", (1, 2, 5, 6), 2),
            ("111", (1, 3), 0),
        ],
    )
    def test_examples(self, word, positions, interior):
        marks = extrema(poset(word))
        assert marks.positions == positions
        assert marks.interior_count == interior


class TestAntichains:
    def test_examples(self):
        p = poset("101110")
        assert is_antichain(p, {1, 3, 6})
        assert is_antichain(p, {1, 4})
        assert is_antichain(p, {2, 6})
        assert not is_antichain(p, {2, 4})
        assert is_antichain(p, set())

    def test_range_check(self):
        with pytest.raises(IndexOutOfRangeError):
            is_antichain(poset("101"), {1, 9})

    def test_neighbour_test_matches_pairwise(self):
        for word in all_words_up_to(8):
            p = poset_from_word(word)
            for size in range(p.d + 1):
                for subset in itertools.combinations(range(1, p.d + 1), size):
                    pairwise = not any(
                        p.comparable(a, b) for a, b in itertools.combinations(subset, 2)
                    )
                    assert is_antichain(p, subset) == pairwise, (word.bits, subset)
                    upward = all(
                        j in subset
                        for t in subset
                        for j in range(1, p.d + 1)
                        if p.less_equal(t, j)
                    )
                    assert is_order_filter(p, subset) == upward, (word.bits, subset)

    @pytest.mark.parametrize(
        "word, count", [("10010111", 32), ("101110", 16), ("1", 2)]
    )
    def test_enumeration_counts(self, word, count):
        assert len(enumerate_antichains(poset(word))) == count

    def test_enumeration_cap(self):
        with pytest.raises(CapExceededError):
            enumerate_antichains(poset("10110"), cap=4)


class TestPathMap:
    def test_paper_examples(self):
        assert antichain_of_path((0, 1, 2, 3, 6)) == (3, 6)
        assert antichain_of_path((0, 1, 3, 4, 6)) == (1, 4, 6)
        assert antichain_of_path((0,)) == ()

    def test_malformed(self):
        with pytest.raises(MalformedPathError):
            antichain_of_path((1, 2))
        with pytest.raises(MalformedPathError):
            antichain_of_path((0, 2, 2))
        with pytest.raises(MalformedPathError):
            antichain_of_path(())


class TestAntichainTrie:
    @pytest.mark.parametrize(
        "word, count", [("101110", 16), ("10010111", 32), ("11001110", 39)]
    )
    def test_node_counts(self, word, count):
        p = poset(word)
        root = antichain_trie(p)
        assert node_count(root) == count == len(enumerate_antichains(p))

    def test_monotone_word_is_spine(self):
        root = antichain_trie(poset("111"))
        assert node_count(root) == 4
        node, levels = root, []
        while node is not None:
            assert node.right is None
            levels.append(node.label.level)
            node = node.left
        assert levels == [0, 1, 2, 3]

    def test_single_element(self):
        root = antichain_trie(poset("1"))
        assert node_count(root) == 2
        assert root.label.antichain == ()
        assert root.left.label.antichain == (1,)

    def test_payloads_match_oracle(self):
        for w in all_words_up_to(8):
            p = poset_from_word(w)
            payloads = [n.label.antichain for n in iter_nodes(antichain_trie(p))]
            assert len(set(payloads)) == len(payloads), w.bits
            assert sorted(payloads, key=lambda a: (len(a), a)) == list(
                enumerate_antichains(p)
            ), w.bits

    def test_branch_steps(self):
        for w in all_words_up_to(7):
            for node in iter_nodes(antichain_trie(poset_from_word(w))):
                level, antichain = node.label.level, set(node.label.antichain)
                if node.left is not None:
                    child = node.left.label
                    assert child.level == level + 1
                    assert set(child.antichain) == (antichain - {level}) | {level + 1}
                if node.right is not None:
                    child = node.right.label
                    assert child.level > level + 1
                    assert set(child.antichain) == antichain | {child.level}


class TestFilters:
    def test_up_closure_example(self):
        p = poset("1011101100")
        assert up_closure(p, (1, 3, 7, 9)) == frozenset({1, 3, 4, 5, 7, 8, 9})

    def test_empty(self):
        assert up_closure(poset("101"), ()) == frozenset()

    def test_rejects_non_antichain(self):
        with pytest.raises(NotAnAntichainError):
            up_closure(poset("101110"), (2, 4))

    def test_rejects_non_filter(self):
        p = poset("101110")
        assert is_order_filter(p, {3, 4, 5})
        assert not is_order_filter(p, {3})
        with pytest.raises(NotAFilterError):
            min_elements(p, {3})

    @pytest.mark.parametrize("word, count", [("10010111", 32), ("1", 2)])
    def test_filter_counts(self, word, count):
        assert len(enumerate_order_filters(poset(word))) == count

    def test_roundtrip_exhaustive(self):
        for w in all_words_up_to(8):
            p = poset_from_word(w)
            filters = set(enumerate_order_filters(p))
            images = set()
            for antichain in enumerate_antichains(p):
                filt = up_closure(p, antichain)
                images.add(filt)
                assert min_elements(p, filt) == antichain, w.bits
            assert images == filters, w.bits
