"""The four enumeration oracles against generate-and-test references taken
straight from the definitions, and the matching oracle at depth."""

import inspect
import itertools
import random
import sys

import pytest

from snakeword.posets import enumerate_antichains, enumerate_order_filters, poset_from_word
from snakeword.snake import enumerate_perfect_matchings, is_perfect_matching, snake_from_word
from snakeword.words import BinaryWord, enumerate_subwords


def masks(d):
    """Every subset of 1..d, as a sorted list."""
    for mask in range(1 << d):
        yield [i for i in range(1, d + 1) if mask >> (i - 1) & 1]


def reference_subwords(word):
    """Every index subset spells a subsequence; keep the empty word and the
    words that start with 1."""
    spelled = {"".join(word.bits[i - 1] for i in sub) for sub in masks(len(word))}
    return sorted((s for s in spelled if s[:1] != "0"), key=lambda s: (len(s), s))


def reference_antichains(poset):
    """Index subsets whose members are pairwise incomparable."""
    pairs = list(itertools.combinations(range(1, poset.d + 1), 2))
    comparable = {pair for pair in pairs if poset.comparable(*pair)}
    return sorted(
        (
            tuple(sub)
            for sub in masks(poset.d)
            if comparable.isdisjoint(itertools.combinations(sub, 2))
        ),
        key=lambda a: (len(a), a),
    )


def reference_filters(poset):
    """Index subsets that hold everything above each of their members."""
    d = poset.d
    elements = range(1, d + 1)
    above = {t: {j for j in elements if poset.less_equal(t, j)} for t in elements}
    return sorted(
        (frozenset(sub) for sub in masks(d) if all(above[t] <= set(sub) for t in sub)),
        key=lambda f: (len(f), sorted(f)),
    )


def reference_matchings(graph):
    """Edge subsets, taken or skipped edge by edge in sorted order, in which
    every vertex lies on exactly one edge. A branch stops as soon as a vertex
    is covered twice, or its last edge is skipped while it is uncovered."""
    edges = graph.edges()
    last = {p: k for k, edge in enumerate(edges) for p in edge.endpoints}
    found = []

    def grow(k, chosen, covered):
        if k == len(edges):
            if covered == graph.vertices():
                found.append(frozenset(chosen))
            return
        ends = edges[k].endpoints
        if not covered.intersection(ends):
            grow(k + 1, chosen + [edges[k]], covered | set(ends))
        if all(p in covered or last[p] > k for p in ends):
            grow(k + 1, chosen, covered)

    grow(0, [], frozenset())
    return sorted(found, key=sorted)


def distinct_subsequence_count(bits):
    """1 for the empty word plus the distinct subsequences of letters 2..d
    (a last-occurrence recurrence), each following the leading 1."""
    count, last = 1, {}
    for c in bits[1:]:
        count, last[c] = 2 * count - last.get(c, 0), count
    return 1 + count


@pytest.mark.parametrize("d", range(1, 10))
def test_oracles_match_definitions(d):
    """Equal values in equal order, for every word of length d."""
    for tail in itertools.product("01", repeat=d - 1):
        word = BinaryWord("1" + "".join(tail))
        poset = poset_from_word(word)
        graph = snake_from_word(word)
        assert [s.bits for s in enumerate_subwords(word)] == reference_subwords(word), word
        assert list(enumerate_antichains(poset)) == reference_antichains(poset), word
        assert list(enumerate_order_filters(poset)) == reference_filters(poset), word
        assert list(enumerate_perfect_matchings(graph)) == reference_matchings(graph), word


def test_seeded_counts_agree_with_recurrence():
    rng = random.Random(20194)
    for _ in range(5):
        bits = "1" + "".join(rng.choice("01") for _ in range(rng.randint(15, 19)))
        word = BinaryWord(bits)
        poset = poset_from_word(word)
        counts = {
            len(enumerate_subwords(word)),
            len(enumerate_antichains(poset)),
            len(enumerate_order_filters(poset)),
            len(enumerate_perfect_matchings(snake_from_word(word))),
        }
        assert counts == {distinct_subsequence_count(bits)}, bits


def test_matching_oracle_needs_no_recursion():
    """A long snake is searched with the recursion limit just above the
    current stack depth; a search nesting one frame per edge overflows it."""
    k = 400
    graph = snake_from_word(BinaryWord("1" * k))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 50)
    try:
        matchings = enumerate_perfect_matchings(graph, cap=k)
    finally:
        sys.setrecursionlimit(limit)
    assert len(set(matchings)) == len(matchings) == k + 1
    assert all(is_perfect_matching(graph, m) for m in matchings)
