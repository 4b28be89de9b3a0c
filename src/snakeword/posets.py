"""Piecewise-linear (zigzag) posets read off a binary word, antichain and
order-filter machinery, and the antichain trie.

Elements are the integers 1..d. For i >= 2, letter i of the word gives the
covering relation between elements i-1 and i: a 1 slopes up (i-1 below i),
a 0 slopes down (i-1 above i). Two elements are comparable exactly when the
slope is constant between them.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable
from dataclasses import dataclass

from .errors import (
    CapExceededError,
    EmptyWordError,
    IndexOutOfRangeError,
    MalformedPathError,
    NotAFilterError,
    NotAnAntichainError,
)
from .trie import TrieNode, spine_with_copies
from .words import DEFAULT_CAP, BinaryWord, runs


@dataclass(frozen=True)
class PiecewisePoset:
    """Zigzag poset on 1..d with slopes read from letters 2..d of a word."""

    word: BinaryWord

    @property
    def d(self) -> int:
        return len(self.word)

    def _check(self, *elements: int) -> None:
        for i in elements:
            if not 1 <= i <= self.d:
                raise IndexOutOfRangeError(f"element {i} outside 1..{self.d}")

    def less_equal(self, i: int, j: int) -> bool:
        """True iff element i is below-or-equal element j."""
        bits = self.word.bits
        if not (0 < i <= len(bits) and 0 < j <= len(bits)):
            self._check(i, j)
        # bits[i:j] holds letters i+1..j; a monotone run means comparability
        return bits.find("0", i, j) < 0 if i <= j else bits.find("1", j, i) < 0

    def comparable(self, i: int, j: int) -> bool:
        return self.less_equal(i, j) or self.less_equal(j, i)


def poset_from_word(word: BinaryWord) -> PiecewisePoset:
    if not len(word):
        raise EmptyWordError("the empty word has no poset")
    return PiecewisePoset(word)


@dataclass(frozen=True)
class ExtremaList:
    """Minimal/maximal elements, left to right; always starts at 1, ends at d."""

    positions: tuple[int, ...]

    @property
    def interior_count(self) -> int:
        """Number of extrema besides the two ends (-1 for a one-element poset,
        where the sole element is counted once)."""
        return len(self.positions) - 2


def extrema(poset: PiecewisePoset) -> ExtremaList:
    """Endpoints plus every position where the zigzag changes slope."""
    d = poset.d
    if d == 1:
        return ExtremaList((1,))
    interior = [i for i in range(2, d) if poset.word.bit(i) != poset.word.bit(i + 1)]
    return ExtremaList((1, *interior, d))


def is_antichain(poset: PiecewisePoset, elements: Iterable[int]) -> bool:
    """True iff the elements are pairwise incomparable (the empty set is).

    On a fence, a comparable pair spans one monotone stretch, which holds
    every element in between, so testing neighbouring pairs is enough."""
    items = sorted(set(elements))
    poset._check(*items)
    return not any(poset.comparable(a, b) for a, b in zip(items, items[1:]))


def enumerate_antichains(
    poset: PiecewisePoset, cap: int = DEFAULT_CAP
) -> tuple[tuple[int, ...], ...]:
    """All antichains (including the empty one), grown by definition: an
    antichain extends by a larger element incomparable with every member.
    Sorted by size then lexicographically."""
    d = poset.d
    if d > cap:
        raise CapExceededError(f"poset size {d} exceeds the oracle cap {cap}")
    # bit j of free[i] is set when j is incomparable with i
    free = [0] * (d + 1)
    for i, j in itertools.combinations(range(1, d + 1), 2):
        if not poset.comparable(i, j):
            free[i] |= 1 << j
            free[j] |= 1 << i
    # each level, grown from a lexicographic level, is lexicographic itself
    level = [((), (1 << d + 1) - 2)]
    found = []
    while level:
        found += [members for members, _ in level]
        level = [
            ((*members, j), allowed & free[j])
            for members, allowed in level
            for j in range(members[-1] + 1 if members else 1, d + 1)
            if allowed >> j & 1
        ]
    return tuple(found)


def up_closure(poset: PiecewisePoset, antichain: Iterable[int]) -> frozenset[int]:
    """The order filter generated by an antichain.

    Element t lies below exactly the elements of its two monotone stretches:
    leftwards while the letters are 0, rightwards while they are 1."""
    items = tuple(sorted(set(antichain)))
    if not is_antichain(poset, items):
        raise NotAnAntichainError(f"{items} contains comparable elements")
    bits, d = poset.word.bits, poset.d
    up: set[int] = set()
    for t in items:
        up.update(range(bits.rfind("1", 0, t) + 1, bits.find("0", t) + 1 or d + 1))
    return frozenset(up)


def _upper_covers(poset: PiecewisePoset, t: int) -> tuple[int, ...]:
    """The elements covering t: t+1 when letter t+1 is 1, t-1 when letter t
    is 0 (letter 1 is always 1, so element 1 has no cover on its left)."""
    bits = poset.word.bits
    right = (t + 1,) if t < poset.d and bits[t] == "1" else ()
    return right + ((t - 1,) if bits[t - 1] == "0" else ())


def is_order_filter(poset: PiecewisePoset, elements: Iterable[int]) -> bool:
    """True iff the set is upward closed, that is, holds the upper covers of
    its members."""
    members = set(elements)
    poset._check(*members)
    return all(c in members for t in members for c in _upper_covers(poset, t))


def min_elements(poset: PiecewisePoset, filt: Iterable[int]) -> tuple[int, ...]:
    """The minimal elements of an order filter, the members that cover no
    other member; inverse of :func:`up_closure`."""
    members = set(filt)
    if not is_order_filter(poset, members):
        raise NotAFilterError(f"{sorted(members)} is not upward closed")
    covers = {c for t in members for c in _upper_covers(poset, t)}
    return tuple(sorted(members - covers))


def enumerate_order_filters(
    poset: PiecewisePoset, cap: int = DEFAULT_CAP
) -> tuple[frozenset[int], ...]:
    """All upward-closed subsets, grown by definition: elements 1..d are
    decided in order, t goes in only if every decided element above it is
    in, and stays out only if no decided element below it is in. A
    consistent partial choice always extends, so no branch dead-ends."""
    d = poset.d
    if d > cap:
        raise CapExceededError(f"poset size {d} exceeds the oracle cap {cap}")
    # bits of elements decided before t that lie above / below t
    above, below = [0] * (d + 1), [0] * (d + 1)
    for s, t in itertools.combinations(range(1, d + 1), 2):
        above[t] |= poset.less_equal(t, s) << s
        below[t] |= poset.less_equal(s, t) << s
    masks = [0]
    for t in range(1, d + 1):
        kept_out = [m for m in masks if below[t] & m == 0]
        masks = [m | 1 << t for m in masks if above[t] & ~m == 0] + kept_out
    found = [frozenset(t for t in range(1, d + 1) if m >> t & 1) for m in masks]
    found.sort(key=lambda f: (len(f), sorted(f)))
    return tuple(found)


def antichain_of_path(labels: Iterable[int]) -> tuple[int, ...]:
    """Map a root path of node labels to an antichain.

    For each maximal run of consecutive integers in the path, keep the run's
    largest member; the run consisting of the root label 0 alone contributes
    nothing.
    """
    seq = tuple(labels)
    if not seq or seq[0] != 0:
        raise MalformedPathError(f"path must start at 0: {seq}")
    if any(b <= a for a, b in zip(seq, seq[1:])):
        raise MalformedPathError(f"path must be strictly increasing: {seq}")
    return tuple(last for _, last in runs(seq) if last > 0)


@dataclass(frozen=True)
class AntichainLabel:
    """Payload of an antichain-trie node: its integer level and the antichain
    read off the root path."""

    level: int
    antichain: tuple[int, ...]

    def __str__(self) -> str:
        inner = ",".join(str(i) for i in self.antichain)
        return f"{self.level} {{{inner}}}" if inner else f"{self.level} ∅"


def antichain_trie(poset: PiecewisePoset) -> TrieNode:
    """The antichain trie: the spine on levels 0..d with copies cut at the
    interior extrema (:func:`~snakeword.trie.spine_with_copies`), every node
    labeled with an :class:`AntichainLabel`."""
    root = spine_with_copies(poset.d, extrema(poset).positions[1:-1])
    _annotate(root, [])
    return root


def _annotate(node: TrieNode, path: list[int]) -> None:
    path.append(node.label)
    node.label = AntichainLabel(path[-1], antichain_of_path(path))
    if node.left is not None:
        _annotate(node.left, path)
    if node.right is not None:
        _annotate(node.right, path)
    path.pop()
