"""Binary words: parsing, block factorization, scattered subwords, and the
trie of distinct subwords (both the brute-force prefix tree and the
vertical-tree-plus-copies construction).

Conventions used throughout the package:

* a binary word is a 0/1 string whose first letter is 1; the empty word is
  a valid word and a valid subword of every word;
* letters are 1-indexed (``bit(1)`` is the first letter), so positions line
  up with poset elements and snake-graph tiles without off-by-one shifts.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from .errors import (
    CapExceededError,
    EmptyWordError,
    InvalidCharacterError,
    LeadingZeroError,
    NotASubwordError,
)
from .trie import TrieNode, spine_with_copies

#: Largest word length the oracle enumerations accept by default.
DEFAULT_CAP = 20


@dataclass(frozen=True)
class BinaryWord:
    """A finite 0/1 word; nonempty words start with 1."""

    bits: str = ""

    def __post_init__(self) -> None:
        if self.bits.strip("01"):
            raise InvalidCharacterError(f"not a 0/1 string: {self.bits!r}")
        if self.bits.startswith("0"):
            raise LeadingZeroError(f"word may not start with 0: {self.bits!r}")

    def __len__(self) -> int:
        return len(self.bits)

    def __str__(self) -> str:
        return self.bits

    def bit(self, i: int) -> int:
        """The i-th letter as an int, 1-indexed."""
        return int(self.bits[i - 1])


def parse_word(text: str) -> BinaryWord:
    """Parse a 0/1 string (possibly empty) into a validated word."""
    return BinaryWord(text)


@dataclass(frozen=True)
class Block:
    """A maximal run of equal letters; ``start``/``end`` are 1-indexed."""

    letter: int
    length: int
    start: int

    @property
    def end(self) -> int:
        return self.start + self.length - 1


def factor_blocks(word: BinaryWord) -> tuple[Block, ...]:
    """Factor a nonempty word into maximal blocks of equal letters.

    Adjacent blocks alternate letters, the first block is a block of 1s,
    and a trailing empty block of 0s is simply absent.
    """
    if not len(word):
        raise EmptyWordError("cannot factor the empty word")
    blocks: list[Block] = []
    start = 1
    for i in range(2, len(word) + 1):
        if word.bit(i) != word.bit(start):
            blocks.append(Block(word.bit(start), i - start, start))
            start = i
    blocks.append(Block(word.bit(start), len(word) + 1 - start, start))
    return tuple(blocks)


def is_subword(s: BinaryWord, w: BinaryWord) -> bool:
    """True iff ``s`` embeds as a (scattered) subsequence of ``w``.

    The empty word is a subword of every word; nonempty candidates start
    with 1 by construction, matching the host's first letter.
    """
    return len(_greedy(s.bits, w.bits)) == len(s)


def _greedy(sub: str, bits: str) -> list[int]:
    """1-indexed host positions of the leftmost-greedy embedding of ``sub``
    into ``bits``; shorter than ``sub`` exactly when ``sub`` is not a
    subword, because it stops at the first letter that does not fit."""
    indices = []
    pos = 0
    for c in sub:
        pos = bits.find(c, pos) + 1
        if pos == 0:
            break
        indices.append(pos)
    return indices


def runs(values: Sequence[int]) -> tuple[tuple[int, int], ...]:
    """Maximal runs of consecutive integers in a nonempty increasing
    sequence, as (first, last) pairs."""
    found = []
    run_start = prev = values[0]
    for v in values[1:]:
        if v != prev + 1:
            found.append((run_start, prev))
            run_start = v
        prev = v
    found.append((run_start, prev))
    return tuple(found)


@dataclass(frozen=True)
class Embedding:
    """The leftmost-greedy embedding of a nonempty subword into a host.

    ``indices`` are the 1-indexed host positions; each is the smallest
    possible given the previous one.
    """

    subword: BinaryWord
    host: BinaryWord
    indices: tuple[int, ...]

    @property
    def blocks(self) -> tuple[tuple[int, int], ...]:
        """Maximal runs of consecutive host indices, as (start, end) pairs."""
        return runs(self.indices)


def leftmost_embedding(s: BinaryWord, w: BinaryWord) -> Embedding:
    """Greedy left-to-right embedding of ``s`` into ``w``."""
    if not len(s):
        raise EmptyWordError("the empty word has no embedding indices")
    indices = _greedy(s.bits, w.bits)
    if len(indices) < len(s):
        raise NotASubwordError(f"{s.bits!r} is not a subword of {w.bits!r}")
    return Embedding(s, w, tuple(indices))


def enumerate_subwords(word: BinaryWord, cap: int = DEFAULT_CAP) -> tuple[BinaryWord, ...]:
    """All distinct subwords, grown by definition one letter at a time: a
    subword of the first i letters skips letter i or ends with it. Only the
    empty word and words starting with 1 are kept.

    Returns the empty word first, then length-lexicographic order.
    """
    d = len(word)
    if d > cap:
        raise CapExceededError(f"word length {d} exceeds the oracle cap {cap}")
    seen = {""}
    for c in word.bits:
        seen |= {sub + c for sub in seen if sub or c == "1"}
    ordered = sorted(seen, key=lambda b: (len(b), b))
    return tuple(BinaryWord(b) for b in ordered)


def naive_subword_trie(word: BinaryWord, cap: int = DEFAULT_CAP) -> TrieNode:
    """Prefix tree over the enumerated subword set.

    Child orientation: the left child appends the letter the leftmost-greedy
    embedding would consume next, the right child (when it exists) appends
    the other letter. This reproduces the child order of
    :func:`lrs_subword_trie`, where the left child continues the current
    maximal block and the right child starts a new one.
    """
    subs = {s.bits for s in enumerate_subwords(word, cap)}
    bits = word.bits
    root = TrieNode(label="")
    stack = [root]  # one entry per node, so deep words need no recursion
    while stack:
        node = stack.pop()
        sub = node.label
        end = _greedy(sub, bits)[-1] if sub else 0
        if end < len(bits):
            cont = bits[end]
            other = "0" if cont == "1" else "1"
            node.left = TrieNode(label=sub + cont, edge=cont)
            stack.append(node.left)
            if sub + other in subs:
                node.right = TrieNode(label=sub + other, edge=other)
                stack.append(node.right)
    return root


def lrs_subword_trie(word: BinaryWord) -> TrieNode:
    """The vertical-tree-plus-copies construction of the subword trie.

    :func:`~snakeword.trie.spine_with_copies` cuts at every block end but
    the last. The spine root is never an attachment target (a copy there
    would spell words starting with 0), so a first block of length 1 is no
    cut. Each node's edge letter is the letter at its level."""
    if not len(word):
        raise EmptyWordError("the trie construction needs a nonempty word")
    cuts = [b.end for b in factor_blocks(word)[:-1] if b.end > 1]
    root = spine_with_copies(len(word), cuts)
    _spell_labels(root, word.bits)
    return root


def _spell_labels(root: TrieNode, bits: str) -> None:
    """Set each edge letter from its level, and each label to the edge
    letters read from the root."""
    stack = [(root, "")]
    while stack:
        node, path = stack.pop()
        node.label = path
        for child in (node.left, node.right):
            if child is not None:
                child.edge = bits[child.label - 1]
                stack.append((child, path + child.edge))
