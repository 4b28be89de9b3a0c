"""Rooted binary trees with labeled nodes and optionally labeled edges.

The same structure backs the trie of subwords (edge letters spell the
subwords) and the antichain trie (nodes carry integer levels plus the
antichain read off the root path); :func:`spine_with_copies` builds both
shapes. Trees are built once and treated as immutable afterwards. The
traversals recurse once per level and tree depth is the word length plus
one, so they raise ``RecursionError`` on words of about 1,000 letters.
"""

from __future__ import annotations

from typing import Any, Iterator, Sequence


class TrieNode:
    __slots__ = ("label", "edge", "left", "right")

    def __init__(self, label: Any = None, edge: str | None = None):
        self.label = label
        self.edge = edge
        self.left: TrieNode | None = None
        self.right: TrieNode | None = None

    def __repr__(self) -> str:
        return f"TrieNode(label={self.label!r}, edge={self.edge!r})"


def clone(node: TrieNode) -> TrieNode:
    """Deep copy preserving labels and edge letters."""
    copy = TrieNode(node.label, node.edge)
    if node.left is not None:
        copy.left = clone(node.left)
    if node.right is not None:
        copy.right = clone(node.right)
    return copy


def spine_with_copies(d: int, cuts: Sequence[int]) -> TrieNode:
    """The vertical tree on levels 0..d plus copies of its lower subtrees.

    Start from the linear tree whose spine node at level i is labeled i,
    each the left child of the one above. ``cuts`` are increasing levels
    strictly between 1 and d. Working from the last cut leftwards, snapshot
    the subtree rooted at the spine node one past the cut and attach a copy
    as the right child of every spine node from the previous cut (level 1
    for the first cut) up to, not including, this one. Copies keep their
    level labels; no node has an edge letter yet.
    """
    spine = [TrieNode(label=0)]
    for i in range(1, d + 1):
        node = TrieNode(label=i)
        spine[i - 1].left = node
        spine.append(node)
    marks = (1, *cuts)
    for n in range(len(cuts), 0, -1):
        source = spine[marks[n] + 1]
        for p in range(marks[n - 1], marks[n]):
            spine[p].right = clone(source)
    return spine[0]


def iter_nodes(node: TrieNode) -> Iterator[TrieNode]:
    """Preorder traversal, left child before right child."""
    yield node
    if node.left is not None:
        yield from iter_nodes(node.left)
    if node.right is not None:
        yield from iter_nodes(node.right)


def node_count(node: TrieNode) -> int:
    return sum(1 for _ in iter_nodes(node))


def same_shape(
    a: TrieNode | None,
    b: TrieNode | None,
    *,
    edges: bool = False,
    labels: bool = False,
) -> bool:
    """Ordered isomorphism test: left children match left children.

    With ``edges``/``labels`` the incoming edge letters / node labels must
    agree as well.
    """
    if a is None or b is None:
        return a is None and b is None
    if edges and a.edge != b.edge:
        return False
    if labels and a.label != b.label:
        return False
    return same_shape(a.left, b.left, edges=edges, labels=labels) and same_shape(
        a.right, b.right, edges=edges, labels=labels
    )
