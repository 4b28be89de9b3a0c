"""The two bijections tying the structures together.

``antichain_to_subword`` reads a subword off an antichain: start with the
letter 1, copy the edge labels from element 1 up to the first antichain
element, then repeatedly jump to the first extremum past the previous
element and copy labels up to the next one. ``subword_to_antichain`` goes
back: embed the subword leftmost-greedily, split the used positions into
maximal consecutive runs, and keep each run's last position.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvariantError, NotAnAntichainError
from .posets import extrema, is_antichain, poset_from_word, up_closure
from .snake import Edge, filter_region, matching_for_subword
from .words import BinaryWord, is_subword, leftmost_embedding


def antichain_to_subword(word: BinaryWord, antichain) -> BinaryWord:
    """Map an antichain of the word's poset to a subword of the word."""
    poset = poset_from_word(word)
    items = tuple(sorted(set(antichain)))
    if not is_antichain(poset, items):
        raise NotAnAntichainError(f"{items} contains comparable elements")
    if not items:
        return BinaryWord("")

    marks = extrema(poset).positions
    pieces = ["1", word.bits[1 : items[0]]]
    for prev, cur in zip(items, items[1:]):
        jump = next(m for m in marks if m > prev)
        if not prev < jump < cur:
            raise InvariantError(f"no extremum between {prev} and {cur}")
        pieces.append(word.bits[jump:cur])
    result = BinaryWord("".join(pieces))
    if not is_subword(result, word):
        raise InvariantError("antichain mapped outside the subword set")
    return result


def subword_to_antichain(word: BinaryWord, s: BinaryWord) -> tuple[int, ...]:
    """Map a subword to the antichain of last positions of its embedding's
    maximal consecutive runs."""
    if not len(s):
        return ()
    result = tuple(end for _, end in leftmost_embedding(s, word).blocks)
    if not is_antichain(poset_from_word(word), result):
        raise InvariantError(f"{result} is not an antichain")
    return result


@dataclass(frozen=True)
class CorrespondenceRecord:
    """One subword with every structure attached to it.

    All fields are mutually consistent: the antichain is the image of the
    subword, the order filter is its up-closure, the matching comes from the
    filter region, and the filter region equals the order filter under the
    tile/element identification.
    """

    word: BinaryWord
    subword: BinaryWord
    embedding_indices: tuple[int, ...]
    embedding_blocks: tuple[tuple[int, int], ...]
    antichain: tuple[int, ...]
    order_filter: frozenset[int]
    matching: frozenset[Edge]

    def to_json_dict(self) -> dict:
        return {
            "word": self.word.bits,
            "subword": self.subword.bits,
            "embedding_indices": list(self.embedding_indices),
            "embedding_blocks": [list(block) for block in self.embedding_blocks],
            "antichain": list(self.antichain),
            "order_filter": sorted(self.order_filter),
            "matching": [[e.x, e.y, e.orientation] for e in sorted(self.matching)],
        }


def full_correspondence(word: BinaryWord, s: BinaryWord) -> CorrespondenceRecord:
    """Compute subword, antichain, filter, and matching together, checking
    that they agree with one another."""
    embedding = leftmost_embedding(s, word) if len(s) else None
    indices, blocks = (embedding.indices, embedding.blocks) if embedding else ((), ())
    # the antichain of subword_to_antichain, from the same embedding
    antichain = tuple(end for _, end in blocks)
    poset = poset_from_word(word)
    if not is_antichain(poset, antichain):
        raise InvariantError(f"{antichain} is not an antichain")
    order_filter = up_closure(poset, antichain)
    matching = matching_for_subword(word, s)
    if filter_region(word, s) != order_filter:
        raise InvariantError(f"filter region of {s.bits!r} is not its up-closure")
    if antichain_to_subword(word, antichain) != s:
        raise InvariantError(f"antichain {antichain} does not map back to {s.bits!r}")
    return CorrespondenceRecord(
        word=word,
        subword=s,
        embedding_indices=indices,
        embedding_blocks=blocks,
        antichain=antichain,
        order_filter=order_filter,
        matching=matching,
    )
