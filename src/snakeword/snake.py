"""Snake graphs from binary words: tile geometry, the two-valued edge sign
function, the minimal matching, perfect-matching enumeration, and the map
from subwords to perfect matchings.

A snake graph with d tiles is laid out on the unit lattice: tile 1 sits at
(0, 0) and each later tile is glued north or east of the previous one. Every
vertex lies on the outer face, so the boundary edges form a single cycle
through all 2d+2 vertices; the minimal matching is every other edge of it.
Edges are named tuples and a graph equals and hashes as its word, so a
cache lookup keyed by a graph costs one word hash.
:func:`matching_for_subword` reads the filter region as the up-closure of
the subword's antichain; :func:`filter_region`, the paper's search over
runs of tiles, is its geometric cross-check and what renderings shade.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

from .errors import (
    CapExceededError,
    EmptyWordError,
    IndexOutOfRangeError,
    InvariantError,
    NoQualifyingRegionError,
)
from .posets import poset_from_word, up_closure
from .words import DEFAULT_CAP, BinaryWord, leftmost_embedding

NORTH = "N"
EAST = "E"


class Edge(NamedTuple):
    """A unit lattice segment keyed by its smaller endpoint.

    ``orientation`` is "H" for the segment (x,y)-(x+1,y) and "V" for
    (x,y)-(x,y+1). Hashes, compares and sorts as ``(x, y, orientation)``.
    """

    x: int
    y: int
    orientation: str

    @property
    def endpoints(self) -> tuple[tuple[int, int], tuple[int, int]]:
        if self.orientation == "H":
            return (self.x, self.y), (self.x + 1, self.y)
        return (self.x, self.y), (self.x, self.y + 1)

    def __str__(self) -> str:
        return f"{self.orientation}({self.x},{self.y})"


def _sides(x: int, y: int) -> tuple[Edge, Edge, Edge, Edge]:
    """South, east, north and west sides of the tile with southwest corner (x, y)."""
    return Edge(x, y, "H"), Edge(x + 1, y, "V"), Edge(x, y + 1, "H"), Edge(x, y, "V")


@dataclass(frozen=True)
class SnakeGraph:
    """d unit tiles glued by north/east moves; tile 1 at the origin. The word
    fixes the tiles and moves, so a graph equals and hashes as its word."""

    word: BinaryWord
    tiles: tuple[tuple[int, int], ...] = field(compare=False)
    moves: tuple[str, ...] = field(compare=False)

    @property
    def tile_count(self) -> int:
        return len(self.tiles)

    def tile_sides(self, i: int) -> dict[str, Edge]:
        """The four edges of tile i (1-indexed)."""
        self._check(i)
        return dict(zip(("south", "east", "north", "west"), _sides(*self.tiles[i - 1])))

    def _check(self, *tiles: int) -> None:
        for t in tiles:
            if not 1 <= t <= self.tile_count:
                raise IndexOutOfRangeError(f"tile {t} outside 1..{self.tile_count}")

    def interior_edges(self) -> tuple[Edge, ...]:
        """Edge k is shared by tiles k and k+1."""
        shared = []
        for k, move in enumerate(self.moves, start=1):
            side = "north" if move == NORTH else "east"
            shared.append(self.tile_sides(k)[side])
        return tuple(shared)

    def edges(self) -> tuple[Edge, ...]:
        return tuple(sorted({edge for tile in self.tiles for edge in _sides(*tile)}))

    def boundary_edges(self) -> frozenset[Edge]:
        return frozenset(self.edges()) - frozenset(self.interior_edges())

    def vertices(self) -> frozenset[tuple[int, int]]:
        return _corners(self.tiles)


def _corners(tiles: Iterable[tuple[int, int]]) -> frozenset[tuple[int, int]]:
    """The vertices of the tiles with these southwest corners."""
    return frozenset((x + i, y + j) for x, y in tiles for i in (0, 1) for j in (0, 1))


def snake_from_word(word: BinaryWord) -> SnakeGraph:
    """Build the snake graph whose sign sequence is the word.

    Odd tiles carry north sign 1, even tiles north sign 0; the move after
    tile i is north exactly when letter i+1 equals tile i's north sign, so
    the shared edge picks up that letter as its sign.
    """
    if not len(word):
        raise EmptyWordError("the empty word has no snake graph")
    tiles = [(0, 0)]
    moves = []
    for i in range(1, len(word)):
        north_sign = i % 2
        move = NORTH if word.bit(i + 1) == north_sign else EAST
        x, y = tiles[-1]
        tiles.append((x, y + 1) if move == NORTH else (x + 1, y))
        moves.append(move)
    return SnakeGraph(word, tuple(tiles), tuple(moves))


def sign_assignment(graph: SnakeGraph) -> dict[Edge, int]:
    """The unique sign function with sign 0 on the south edge of tile 1.

    Per tile: north = west, south = east, north opposite south. Flipping
    every bit gives the only other sign function.
    """
    signs: dict[Edge, int] = {}
    for i in range(1, graph.tile_count + 1):
        north = i % 2
        sides = graph.tile_sides(i)
        for name, value in (
            ("north", north),
            ("west", north),
            ("south", 1 - north),
            ("east", 1 - north),
        ):
            edge = sides[name]
            if signs.setdefault(edge, value) != value:
                raise InvariantError("inconsistent signs on a shared edge")
    return signs


def sign_sequence_edges(graph: SnakeGraph) -> tuple[Edge, ...]:
    """The edge carrying position i of the sign sequence, for i = 1..d.

    Position 1 is the west edge of tile 1; position i >= 2 is interior
    edge i-1.
    """
    return (graph.tile_sides(1)["west"], *graph.interior_edges())


def is_perfect_matching(graph: SnakeGraph, edges: Iterable[Edge]) -> bool:
    return _covers_exactly(graph.vertices(), edges)


def _covers_exactly(vertices: frozenset[tuple[int, int]], edges: Iterable[Edge]) -> bool:
    covered = []
    for edge in edges:
        covered.extend(edge.endpoints)
    return len(covered) == len(set(covered)) and set(covered) == vertices


@lru_cache(maxsize=None)
def minimal_matching(graph: SnakeGraph) -> frozenset[Edge]:
    """The unique boundary-only perfect matching containing the south edge
    of tile 1: every other edge of the boundary cycle, starting there."""
    # The cycle runs out along the south-east side and back along the
    # north-west side; past each tile, both sides turn with the next move.
    turns = ["V" if move == NORTH else "H" for move in graph.moves]
    out = [Edge(x + 1, y, o) for (x, y), o in zip(graph.tiles, turns + ["V"])]
    back = [Edge(x, y + 1, o) for (x, y), o in zip(graph.tiles, turns + ["H"])]
    chosen = frozenset([Edge(0, 0, "H"), *out, *back[::-1], Edge(0, 0, "V")][::2])
    if not is_perfect_matching(graph, chosen):
        raise InvariantError("minimal matching is not a perfect matching")
    return chosen


@lru_cache(maxsize=8)
def enumerate_perfect_matchings(
    graph: SnakeGraph, cap: int = DEFAULT_CAP
) -> tuple[frozenset[Edge], ...]:
    """All perfect matchings, by backtracking over vertices in lexicographic
    order: the first uncovered vertex is matched to each uncovered neighbour
    in turn. Snake structure is not used; the search keeps its own stack."""
    if graph.tile_count > cap:
        raise CapExceededError(
            f"snake graph with {graph.tile_count} tiles exceeds the oracle cap {cap}"
        )
    edges = graph.edges()
    index = {v: i for i, v in enumerate(sorted(graph.vertices()))}
    n = len(index)
    # an edge's first endpoint is its smaller one; every vertex before the
    # first uncovered one is covered, so only edges to later vertices match it
    ends = [tuple(index[p] for p in edge.endpoints) for edge in edges]
    later: list[list[int]] = [[] for _ in range(n)]
    for e, (i, _) in enumerate(ends):
        later[i].append(e)
    covered = [False] * n
    chosen: list[int] = []
    found = []
    stack = [(0, e) for e in reversed(later[0])]  # (edges kept, next edge)
    while stack:
        depth, e = stack.pop()
        for f in chosen[depth:]:
            covered[ends[f][0]] = covered[ends[f][1]] = False
        del chosen[depth:]
        chosen.append(e)
        i, j = ends[e]
        covered[i] = covered[j] = True
        while i < n and covered[i]:
            i += 1
        if i == n:
            found.append(tuple(chosen))
        else:
            stack += [(depth + 1, f) for f in reversed(later[i]) if not covered[ends[f][1]]]
    # edge numbers follow the sorted edge order, as do sorted edge lists
    found.sort()
    return tuple(frozenset(edges[e] for e in m) for m in found)


def region_boundary(graph: SnakeGraph, region: Iterable[int]) -> frozenset[Edge]:
    """Edges adjacent to exactly one tile of the region (non-region tiles
    and the exterior both count as outside)."""
    tiles = set(region)
    if tiles:
        graph._check(min(tiles), max(tiles))
    counts: dict[Edge, int] = {}
    for t in tiles:
        for edge in _sides(*graph.tiles[t - 1]):
            counts[edge] = counts.get(edge, 0) + 1
    return frozenset(edge for edge, n in counts.items() if n == 1)


@lru_cache(maxsize=65536)
def filter_region_block(graph: SnakeGraph, t: int) -> tuple[int, ...]:
    """The smallest run of consecutive tiles containing tile t whose
    region boundary, minus the minimal matching, perfectly matches the
    run's vertices. Ties broken by the smaller starting tile."""
    d = graph.tile_count
    base = minimal_matching(graph)
    for size in range(1, d + 1):
        for start in range(max(1, t - size + 1), min(t, d - size + 1) + 1):
            run = tuple(range(start, start + size))
            edges = region_boundary(graph, run) - base
            if _covers_exactly(_corners(graph.tiles[i - 1] for i in run), edges):
                return run
    raise NoQualifyingRegionError(f"no qualifying run of tiles around tile {t}")


def filter_region(word: BinaryWord, s: BinaryWord) -> frozenset[int]:
    """Union of the filter-region blocks over the subword's anchors; empty
    for the empty subword. The anchors are the tiles indexed by the last
    host position of each block of the leftmost embedding (the tile just
    past the block's last sign-sequence edge)."""
    if not len(s):
        return frozenset()
    blocks = leftmost_embedding(s, word).blocks
    graph = snake_from_word(word)
    tiles: set[int] = set()
    for _, t in blocks:
        tiles.update(filter_region_block(graph, t))
    return frozenset(tiles)


def matching_for_subword(word: BinaryWord, s: BinaryWord) -> frozenset[Edge]:
    """The perfect matching attached to a subword: the symmetric difference
    of the boundary of its filter region with the minimal matching. By the
    filter identity the region is the up-closure of the anchors, the block
    ends of the leftmost embedding, so no run search is needed. The empty
    subword, whose region is empty, maps to the minimal matching itself."""
    anchors = [end for _, end in leftmost_embedding(s, word).blocks] if len(s) else []
    graph = snake_from_word(word)
    region = up_closure(poset_from_word(word), anchors)
    result = region_boundary(graph, region) ^ minimal_matching(graph)
    if not is_perfect_matching(graph, result):
        raise InvariantError("filter region gave a non-matching")
    return result
