"""Snake-graph geometry, sign function, matchings, and filter regions."""

import itertools
import random

import pytest

from snakeword.bijections import subword_to_antichain
from snakeword.errors import (
    CapExceededError,
    EmptyWordError,
    IndexOutOfRangeError,
    NotASubwordError,
)
from snakeword.posets import min_elements, poset_from_word, up_closure
from snakeword.snake import (
    Edge,
    SnakeGraph,
    enumerate_perfect_matchings,
    filter_region,
    filter_region_block,
    is_perfect_matching,
    matching_for_subword,
    minimal_matching,
    region_boundary,
    sign_assignment,
    sign_sequence_edges,
    snake_from_word,
)
from snakeword.words import BinaryWord, enumerate_subwords, parse_word


def all_words_up_to(n):
    for length in range(1, n + 1):
        for tail in itertools.product("01", repeat=length - 1):
            yield BinaryWord("1" + "".join(tail))


def edges(*triples):
    return frozenset(Edge(x, y, o) for x, y, o in triples)


# Fig. 5: the minimal matching of the ten-tile snake graph of 1011101100.
MINIMAL_1011101100 = edges(
    (0, 0, "H"),  # south of tile 1
    (0, 1, "H"),  # north of tile 1
    (2, 0, "H"),  # south of tile 3
    (2, 1, "V"),  # west of tile 4
    (3, 1, "H"),  # south of tile 5
    (3, 2, "H"),  # north of tile 5
    (5, 1, "H"),  # south of tile 7
    (5, 2, "V"),  # west of tile 8
    (6, 2, "V"),  # east of tile 8
    (5, 4, "H"),  # north of tile 9
    (7, 3, "V"),  # east of tile 10
)

# Fig. 7: pm(11010) keeps only the east edge of tile 10 from the minimal
# matching and swaps in the vertical edges around the filter region.
PM_11010 = edges(
    (0, 0, "V"),
    (1, 0, "V"),
    (2, 0, "V"),
    (3, 0, "V"),
    (2, 2, "H"),
    (4, 1, "V"),
    (5, 1, "V"),
    (6, 1, "V"),
    (5, 3, "V"),
    (6, 3, "V"),
    (7, 3, "V"),
)

# pm(101101100): the four minimal-matching edges south/north of tiles 1, 3,
# and 7 survive; the rest flips around the two shaded runs of tiles.
PM_101101100 = edges(
    (0, 0, "H"),
    (0, 1, "H"),
    (2, 0, "H"),
    (2, 1, "H"),
    (2, 2, "H"),
    (4, 1, "V"),
    (5, 1, "H"),
    (5, 2, "H"),
    (5, 3, "V"),
    (6, 3, "H"),
    (6, 4, "H"),
)


class TestConstruction:
    def test_fig_shape(self):
        graph = snake_from_word(parse_word("1011101100"))
        assert graph.tiles == (
            (0, 0),
            (1, 0),
            (2, 0),
            (2, 1),
            (3, 1),
            (4, 1),
            (5, 1),
            (5, 2),
            (5, 3),
            (6, 3),
        )

    def test_single_tile(self):
        graph = snake_from_word(parse_word("1"))
        assert graph.tiles == ((0, 0),)
        assert graph.moves == ()

    def test_two_tiles_north(self):
        graph = snake_from_word(parse_word("11"))
        assert graph.tiles == ((0, 0), (0, 1))

    def test_empty_rejected(self):
        with pytest.raises(EmptyWordError):
            snake_from_word(parse_word(""))

    def test_vertex_and_edge_counts(self):
        for w in all_words_up_to(8):
            graph = snake_from_word(w)
            d = graph.tile_count
            assert len(graph.vertices()) == 2 * d + 2
            assert len(graph.edges()) == 3 * d + 1
            assert len(graph.interior_edges()) == d - 1


class TestValues:
    """Edges and graphs are plain values: an edge is its field tuple, and a
    graph is its word."""

    def test_edge_is_its_field_tuple(self):
        triples = [(x, y, o) for x in (2, 0, 1) for y in (1, 0) for o in "VH"]
        for t in triples:
            assert hash(Edge(*t)) == hash(t)
        assert [tuple(e) for e in sorted(Edge(*t) for t in triples)] == sorted(triples)

    def test_edge_text(self):
        edge = Edge(3, 1, "V")
        assert edge.endpoints == ((3, 1), (3, 2))
        assert str(edge) == "V(3,1)"
        assert repr(edge) == "Edge(x=3, y=1, orientation='V')"

    def test_graph_equals_by_word(self):
        w = parse_word("1011101100")
        a, b = snake_from_word(w), snake_from_word(w)
        assert a is not b and a == b and hash(a) == hash(b)
        assert a == SnakeGraph(w, (), ()) and hash(a) == hash(SnakeGraph(w, (), ()))
        assert a != snake_from_word(parse_word("1011101101"))

    def test_cache_hit_for_equal_graph(self):
        w = parse_word("1011101100")
        minimal_matching(snake_from_word(w))
        hits = minimal_matching.cache_info().hits
        assert minimal_matching(snake_from_word(w)) == MINIMAL_1011101100
        assert minimal_matching.cache_info().hits == hits + 1


class TestSigns:
    def test_interior_signs_spell_word(self):
        w = parse_word("1011101100")
        graph = snake_from_word(w)
        signs = sign_assignment(graph)
        assert [signs[e] for e in graph.interior_edges()] == [
            w.bit(i) for i in range(2, 11)
        ]

    def test_single_tile(self):
        graph = snake_from_word(parse_word("1"))
        signs = sign_assignment(graph)
        sides = graph.tile_sides(1)
        assert signs[sides["south"]] == signs[sides["east"]] == 0
        assert signs[sides["north"]] == signs[sides["west"]] == 1

    def test_tile_constraints_and_complement(self):
        for w in all_words_up_to(8):
            graph = snake_from_word(w)
            signs = sign_assignment(graph)
            for i in range(1, graph.tile_count + 1):
                sides = graph.tile_sides(i)
                assert signs[sides["north"]] == signs[sides["west"]]
                assert signs[sides["south"]] == signs[sides["east"]]
                assert signs[sides["north"]] != signs[sides["south"]]
            # flipping every bit is the only other sign function
            flipped = {e: 1 - v for e, v in signs.items()}
            for i in range(1, graph.tile_count + 1):
                sides = graph.tile_sides(i)
                assert flipped[sides["north"]] == flipped[sides["west"]]
                assert flipped[sides["north"]] != flipped[sides["south"]]

    def test_sign_sequence_positions(self):
        w = parse_word("1011101100")
        graph = snake_from_word(w)
        signs = sign_assignment(graph)
        positions = sign_sequence_edges(graph)
        assert len(positions) == 10
        assert [signs[e] for e in positions] == [w.bit(i) for i in range(1, 11)]


class TestMinimalMatching:
    def test_fig_example(self):
        graph = snake_from_word(parse_word("1011101100"))
        assert minimal_matching(graph) == MINIMAL_1011101100

    def test_single_tile(self):
        graph = snake_from_word(parse_word("1"))
        assert minimal_matching(graph) == edges((0, 0, "H"), (0, 1, "H"))

    def test_two_tiles(self):
        graph = snake_from_word(parse_word("11"))
        assert minimal_matching(graph) == edges((0, 0, "H"), (0, 1, "V"), (1, 1, "V"))

    def test_unique_boundary_matching(self):
        for w in all_words_up_to(8):
            graph = snake_from_word(w)
            base = minimal_matching(graph)
            south = graph.tile_sides(1)["south"]
            assert is_perfect_matching(graph, base)
            assert south in base
            assert base <= graph.boundary_edges()
            others = [
                m
                for m in enumerate_perfect_matchings(graph)
                if south in m and m <= graph.boundary_edges()
            ]
            assert others == [base], w.bits


class TestEnumeration:
    @pytest.mark.parametrize(
        "word, count", [("10010111", 32), ("1", 2), ("101110", 16)]
    )
    def test_counts(self, word, count):
        graph = snake_from_word(parse_word(word))
        assert len(enumerate_perfect_matchings(graph)) == count

    def test_cap(self):
        with pytest.raises(CapExceededError):
            enumerate_perfect_matchings(snake_from_word(parse_word("10110")), cap=4)

    def test_matches_subword_counts(self):
        for w in all_words_up_to(8):
            graph = snake_from_word(w)
            assert len(enumerate_perfect_matchings(graph)) == len(enumerate_subwords(w))


class TestRegions:
    def test_whole_graph(self):
        graph = snake_from_word(parse_word("101110"))
        region = range(1, graph.tile_count + 1)
        assert region_boundary(graph, region) == graph.boundary_edges()

    def test_empty(self):
        graph = snake_from_word(parse_word("101110"))
        assert region_boundary(graph, ()) == frozenset()

    @pytest.mark.parametrize("tile", [0, -1, 11])
    def test_tile_out_of_range(self, tile):
        graph = snake_from_word(parse_word("1011101100"))
        with pytest.raises(IndexOutOfRangeError, match=f"tile {tile} outside 1..10"):
            graph.tile_sides(tile)
        for region in ([tile], [1, tile, 10]):
            with pytest.raises(IndexOutOfRangeError, match=f"tile {tile} outside 1..10"):
                region_boundary(graph, region)

    def test_vertical_run(self):
        graph = snake_from_word(parse_word("1011101100"))
        assert region_boundary(graph, {7, 8, 9}) == edges(
            (5, 1, "H"),  # south of tile 7
            (5, 1, "V"),
            (6, 1, "V"),
            (5, 2, "V"),
            (6, 2, "V"),
            (5, 3, "V"),
            (6, 3, "V"),
            (5, 4, "H"),  # north of tile 9
        )

    def test_filter_blocks(self):
        graph = snake_from_word(parse_word("1011101100"))
        assert filter_region_block(graph, 1) == (1,)
        assert filter_region_block(graph, 3) == (3, 4, 5)
        # the literal minimality condition is already met by the two-tile
        # runs here; their union still covers tiles 7, 8, 9
        assert filter_region_block(graph, 7) == (7, 8)
        assert filter_region_block(graph, 9) == (8, 9)

    def test_filter_region_example(self):
        w = parse_word("1011101100")
        assert subword_to_antichain(w, parse_word("101101100")) == (4, 10)
        assert filter_region(w, parse_word("101101100")) == frozenset({4, 5, 8, 9, 10})
        assert filter_region(w, parse_word("11010")) == frozenset({1, 3, 4, 5, 7, 8, 9})

    def test_empty_subword_region(self):
        assert filter_region(parse_word("101"), parse_word("")) == frozenset()


class TestSubwordMatching:
    def test_empty_subword_is_minimal(self):
        w = parse_word("1011101100")
        assert matching_for_subword(w, parse_word("")) == MINIMAL_1011101100

    def test_fig_examples(self):
        w = parse_word("1011101100")
        assert matching_for_subword(w, parse_word("11010")) == PM_11010
        assert matching_for_subword(w, parse_word("101101100")) == PM_101101100

    def test_rejects_non_subword(self):
        with pytest.raises(NotASubwordError):
            matching_for_subword(parse_word("10"), parse_word("11"))

    def test_bijection_exhaustive(self):
        for w in all_words_up_to(8):
            graph = snake_from_word(w)
            images = set()
            for s in enumerate_subwords(w):
                matching = matching_for_subword(w, s)
                assert is_perfect_matching(graph, matching), (w.bits, s.bits)
                assert matching not in images, (w.bits, s.bits)
                images.add(matching)
            assert images == set(enumerate_perfect_matchings(graph)), w.bits


class TestSeededMapLayer:
    """The map layer checked against the oracles and the geometric
    construction on seeded random hosts, well past the exhaustive sweeps."""

    @staticmethod
    def cases(count=12, seed=20191):
        rng = random.Random(seed)
        for k in range(count):
            d = 50 + k * 350 // (count - 1)
            word = BinaryWord("1" + "".join(rng.choice("01") for _ in range(d - 1)))
            for keep in (0.2, 0.5, 0.8):
                sub = "".join(c for c in word.bits if rng.random() < keep)
                yield word, BinaryWord(sub.lstrip("0"))

    def test_up_closure_and_min_elements(self):
        for word, s in self.cases():
            poset = poset_from_word(word)
            antichain = subword_to_antichain(word, s)
            closure = up_closure(poset, antichain)
            expected = {
                j
                for j in range(1, poset.d + 1)
                if any(poset.less_equal(t, j) for t in antichain)
            }
            assert closure == expected, (word.bits, s.bits)
            assert min_elements(poset, closure) == antichain, (word.bits, s.bits)

    def test_matching_is_the_geometric_construction(self):
        for word, s in self.cases():
            graph = snake_from_word(word)
            base = minimal_matching(graph)
            matching = matching_for_subword(word, s)
            expected = region_boundary(graph, filter_region(word, s)) ^ base
            assert matching == expected, (word.bits, s.bits)
            assert is_perfect_matching(graph, matching), (word.bits, s.bits)

    def test_minimal_matching(self):
        for word, _ in self.cases():
            graph = snake_from_word(word)
            base = minimal_matching(graph)
            assert is_perfect_matching(graph, base), word.bits
            assert base <= graph.boundary_edges(), word.bits
            assert graph.tile_sides(1)["south"] in base, word.bits
