"""Named structural checks and the exhaustive verification harness.

Each check takes a :class:`WordContext` (one word plus every structure
computed from it, cached) and returns a list of failure messages; an empty
list means the check passed. The harness sweeps the checks over a single
word or over every word up to a length bound and aggregates a report.
"""

from __future__ import annotations

import itertools
import time
from functools import cached_property
from typing import Callable, Iterable, Iterator

from . import bijections, posets, snake, words
from .trie import TrieNode, iter_nodes, same_shape
from .words import BinaryWord

#: Words longer than this need an explicit override in the CLI sweep.
SWEEP_GUARD = 12

#: Minimal-matching uniqueness is compared against the enumeration oracle
#: only up to this length; the structural checks run at every length.
UNIQUENESS_ORACLE_CAP = 10


class WordContext:
    """Every structure derived from one word, computed on first use."""

    def __init__(self, word: BinaryWord, cap: int = words.DEFAULT_CAP):
        self.word = word
        self.cap = cap

    @cached_property
    def subwords(self) -> tuple[BinaryWord, ...]:
        return words.enumerate_subwords(self.word, self.cap)

    @cached_property
    def lrs_trie(self) -> TrieNode:
        return words.lrs_subword_trie(self.word)

    @cached_property
    def naive_trie(self) -> TrieNode:
        return words.naive_subword_trie(self.word, self.cap)

    @cached_property
    def poset(self) -> posets.PiecewisePoset:
        return posets.poset_from_word(self.word)

    @cached_property
    def antichains(self) -> tuple[tuple[int, ...], ...]:
        return posets.enumerate_antichains(self.poset, self.cap)

    @cached_property
    def filters(self) -> tuple[frozenset[int], ...]:
        return posets.enumerate_order_filters(self.poset, self.cap)

    @cached_property
    def antichain_trie(self) -> TrieNode:
        return posets.antichain_trie(self.poset)

    @cached_property
    def graph(self) -> snake.SnakeGraph:
        return snake.snake_from_word(self.word)

    @cached_property
    def matchings(self) -> tuple[frozenset[snake.Edge], ...]:
        return snake.enumerate_perfect_matchings(self.graph, self.cap)


def check_trie_equivalence(ctx: WordContext) -> list[str]:
    """The copy construction and the brute-force prefix tree agree as
    ordered edge-labeled trees, and their nodes spell the subword set."""
    problems = []
    if not same_shape(ctx.lrs_trie, ctx.naive_trie, edges=True, labels=True):
        problems.append("construction and oracle tries differ")
    spelled = sorted(
        (node.label for node in iter_nodes(ctx.lrs_trie)), key=lambda b: (len(b), b)
    )
    expected = [s.bits for s in ctx.subwords]
    if spelled != expected:
        problems.append("trie paths do not enumerate the subword set")
    if len(set(spelled)) != len(spelled):
        problems.append("trie spells a subword twice")
    return problems


def check_embedding(ctx: WordContext) -> list[str]:
    """Leftmost embeddings re-extract their subword, are greedy index by
    index, and split into gap-separated consecutive runs."""
    problems = []
    bits = ctx.word.bits
    for s in ctx.subwords:
        if not len(s):
            continue
        emb = words.leftmost_embedding(s, ctx.word)
        if "".join(bits[i - 1] for i in emb.indices) != s.bits:
            problems.append(f"re-extraction failed for {s.bits}")
            continue
        prev = 0
        for k, index in enumerate(emb.indices):
            window = bits[prev : index - 1]
            if s.bits[k] in window:
                problems.append(f"embedding of {s.bits} is not greedy at step {k + 1}")
                break
            prev = index
        covered = [i for start, end in emb.blocks for i in range(start, end + 1)]
        if covered != list(emb.indices):
            problems.append(f"blocks of {s.bits} do not tile the index set")
        if any(
            b_start - a_end < 2
            for (_, a_end), (b_start, _) in zip(emb.blocks, emb.blocks[1:])
        ):
            problems.append(f"adjacent blocks of {s.bits} touch")
    return problems


def check_antichain_trie(ctx: WordContext) -> list[str]:
    """Node payloads are pairwise distinct antichains, cover the oracle
    enumeration exactly, and every edge obeys the branch-step rules."""
    problems = []
    payloads = [node.label.antichain for node in iter_nodes(ctx.antichain_trie)]
    if len(set(payloads)) != len(payloads):
        problems.append("duplicate antichain payloads")
    if sorted(payloads, key=lambda a: (len(a), a)) != list(ctx.antichains):
        problems.append("payloads differ from the oracle antichain set")
    for node in iter_nodes(ctx.antichain_trie):
        level, antichain = node.label.level, set(node.label.antichain)
        if node.left is not None:
            child = node.left.label
            expected = (antichain - {level}) | {level + 1}
            if child.level != level + 1 or set(child.antichain) != expected:
                problems.append(f"left step broken at level {level}")
        if node.right is not None:
            child = node.right.label
            if child.level <= level + 1 or set(child.antichain) != antichain | {
                child.level
            }:
                problems.append(f"right step broken at level {level}")
    return problems


def check_trie_isomorphism(ctx: WordContext) -> list[str]:
    """The antichain trie is ordered-isomorphic to the brute-force subword
    trie (the copy construction shares its shape builder with it)."""
    if not same_shape(ctx.naive_trie, ctx.antichain_trie):
        return ["subword trie and antichain trie differ as ordered trees"]
    return []


def check_comparability(ctx: WordContext) -> list[str]:
    """Slope-run comparability equals the reachability closure of the
    covering digraph."""
    d = ctx.poset.d
    below = {i: set() for i in range(1, d + 1)}  # below[i] = elements <= i
    for i in range(1, d + 1):
        below[i].add(i)
    for i in range(2, d + 1):
        lower, upper = (i - 1, i) if ctx.word.bit(i) else (i, i - 1)
        below[upper].add(lower)
    changed = True
    while changed:
        changed = False
        for i in range(1, d + 1):
            extra = set().union(*(below[j] for j in below[i])) - below[i]
            if extra:
                below[i] |= extra
                changed = True
    problems = []
    for i in range(1, d + 1):
        for j in range(1, d + 1):
            expected = i in below[j] or j in below[i]
            if ctx.poset.comparable(i, j) != expected:
                problems.append(f"comparable({i},{j}) disagrees with closure")
    return problems


def check_filter_roundtrip(ctx: WordContext) -> list[str]:
    """Up-closure and minimal-elements are mutually inverse bijections
    between antichains and order filters."""
    problems = []
    images = set()
    for antichain in ctx.antichains:
        filt = posets.up_closure(ctx.poset, antichain)
        images.add(filt)
        if posets.min_elements(ctx.poset, filt) != antichain:
            problems.append(f"round trip failed for antichain {antichain}")
    if images != set(ctx.filters):
        problems.append("up-closure images differ from the filter oracle")
    if len(ctx.filters) != len(ctx.antichains):
        problems.append("filter and antichain counts differ")
    return problems


def check_sign_function(ctx: WordContext) -> list[str]:
    """Per-tile sign constraints, interior signs spelling the word, and the
    complement being the only other sign function."""
    problems = []
    graph = ctx.graph
    signs = snake.sign_assignment(graph)
    for i in range(1, graph.tile_count + 1):
        sides = graph.tile_sides(i)
        n, w = signs[sides["north"]], signs[sides["west"]]
        s, e = signs[sides["south"]], signs[sides["east"]]
        if n != w or s != e or n == s:
            problems.append(f"tile {i} violates the sign constraints")
    first = graph.tile_sides(1)
    if signs[first["south"]] != 0 or signs[first["west"]] != 1:
        problems.append("tile 1 is not anchored at south sign 0")
    interior = [signs[e] for e in graph.interior_edges()]
    if interior != [ctx.word.bit(i) for i in range(2, graph.tile_count + 1)]:
        problems.append("interior signs do not spell the word")
    flipped = {edge: 1 - value for edge, value in signs.items()}
    for i in range(1, graph.tile_count + 1):
        sides = graph.tile_sides(i)
        if (
            flipped[sides["north"]] != flipped[sides["west"]]
            or flipped[sides["south"]] != flipped[sides["east"]]
            or flipped[sides["north"]] == flipped[sides["south"]]
        ):
            problems.append("complement is not a sign function")
            break
    return problems


def check_minimal_matching(ctx: WordContext) -> list[str]:
    """The minimal matching is perfect, boundary-only, contains the south
    edge of tile 1, and (against the oracle) is the unique such matching."""
    problems = []
    graph = ctx.graph
    base = snake.minimal_matching(graph)
    south = graph.tile_sides(1)["south"]
    if not snake.is_perfect_matching(graph, base):
        problems.append("minimal matching is not perfect")
    if south not in base:
        problems.append("minimal matching misses the first south edge")
    if not base <= graph.boundary_edges():
        problems.append("minimal matching uses an interior edge")
    if graph.tile_count <= UNIQUENESS_ORACLE_CAP:
        boundary_only = [
            m
            for m in ctx.matchings
            if south in m and m <= graph.boundary_edges()
        ]
        if boundary_only != [base]:
            problems.append("minimal matching is not the unique boundary matching")
    return problems


def check_count_agreement(ctx: WordContext) -> list[str]:
    """Subwords, antichains, order filters, and perfect matchings agree."""
    counts = {
        "subwords": len(ctx.subwords),
        "antichains": len(ctx.antichains),
        "filters": len(ctx.filters),
        "matchings": len(ctx.matchings),
    }
    if len(set(counts.values())) != 1:
        return [f"counts disagree: {counts}"]
    return []


def check_pm_bijection(ctx: WordContext) -> list[str]:
    """Subword-to-matching is injective with image the full oracle set,
    and every image is a perfect matching."""
    problems = []
    seen = {}
    for s in ctx.subwords:
        matching = snake.matching_for_subword(ctx.word, s)
        if not snake.is_perfect_matching(ctx.graph, matching):
            problems.append(f"matching for {s.bits or 'the empty word'} not perfect")
        if matching in seen:
            problems.append(f"{seen[matching]!r} and {s.bits!r} collide")
        seen[matching] = s.bits
    if set(seen) != set(ctx.matchings):
        problems.append("matching images differ from the enumeration oracle")
    return problems


def check_filter_identity(ctx: WordContext) -> list[str]:
    """The filter region of a subword equals the up-closure of its
    antichain under the tile/element identification."""
    problems = []
    for s in ctx.subwords:
        if not len(s):
            continue
        region = snake.filter_region(ctx.word, s)
        antichain = bijections.subword_to_antichain(ctx.word, s)
        if region != posets.up_closure(ctx.poset, antichain):
            problems.append(f"filter region of {s.bits} is not the up-closure")
    return problems


def check_bijection_roundtrip(ctx: WordContext) -> list[str]:
    """The antichain/subword maps are mutually inverse bijections."""
    problems = []
    images = set()
    for antichain in ctx.antichains:
        s = bijections.antichain_to_subword(ctx.word, antichain)
        images.add(s.bits)
        if bijections.subword_to_antichain(ctx.word, s) != antichain:
            problems.append(f"round trip failed for antichain {antichain}")
    if images != {s.bits for s in ctx.subwords}:
        problems.append("images differ from the subword set")
    for s in ctx.subwords:
        antichain = bijections.subword_to_antichain(ctx.word, s)
        if bijections.antichain_to_subword(ctx.word, antichain) != s:
            problems.append(f"round trip failed for subword {s.bits}")
    return problems


#: All checks, in report order.
CHECKS: dict[str, Callable[[WordContext], list[str]]] = {
    "trie-equivalence": check_trie_equivalence,
    "embedding-greedy": check_embedding,
    "antichain-trie": check_antichain_trie,
    "trie-isomorphism": check_trie_isomorphism,
    "comparability": check_comparability,
    "filter-roundtrip": check_filter_roundtrip,
    "sign-function": check_sign_function,
    "minimal-matching": check_minimal_matching,
    "count-agreement": check_count_agreement,
    "pm-bijection": check_pm_bijection,
    "filter-identity": check_filter_identity,
    "bijection-roundtrip": check_bijection_roundtrip,
}


def all_words_up_to(max_length: int) -> Iterator[BinaryWord]:
    """Every nonempty binary word of length at most ``max_length``."""
    for n in range(1, max_length + 1):
        for tail in itertools.product("01", repeat=n - 1):
            yield BinaryWord("1" + "".join(tail))


def verify_words(
    word_iter: Iterable[BinaryWord],
    check_names: Iterable[str] | None = None,
    cap: int = words.DEFAULT_CAP,
) -> dict:
    """Run the named checks over the words and aggregate a report.

    The report maps each check to pass/fail, a failure count, the first
    counterexample, and its seconds (a structure shared by checks counts
    toward the first that builds it). ``report["passed"]`` is the verdict.
    """
    names = list(check_names) if check_names is not None else list(CHECKS)
    failures = {name: 0 for name in names}
    counterexamples: dict[str, str | None] = {name: None for name in names}
    seconds = {name: 0.0 for name in names}
    started = time.perf_counter()
    words_checked = 0
    for word in word_iter:
        words_checked += 1
        ctx = WordContext(word, cap=cap)
        for name in names:
            check_started = time.perf_counter()
            problems = CHECKS[name](ctx)
            seconds[name] += time.perf_counter() - check_started
            if problems:
                failures[name] += len(problems)
                if counterexamples[name] is None:
                    counterexamples[name] = f"word {word.bits}: {problems[0]}"
    return {
        "words_checked": words_checked,
        "elapsed_seconds": round(time.perf_counter() - started, 3),
        "passed": not any(failures.values()),
        "checks": [
            {
                "name": name,
                "passed": failures[name] == 0,
                "failures": failures[name],
                "counterexample": counterexamples[name],
                "elapsed_seconds": round(seconds[name], 3),
            }
            for name in names
        ],
    }
