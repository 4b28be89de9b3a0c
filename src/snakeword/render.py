"""Deterministic DOT / JSON / ASCII / SVG emitters.

Every emitter is a pure function of its input, iterates containers in
sorted or construction order, and produces byte-identical output across
runs; node identifiers are derived from root-to-node paths so graph files
are stable too.
"""

from __future__ import annotations

import json

from .bijections import subword_to_antichain
from .posets import AntichainLabel, PiecewisePoset, extrema
from .snake import (
    Edge,
    SnakeGraph,
    filter_region,
    filter_region_block,
    matching_for_subword,
    sign_assignment,
    snake_from_word,
)
from .trie import TrieNode
from .words import BinaryWord

SVG_SCALE = 48
SVG_PAD = 24


def word_text(word: BinaryWord) -> str:
    return word.bits or "ε"


def to_json(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def edge_list_json(edges) -> list[list]:
    return [[e.x, e.y, e.orientation] for e in sorted(edges)]


# ---------------------------------------------------------------- Hasse

def hasse_heights(poset: PiecewisePoset) -> tuple[int, ...]:
    """Zigzag heights of elements 1..d, starting at 0."""
    heights = [0]
    for i in range(2, poset.d + 1):
        heights.append(heights[-1] + (1 if poset.word.bit(i) else -1))
    return tuple(heights)


def hasse_json_dict(poset: PiecewisePoset) -> dict:
    return {
        "d": poset.d,
        "slopes": [
            "up" if poset.word.bit(i) else "down" for i in range(2, poset.d + 1)
        ],
        "extrema": list(extrema(poset).positions),
    }


def hasse_dot(poset: PiecewisePoset) -> str:
    heights = hasse_heights(poset)
    lines = [
        "graph hasse {",
        f'  graph [label="{poset.word.bits}"];',
        "  node [shape=circle];",
    ]
    for i in range(1, poset.d + 1):
        lines.append(f'  "{i}" [pos="{i - 1},{heights[i - 1]}!"];')
    for i in range(2, poset.d + 1):
        lines.append(f'  "{i - 1}" -- "{i}" [label="{poset.word.bit(i)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------- tries

def _label_text(label) -> str:
    if isinstance(label, AntichainLabel):
        return str(label)
    return label if label else "ε"


def _label_json(label):
    if isinstance(label, AntichainLabel):
        return {"level": label.level, "antichain": list(label.antichain)}
    return label


def trie_json_dict(root: TrieNode | None) -> dict | None:
    if root is None:
        return None
    return {
        "label": _label_json(root.label),
        "edge": root.edge,
        "left": trie_json_dict(root.left),
        "right": trie_json_dict(root.right),
    }


def _node_id(node: TrieNode, parent_id: str) -> str:
    if isinstance(node.label, AntichainLabel):
        level = node.label.level
        return f"{parent_id}.{level}" if parent_id else str(level)
    # subword tries: the spelled subword is already a unique path string
    return node.label if node.label else "ε"


def trie_dot(root: TrieNode, name: str) -> str:
    lines = [f"digraph {name} {{", "  node [shape=box];"]

    def walk(node: TrieNode, parent_id: str) -> None:
        node_id = _node_id(node, parent_id)
        lines.append(f'  "{node_id}" [label="{_label_text(node.label)}"];')
        for child in (node.left, node.right):
            if child is None:
                continue
            child_id = _node_id(child, node_id)
            attrs = f' [label="{child.edge}"]' if child.edge is not None else ""
            lines.append(f'  "{node_id}" -> "{child_id}"{attrs};')
        for child in (node.left, node.right):
            if child is not None:
                walk(child, node_id)

    walk(root, "")
    lines.append("}")
    return "\n".join(lines) + "\n"


def trie_ascii(root: TrieNode) -> str:
    """One node per line; children indented below their parent, left first."""
    lines = [_label_text(root.label)]

    def walk(node: TrieNode, prefix: str) -> None:
        children = [c for c in (node.left, node.right) if c is not None]
        for k, child in enumerate(children):
            last = k == len(children) - 1
            lines.append(prefix + ("└── " if last else "├── ") + _label_text(child.label))
            walk(child, prefix + ("    " if last else "│   "))

    walk(root, "")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------- snake

def snake_json_dict(
    graph: SnakeGraph,
    matching: frozenset[Edge] | None = None,
    region: frozenset[int] | None = None,
) -> dict:
    signs = sign_assignment(graph)
    payload = {
        "word": graph.word.bits,
        "tiles": [list(t) for t in graph.tiles],
        "moves": list(graph.moves),
        "sign_sequence": [graph.word.bit(i) for i in range(1, graph.tile_count + 1)],
        "signs": [[e.x, e.y, e.orientation, signs[e]] for e in sorted(signs)],
    }
    if matching is not None:
        payload["matching"] = edge_list_json(matching)
    if region is not None:
        payload["fil_tiles"] = sorted(region)
    return payload


def subword_matching_json_dict(word: BinaryWord, s: BinaryWord) -> dict:
    """The matching attached to a subword, with its anchors and filter-region
    blocks; the payload behind the CLI's pm mapping."""
    graph = snake_from_word(word)
    anchors = subword_to_antichain(word, s)
    return {
        "word": word.bits,
        "subword": s.bits,
        "anchors": list(anchors),
        "fil_blocks": [list(filter_region_block(graph, t)) for t in anchors],
        "fil_tiles": sorted(filter_region(word, s)),
        "matching": edge_list_json(matching_for_subword(word, s)),
    }


def snake_dot(graph: SnakeGraph, matching: frozenset[Edge] | None = None) -> str:
    matched = matching or frozenset()
    lines = [
        "graph snake {",
        f'  graph [label="{graph.word.bits}"];',
        "  node [shape=point];",
    ]
    for x, y in sorted(graph.vertices()):
        lines.append(f'  "{x},{y}" [pos="{x},{y}!"];')
    for edge in graph.edges():
        (ax, ay), (bx, by) = edge.endpoints
        attrs = " [penwidth=3]" if edge in matched else ""
        lines.append(f'  "{ax},{ay}" -- "{bx},{by}"{attrs};')
    lines.append("}")
    return "\n".join(lines) + "\n"


def snake_ascii(
    graph: SnakeGraph,
    matching: frozenset[Edge] | None = None,
    region: frozenset[int] | None = None,
) -> str:
    """Character grid: 4x2 cells, '=' / '#' for matched edges, '.' fill for
    region tiles, tile indices in the cell centers."""
    matched = matching or frozenset()
    shaded = region or frozenset()
    xmax = max(x for x, _ in graph.tiles)
    ymax = max(y for _, y in graph.tiles)
    height = 2 * (ymax + 1) + 1
    width = 4 * (xmax + 1) + 1
    grid = [[" "] * width for _ in range(height)]

    def row(y: int) -> int:
        return height - 1 - 2 * y

    for index, (x, y) in enumerate(graph.tiles, start=1):
        sides = graph.tile_sides(index)
        if index in shaded:
            for c in range(4 * x + 1, 4 * x + 4):
                grid[row(y) - 1][c] = "."
        for corner_x, corner_y in [(x, y), (x + 1, y), (x, y + 1), (x + 1, y + 1)]:
            grid[row(corner_y)][4 * corner_x] = "+"
        for name in ("south", "north"):
            edge = sides[name]
            mark = "=" if edge in matched else "-"
            for c in range(4 * edge.x + 1, 4 * edge.x + 4):
                grid[row(edge.y)][c] = mark
        for name in ("west", "east"):
            edge = sides[name]
            mark = "#" if edge in matched else "|"
            grid[row(edge.y) - 1][4 * edge.x] = mark
        text = str(index)
        start = 4 * x + 2 - (len(text) - 1) // 2
        for k, ch in enumerate(text):
            grid[row(y) - 1][start + k] = ch

    return "\n".join("".join(line).rstrip() for line in grid) + "\n"


def snake_svg(
    graph: SnakeGraph,
    matching: frozenset[Edge] | None = None,
    region: frozenset[int] | None = None,
) -> str:
    matched = matching or frozenset()
    shaded = region or frozenset()
    xmax = max(x for x, _ in graph.tiles) + 1
    ymax = max(y for _, y in graph.tiles) + 1
    width = xmax * SVG_SCALE + 2 * SVG_PAD
    height = ymax * SVG_SCALE + 2 * SVG_PAD

    def px(x: int) -> int:
        return SVG_PAD + x * SVG_SCALE

    def py(y: int) -> int:
        return SVG_PAD + (ymax - y) * SVG_SCALE

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">'
    ]
    for index, (x, y) in enumerate(graph.tiles, start=1):
        fill = "#cccccc" if index in shaded else "#ffffff"
        parts.append(
            f'<rect x="{px(x)}" y="{py(y + 1)}" width="{SVG_SCALE}" '
            f'height="{SVG_SCALE}" fill="{fill}"/>'
        )
    for edge in graph.edges():
        (ax, ay), (bx, by) = edge.endpoints
        stroke = 5 if edge in matched else 1
        parts.append(
            f'<line x1="{px(ax)}" y1="{py(ay)}" x2="{px(bx)}" y2="{py(by)}" '
            f'stroke="#000000" stroke-width="{stroke}"/>'
        )
    for index, (x, y) in enumerate(graph.tiles, start=1):
        parts.append(
            f'<text x="{px(x) + SVG_SCALE // 2}" y="{py(y) - SVG_SCALE // 2 + 5}" '
            f'font-size="14" text-anchor="middle">{index}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
