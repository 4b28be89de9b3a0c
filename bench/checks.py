"""Independent checks of snakeword's outputs.

Nothing here imports snakeword. Each check recomputes what it needs from the
definitions (distinct-subsequence counting, the snake's tile layout, perfect
matchings as vertex covers), so a defect in a layer cannot certify its own
output. Every check returns ``None`` when the output is right and a one-line
description of the first problem otherwise.
"""

from __future__ import annotations

import json
import re


def subword_count(bits: str) -> int:
    """Number of distinct subwords of a binary word, the empty word included.

    Every nonempty subword starts with 1 and embeds with that 1 at position
    1, so the count is one (the empty word) plus the number of distinct
    subsequences of letters 2..d, empty included. Those come from the
    classical last-occurrence recurrence.
    """
    total = 1
    last = {"0": 0, "1": 0}
    for c in bits[1:]:
        total, last[c] = 2 * total - last[c], total
    return total + 1


def snake_tiles(bits: str) -> list[tuple[int, int]]:
    """Lower-left corners of the snake's tiles: tile 1 at the origin, and the
    tile after tile i glued north exactly when letter i+1 equals i mod 2."""
    x = y = 0
    tiles = [(0, 0)]
    for i in range(1, len(bits)):
        if int(bits[i]) == i % 2:
            y += 1
        else:
            x += 1
        tiles.append((x, y))
    return tiles


def matching_problem(bits: str, edges) -> str | None:
    """Is ``edges`` (``[x, y, "H"|"V"]`` triples) a perfect matching of the
    snake graph of ``bits``?"""
    tiles = snake_tiles(bits)
    sides = set()
    vertices = set()
    for x, y in tiles:
        sides.update({(x, y, "H"), (x + 1, y, "V"), (x, y + 1, "H"), (x, y, "V")})
        vertices.update({(x, y), (x + 1, y), (x, y + 1), (x + 1, y + 1)})
    covered = []
    for x, y, orientation in edges:
        if (x, y, orientation) not in sides:
            return f"matching edge {x},{y},{orientation} is not an edge of the snake"
        covered.append((x, y))
        covered.append((x + 1, y) if orientation == "H" else (x, y + 1))
    if len(covered) != len(set(covered)):
        return "matching edges share a vertex"
    if set(covered) != vertices:
        return "matching leaves vertices uncovered"
    return None


def run_ends(indices: list[int]) -> list[int]:
    """Last index of each maximal run of consecutive integers."""
    return [i for k, i in enumerate(indices) if k + 1 == len(indices) or indices[k + 1] != i + 1]


def count_problem(bits: str, out: str) -> str | None:
    """``count`` JSON: all four counts equal the recurrence, and agree."""
    doc = json.loads(out)
    n = subword_count(bits)
    expected = {
        "word": bits,
        "subwords": n,
        "antichains": n,
        "order_filters": n,
        "perfect_matchings": n,
        "agree": True,
    }
    return None if doc == expected else f"count {bits}: {doc} != {expected}"


def analyze_problem(bits: str, out: str) -> str | None:
    """``analyze`` report: length, the four counts, and the agreement line."""
    fields = dict(line.split(": ", 1) for line in out.splitlines())
    n = str(subword_count(bits))
    expected = {
        "length": str(len(bits)),
        "subwords": n,
        "antichains": n,
        "order filters": n,
        "perfect matchings": n,
        "counts agree": "yes",
    }
    wrong = {k: fields.get(k) for k, v in expected.items() if fields.get(k) != v}
    return f"analyze {bits}: {wrong}" if wrong else None


def record_problem(host: str, sub: str, out: str) -> str | None:
    """``map record``: the embedding spells the subword, the antichain is the
    last index of each run, and the matching is perfect."""
    doc = json.loads(out)
    if doc["word"] != host or doc["subword"] != sub:
        return "record names another word or subword"
    indices = doc["embedding_indices"]
    if any(b <= a for a, b in zip(indices, indices[1:])) or (indices and indices[0] < 1):
        return "embedding indices are not increasing host positions"
    if "".join(host[i - 1] for i in indices) != sub:
        return "embedding indices do not spell the subword"
    if doc["antichain"] != run_ends(indices):
        return "antichain is not the last index of each run"
    return matching_problem(host, doc["matching"])


_DOT_NODE = re.compile(r'^  "[^"]*" \[label="')


def trie_problem(bits: str, fmt: str, kind: str, out: str) -> str | None:
    """A trie render has one node per distinct subword."""
    n = subword_count(bits)
    if fmt == "dot":
        lines = out.splitlines()
        if lines[0] != f"digraph {kind.replace('-', '_')} {{":
            return "dot header names another graph"
        nodes = sum(1 for line in lines if _DOT_NODE.match(line) and " -> " not in line)
        arrows = sum(1 for line in lines if " -> " in line)
        found = (nodes, arrows)
        expected = (n, n - 1)
    elif fmt == "json":
        found = 0
        stack = [json.loads(out)]
        while stack:
            node = stack.pop()
            found += 1
            stack.extend(child for child in (node["left"], node["right"]) if child is not None)
        expected = n
    else:
        found, expected = len(out.splitlines()), n
    return None if found == expected else f"{kind} {fmt} of {bits}: {found} != {expected}"


def hasse_problem(bits: str, fmt: str, out: str) -> str | None:
    """A Hasse render has one covering edge per letter after the first,
    sloping up exactly at the 1s."""
    slopes = ["up" if c == "1" else "down" for c in bits[1:]]
    if fmt == "json":
        doc = json.loads(out)
        ok = doc["d"] == len(bits) and doc["slopes"] == slopes
    else:
        ok = sum(1 for line in out.splitlines() if " -- " in line) == len(slopes)
    return None if ok else f"hasse {fmt} of {bits} has the wrong covering edges"


_SVG_RECT = re.compile(r'<rect x="(\d+)" y="(\d+)" width="(\d+)" height="(\d+)"')
_SVG_BOLD = re.compile(r'<line x1="(\d+)" y1="(\d+)" x2="(\d+)" y2="(\d+)" [^>]*stroke-width="5"')


def snake_problem(host: str, fmt: str, out: str) -> str | None:
    """A snake render with ``--matching`` lays out the tiles and thickens a
    perfect matching. The SVG is checked in pixel space: the thick segments
    cover every tile corner exactly once."""
    if fmt == "json":
        doc = json.loads(out)
        if doc["tiles"] != [list(t) for t in snake_tiles(host)]:
            return "snake tiles differ from the layout"
        if doc["sign_sequence"] != [int(c) for c in host]:
            return "sign sequence does not spell the word"
        return matching_problem(host, doc["matching"])
    rects = [tuple(map(int, m)) for m in _SVG_RECT.findall(out)]
    if len(rects) != len(host):
        return f"svg has {len(rects)} tiles for {len(host)} letters"
    corners = {(x + dx, y + dy) for x, y, w, h in rects for dx in (0, w) for dy in (0, h)}
    ends = []
    for x1, y1, x2, y2 in _SVG_BOLD.findall(out):
        ends += [(int(x1), int(y1)), (int(x2), int(y2))]
    if len(ends) != len(set(ends)) or set(ends) != corners:
        return "thick svg segments are not a perfect matching"
    return None


def golden_problem(expected: bytes, out: str) -> str | None:
    return None if out.encode("utf-8") == expected else "render differs from its golden file"


def sweep_problem(report: dict, check_count: int) -> str | None:
    """A one-word ``verify`` report passes every check, and every check ran."""
    if report["words_checked"] != 1 or len(report["checks"]) != check_count:
        return "verify report did not run every check on the word"
    if not report["passed"]:
        failed = [c["counterexample"] for c in report["checks"] if not c["passed"]]
        return f"verify failed: {failed[0]}"
    return None
