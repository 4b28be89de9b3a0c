"""Per-layer tracing from outside the package.

Each traced public function is wrapped, and the wrapper is bound in place of
the function in every ``snakeword`` module namespace that binds it: ``cli``,
``render`` and ``bijections`` import names directly, while ``verify`` and
intra-module calls go through module globals. Each call records a span
(name, start, end, parent span, op id) in memory; the spans are written
out at the end of the run. A span's self time is its duration minus the time
its child spans cover.

Hot leaves are only counted, without spans, to keep tracing overhead down.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter
from pathlib import Path

#: Functions that get a span, by module.
SPANNED = {
    "words": (
        "enumerate_subwords",
        "naive_subword_trie",
        "lrs_subword_trie",
        "leftmost_embedding",
        "is_subword",
    ),
    "trie": ("clone", "same_shape"),
    "posets": (
        "enumerate_antichains",
        "enumerate_order_filters",
        "up_closure",
        "min_elements",
        "is_antichain",
        "is_order_filter",
        "antichain_trie",
    ),
    "snake": (
        "snake_from_word",
        "minimal_matching",
        "enumerate_perfect_matchings",
        "filter_region_block",
        "filter_region",
        "region_boundary",
        "matching_for_subword",
        "is_perfect_matching",
    ),
    "bijections": ("antichain_to_subword", "subword_to_antichain", "full_correspondence"),
    "render": ("trie_dot", "trie_json_dict", "trie_ascii", "snake_svg", "snake_json_dict", "to_json"),
}

#: Functions that call themselves through their module global. Only the
#: outermost call gets a span: while it runs, the defining module binds the
#: original again, so the recursion adds neither spans nor stack frames.
RECURSIVE = {"trie.clone", "trie.same_shape", "render.trie_json_dict"}

#: Hot leaves that are only counted: (module, class or None, function).
COUNTED = (
    ("posets", "PiecewisePoset", "less_equal"),
    ("snake", "SnakeGraph", "tile_sides"),
    ("trie", None, "iter_nodes"),
)

#: The module-level ``lru_cache``s whose statistics are reported.
CACHED = ("minimal_matching", "enumerate_perfect_matchings", "filter_region_block")

OP_SPAN = "op"


class Tracer:
    """Spans and call counts for one traced phase of a run.

    Span fields live in parallel arrays, indexed by span id, to keep the
    memory of a run's spans small.
    """

    def __init__(self) -> None:
        self.span_names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.op_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter[str] = Counter()
        #: Wall time of each op as the runner measured it, by op id.
        self.walls: dict[int, float] = {}
        self._stack: list[int] = []

    def install(self) -> None:
        """Wrap every traced function of the imported ``snakeword``."""
        modules = [m for name, m in sys.modules.items() if name.partition(".")[0] == "snakeword"]
        package = sys.modules["snakeword"]
        for module_name, functions in SPANNED.items():
            home = getattr(package, module_name)
            for fn_name in functions:
                name = f"{module_name}.{fn_name}"
                original = getattr(home, fn_name)
                recursive = (home, fn_name) if name in RECURSIVE else None
                _rebind(modules, original, self._spanned(name, original, recursive))
        verify = package.verify
        for check, fn in verify.CHECKS.items():
            verify.CHECKS[check] = self._spanned(f"verify.{check}", fn)
        package.cli.main = self._spanned("cli.main", package.cli.main)
        for module_name, cls_name, fn_name in COUNTED:
            home = getattr(package, module_name)
            owner = getattr(home, cls_name) if cls_name else home
            original = getattr(owner, fn_name)
            wrapper = self._counted(f"{module_name}.{fn_name}", original)
            if cls_name:
                setattr(owner, fn_name, wrapper)
            else:
                _rebind(modules, original, wrapper)

    def _opener(self, name: str):
        """A function that opens a span called ``name`` and returns its id."""
        code = len(self.span_names)
        self.span_names.append(name)
        names, parents, op_ids = self.name, self.parent, self.op_id
        starts, ends, stack = self.start, self.end, self._stack

        def open_span() -> int:
            span = len(starts)
            names.append(code)
            parents.append(stack[-1] if stack else -1)
            op_ids.append(stack[0] if stack else span)
            ends.append(0.0)
            stack.append(span)
            starts.append(time.perf_counter())
            return span

        return open_span

    def _spanned(self, name: str, fn, recursive=None):
        open_span, ends, stack = self._opener(name), self.end, self._stack
        perf_counter = time.perf_counter

        def wrapper(*args, **kwargs):
            span = open_span()
            try:
                if recursive:
                    setattr(*recursive, fn)
                return fn(*args, **kwargs)
            finally:
                if recursive:
                    setattr(*recursive, wrapper)
                ends[span] = perf_counter()
                stack.pop()

        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def op(self, call):
        """``call`` under a root span; the root span's id is the op id."""
        return self._spanned(OP_SPAN, call)

    def next_span(self) -> int:
        return len(self.start)

    def self_times(self) -> list[float]:
        covered = [0.0] * len(self.start)
        for span, parent in enumerate(self.parent):
            if parent >= 0:
                covered[parent] += self.end[span] - self.start[span]
        return [end - start - c for start, end, c in zip(self.start, self.end, covered)]

    def problem(self) -> str | None:
        """The first way the spans break their invariants, if any: every
        span closed, no earlier than it opened; every child span inside its
        parent's interval; and each op's self times summing to no more than
        the op's wall time, as the runner measured it around the root span."""
        starts, ends = self.start, self.end
        for span, (start, end, parent) in enumerate(zip(starts, ends, self.parent)):
            if end < start:
                return f"span {span} ({self.span_names[self.name[span]]}) never closed"
            if parent >= 0 and not starts[parent] <= start <= end <= ends[parent]:
                return f"span {span} lies outside its parent span {parent}"
        total: Counter[int] = Counter()
        for op, s in zip(self.op_id, self.self_times()):
            total[op] += s
        for op, wall in self.walls.items():
            if total[op] > wall:
                return f"op {op}: self times sum to {total[op]} s, over its {wall} s wall time"
        return None

    def layer_values(self, ops: int) -> dict[str, float]:
        """Calls and self seconds per op, by span name, plus counted calls."""
        calls: Counter[str] = Counter()
        seconds: Counter[str] = Counter()
        for code, s in zip(self.name, self.self_times()):
            calls[self.span_names[code]] += 1
            seconds[self.span_names[code]] += s
        values = {}
        for name in calls:
            values[f"{name}.calls"] = calls[name] / ops
            values[f"{name}.self_s"] = seconds[name] / ops
        for name, n in self.counts.items():
            values[f"{name}.calls"] = n / ops
        return values

    def write(self, path: Path) -> None:
        """Spans as CSV, one per line, times in nanoseconds from the first."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.start[0] if self.start else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("span,name,start_ns,end_ns,parent,op\n")
            for span, (code, start, end, parent, op) in enumerate(
                zip(self.name, self.start, self.end, self.parent, self.op_id)
            ):
                handle.write(
                    f"{span},{self.span_names[code]},{round((start - t0) * 1e9)},"
                    f"{round((end - t0) * 1e9)},{parent},{op}\n"
                )


def _rebind(modules, original, wrapper) -> None:
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)
