"""Command-line front end.

Subcommands: ``analyze``, ``count``, ``render``, ``map``, ``verify``.
Exit codes: 0 success, 1 verification failure, 2 usage or input error.
The oracle cap can be set with ``--cap`` or the ``SNAKEWORD_CAP``
environment variable (the flag wins).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import render, verify
from .bijections import antichain_to_subword, full_correspondence, subword_to_antichain
from .errors import SnakewordError
from .posets import antichain_trie, enumerate_antichains, enumerate_order_filters, extrema, poset_from_word
from .snake import enumerate_perfect_matchings, filter_region, matching_for_subword, snake_from_word
from .words import DEFAULT_CAP, BinaryWord, enumerate_subwords, factor_blocks, lrs_subword_trie, parse_word

CAP_ENV_VAR = "SNAKEWORD_CAP"

KIND_FORMATS = {
    "hasse": ("dot", "json"),
    "subword-trie": ("dot", "json", "ascii"),
    "antichain-trie": ("dot", "json", "ascii"),
    "snake": ("dot", "json", "ascii", "svg"),
}


def _resolve_cap(args: argparse.Namespace) -> int:
    if args.cap is not None:
        return args.cap
    value = os.environ.get(CAP_ENV_VAR, str(DEFAULT_CAP))
    try:
        return int(value)
    except ValueError:
        raise SnakewordError(f"{CAP_ENV_VAR} is not an integer: {value!r}") from None


def _host_word(text: str) -> BinaryWord:
    word = parse_word(text)
    if not len(word):
        raise SnakewordError(f"the host word must be nonempty, got {text!r}")
    return word


def _emit(text: str, output: str | None) -> None:
    if output is None or output == "-":
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text)


def _counts(word: BinaryWord, cap: int) -> dict:
    poset = poset_from_word(word)
    counts = {
        "subwords": len(enumerate_subwords(word, cap)),
        "antichains": len(enumerate_antichains(poset, cap)),
        "order_filters": len(enumerate_order_filters(poset, cap)),
        "perfect_matchings": len(enumerate_perfect_matchings(snake_from_word(word), cap)),
    }
    counts["agree"] = len(set(counts.values())) == 1
    return counts


def cmd_analyze(args: argparse.Namespace) -> int:
    word = _host_word(args.word)
    cap = _resolve_cap(args)
    blocks = factor_blocks(word)
    marks = extrema(poset_from_word(word))
    counts = _counts(word, cap)
    lines = [
        f"word: {render.word_text(word)}",
        f"length: {len(word)}",
        "blocks: "
        + " ".join(f"{b.letter}^{b.length}" for b in blocks)
        + f" (M={len(blocks)})",
        "extrema: "
        + " ".join(str(p) for p in marks.positions)
        + f" (N={marks.interior_count})",
        f"subwords: {counts['subwords']}",
        f"antichains: {counts['antichains']}",
        f"order filters: {counts['order_filters']}",
        f"perfect matchings: {counts['perfect_matchings']}",
        f"counts agree: {'yes' if counts['agree'] else 'NO'}",
    ]
    _emit("\n".join(lines) + "\n", args.output)
    return 0 if counts["agree"] else 1


def cmd_count(args: argparse.Namespace) -> int:
    word = _host_word(args.word)
    counts = {"word": word.bits, **_counts(word, _resolve_cap(args))}
    _emit(render.to_json(counts), args.output)
    return 0 if counts["agree"] else 1


def cmd_render(args: argparse.Namespace) -> int:
    word = _host_word(args.word)
    kind = args.kind
    fmt = args.format or KIND_FORMATS[kind][0]
    if fmt not in KIND_FORMATS[kind]:
        raise SnakewordError(f"format {fmt!r} not supported for {kind!r}")
    if args.matching is not None and kind != "snake":
        raise SnakewordError("--matching only applies to snake renderings")

    if kind == "hasse":
        poset = poset_from_word(word)
        text = (
            render.hasse_dot(poset)
            if fmt == "dot"
            else render.to_json(render.hasse_json_dict(poset))
        )
    elif kind in ("subword-trie", "antichain-trie"):
        if kind == "subword-trie":
            root = lrs_subword_trie(word)
            name = "subword_trie"
        else:
            root = antichain_trie(poset_from_word(word))
            name = "antichain_trie"
        if fmt == "dot":
            text = render.trie_dot(root, name)
        elif fmt == "json":
            text = render.to_json(render.trie_json_dict(root))
        else:
            text = render.trie_ascii(root)
    else:
        graph = snake_from_word(word)
        matching = region = None
        if args.matching is not None:
            sub = parse_word(args.matching)
            matching = matching_for_subword(word, sub)
            region = filter_region(word, sub)
        if fmt == "dot":
            text = render.snake_dot(graph, matching)
        elif fmt == "json":
            text = render.to_json(render.snake_json_dict(graph, matching, region))
        elif fmt == "svg":
            text = render.snake_svg(graph, matching, region)
        else:
            text = render.snake_ascii(graph, matching, region)
    _emit(text, args.output)
    return 0


def _parse_antichain(operand: str) -> tuple[int, ...]:
    if not operand.strip():
        return ()
    try:
        return tuple(int(item) for item in operand.split(","))
    except ValueError as exc:
        raise SnakewordError(f"not a comma-separated index list: {operand!r}") from exc


def cmd_map(args: argparse.Namespace) -> int:
    word = _host_word(args.word)
    if args.direction == "f":
        antichain = _parse_antichain(args.operand)
        subword = antichain_to_subword(word, antichain)
        payload = {"word": word.bits, "antichain": list(antichain), "subword": subword.bits}
    elif args.direction == "finv":
        sub = parse_word(args.operand)
        payload = {
            "word": word.bits,
            "subword": sub.bits,
            "antichain": list(subword_to_antichain(word, sub)),
        }
    elif args.direction == "pm":
        payload = render.subword_matching_json_dict(word, parse_word(args.operand))
    else:
        record = full_correspondence(word, parse_word(args.operand))
        payload = record.to_json_dict()
    _emit(render.to_json(payload), args.output)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    cap = _resolve_cap(args)
    if args.word is not None:
        word_iter = [_host_word(args.word)]
        scope = {"word": args.word}
    else:
        bound = args.max_length
        if bound < 1:
            raise SnakewordError(f"--max-length must be at least 1, got {bound}")
        if bound > verify.SWEEP_GUARD and not args.force:
            raise SnakewordError(
                f"--max-length {bound} exceeds the guard {verify.SWEEP_GUARD}; "
                "pass --force to run anyway"
            )
        word_iter = verify.all_words_up_to(bound)
        scope = {"max_length": bound}
    report = {**scope, **verify.verify_words(word_iter, cap=cap)}
    for check in report["checks"]:
        status = "pass" if check["passed"] else f"FAIL ({check['counterexample']})"
        print(f"{check['name']}: {status}")
    print(
        f"{report['words_checked']} word(s) checked in "
        f"{report['elapsed_seconds']}s: {'pass' if report['passed'] else 'FAIL'}"
    )
    if args.json_report:
        with open(args.json_report, "w", encoding="utf-8") as handle:
            handle.write(render.to_json(report))
    return 0 if report["passed"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="snakeword",
        description=(
            "Subwords of a binary word, antichains of its zigzag poset, and "
            "perfect matchings of its snake graph, with the bijections "
            "between them."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--cap", type=int, default=None, help="oracle size cap")
        p.add_argument("--output", "-o", default=None, help="output path (default stdout)")

    p_analyze = sub.add_parser("analyze", help="summary report for one word")
    p_analyze.add_argument("word")
    add_common(p_analyze)
    p_analyze.set_defaults(func=cmd_analyze)

    p_count = sub.add_parser("count", help="the four object counts as JSON")
    p_count.add_argument("word")
    add_common(p_count)
    p_count.set_defaults(func=cmd_count)

    p_render = sub.add_parser("render", help="emit a figure document")
    p_render.add_argument("word")
    p_render.add_argument(
        "--kind",
        required=True,
        choices=sorted(KIND_FORMATS),
        help="which structure to draw",
    )
    p_render.add_argument(
        "--format", choices=("ascii", "dot", "svg", "json"), default=None
    )
    p_render.add_argument(
        "--matching",
        default=None,
        metavar="SUBWORD",
        help="thicken this subword's matching and shade its filter region",
    )
    add_common(p_render)
    p_render.set_defaults(func=cmd_render)

    p_map = sub.add_parser("map", help="apply one of the bijections")
    p_map.add_argument("word")
    p_map.add_argument("direction", choices=("f", "finv", "pm", "record"))
    p_map.add_argument(
        "operand",
        help="comma-separated antichain for f, a subword otherwise; '' for empty",
    )
    add_common(p_map)
    p_map.set_defaults(func=cmd_map)

    p_verify = sub.add_parser("verify", help="run the structural check suite")
    scope = p_verify.add_mutually_exclusive_group()
    scope.add_argument("--word", default=None, help="check a single word")
    scope.add_argument(
        "--max-length",
        type=int,
        default=6,
        help="check every word up to this length (default 6)",
    )
    p_verify.add_argument("--json-report", default=None, help="write a JSON report here")
    p_verify.add_argument(
        "--force", action="store_true", help="allow sweeps past the length guard"
    )
    p_verify.add_argument("--cap", type=int, default=None, help="oracle size cap")
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SnakewordError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
