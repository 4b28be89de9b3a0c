"""The benchmark's workloads: seeded inputs, the calls that time them, and
the check that judges each output.

A workload is an endless iterator of passes; a pass is a list of ops, and
every pass of a workload has the same mix of op kinds and input sizes, so a
run of whole passes measures the same mix whatever the seed. The runner
empties snakeword's process-wide caches at the start of every pass, so every
pass starts from the state a fresh process has. ``count`` and
``map`` draw new words for every pass: no word repeats within a pass, and
a word of an earlier pass comes back only once its pool of words is used up
(see ``fresh``). ``render`` draws its random inputs anew for every pass too,
and ``sweep`` repeats one fixed pass.

Every op but ``sweep``'s goes through ``snakeword.cli.main(argv)``
in-process with stdout captured: the timed work is what a CLI user waits
for, minus interpreter start-up.
"""

from __future__ import annotations

import io
import itertools
import random
from collections import defaultdict
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, Iterator

import checks

#: ``sweep`` verifies every word up to this length: 255 words a pass.
SWEEP_MAX_LENGTH = 8

#: ``count`` word lengths, cycled. The four 2^d oracles dominate each op.
COUNT_LENGTHS = (11, 12, 13, 14, 15)

#: Draws ``fresh`` makes before it takes a pool to be used up.
FRESH_TRIES = 1000

#: ``map`` host lengths: one of seven 100-letter bands, cycled.
MAP_BANDS = 7

#: Probabilities of keeping a host letter in the subword, cycled, so that
#: antichain sizes vary from op to op.
KEEP_PROBABILITIES = (0.1, 0.3, 0.5, 0.7, 0.9)

TRIE_KINDS = ("subword-trie", "antichain-trie")

#: Deep-trie slice: ``1^k`` and ``1^k0``. The recursive traversals raise
#: ``RecursionError`` once the trie is about 1,000 levels deep, so these k
#: sit well clear of that depth on both sides and the share of failing ops
#: is the same in every run. Only dot and ascii are rendered: indented JSON
#: grows with the square of the depth.
DEEP_RUNS = (200, 500, 800, 1200, 1600, 2000)

#: Golden documents that ``render`` reproduces, with the arguments that do.
GOLDEN_RENDERS = {
    "hasse_101110.dot": ["101110", "--kind", "hasse", "--format", "dot"],
    "snake_1011101100.json": ["1011101100", "--kind", "snake", "--format", "json"],
    **{
        f"{kind.replace('-', '_')}_{word}.{fmt}": [word, "--kind", kind, "--format", fmt]
        for word in ("101110", "10010111")
        for kind in TRIE_KINDS
        for fmt in ("dot", "json")
    },
}


class CliExit(Exception):
    """The CLI returned a non-zero exit code."""


@dataclass(frozen=True)
class Op:
    label: str
    call: Callable[[], object]
    check: Callable[[object], str | None]


def cli_op(cli, argv: list[str], check: Callable[[str], str | None]) -> Op:
    """An op that runs ``cli.main(argv)`` and checks its stdout."""

    def call() -> str:
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        if code:
            raise CliExit(f"exit code {code}")
        return out.getvalue()

    label = " ".join(a if len(a) <= 24 else f"<{len(a)} letters>" for a in argv)
    return Op(label, call, check)


def random_bits(rng: random.Random, n: int) -> str:
    return "".join(rng.choices("01", k=n))


def alternating_word(rng: random.Random, length: int) -> str:
    """A ``(10)^k`` prefix, then random letters: dense extrema, most subwords."""
    k = rng.randint(2, length // 2)
    return "10" * k + random_bits(rng, length - 2 * k)


def runs_word(rng: random.Random, length: int) -> str:
    """``1^a 0^b 1^c``: three runs, few subwords."""
    a, b = sorted(rng.sample(range(1, length), 2))
    return "1" * a + "0" * (b - a) + "1" * (length - b)


def uniform_word(rng: random.Random, length: int) -> str:
    return "1" + random_bits(rng, length - 1)


def fresh(make: Callable[[], str], used: set[str], this_pass: set[str]) -> str:
    """A word from ``make`` that no op of this pass has used and that
    ``used``, the words earlier passes drew from the same pool, does not hold.

    Some pools are small: ``1^a0^b1^c`` of length 11 has 45 words. When
    ``FRESH_TRIES`` draws give no new word, the pool is taken to be used up
    and ``used`` is emptied, so its words come back; the caches are emptied
    every pass anyway. Raises rather than loop forever.
    """
    for _ in range(2):
        for _ in range(FRESH_TRIES):
            bits = make()
            if bits not in used and bits not in this_pass:
                used.add(bits)
                this_pass.add(bits)
                return bits
        used.clear()
    raise RuntimeError(f"no word unused in this pass in {FRESH_TRIES} draws")


def random_subword(rng: random.Random, host: str, keep: float) -> str:
    """Keep each letter with probability ``keep``; drop leading zeros."""
    return "".join(c for c in host if rng.random() < keep).lstrip("0")


def sweep(rng: random.Random, cli, verify, root: Path) -> Iterator[list[Op]]:
    """``verify.verify_words([w])`` over every check, for each word up to
    ``SWEEP_MAX_LENGTH`` in order. The seed does not enter: the sweep is the
    same in every run."""
    n_checks = len(verify.CHECKS)
    ops = [
        Op(
            f"verify {w.bits}",
            partial(verify.verify_words, [w]),
            partial(checks.sweep_problem, check_count=n_checks),
        )
        for w in verify.all_words_up_to(SWEEP_MAX_LENGTH)
    ]
    return itertools.repeat(ops)


def count(rng: random.Random, cli, verify, root: Path) -> Iterator[list[Op]]:
    """``count`` and ``analyze`` alternating over distinct words of length
    11-15 from three families with different extrema density. A pass is one
    word for every (length, family, command), so each pass has the same mix."""
    families = (alternating_word, runs_word, uniform_word)
    used: dict[tuple, set[str]] = defaultdict(set)
    size = len(COUNT_LENGTHS) * len(families) * 2
    while True:
        ops = []
        this_pass: set[str] = set()
        for i in range(size):
            length = COUNT_LENGTHS[i % len(COUNT_LENGTHS)]
            family = families[i % len(families)]
            bits = fresh(partial(family, rng, length), used[family, length], this_pass)
            if i % 2 == 0:
                ops.append(cli_op(cli, ["count", bits], partial(checks.count_problem, bits)))
            else:
                ops.append(cli_op(cli, ["analyze", bits], partial(checks.analyze_problem, bits)))
        yield ops


def map_records(rng: random.Random, cli, verify, root: Path) -> Iterator[list[Op]]:
    """``map W record S`` over distinct random hosts of length 100-800, each
    with one random subword. A pass is one host for every (length band,
    keep probability), so each pass has the same mix."""
    used: set[str] = set()
    while True:
        ops = []
        this_pass: set[str] = set()
        for i in range(MAP_BANDS * len(KEEP_PROBABILITIES)):
            d = 100 * (1 + i % MAP_BANDS) + rng.randint(0, 100)
            host = fresh(partial(uniform_word, rng, d), used, this_pass)
            sub = random_subword(rng, host, KEEP_PROBABILITIES[i % len(KEEP_PROBABILITIES)])
            argv = ["map", host, "record", sub]
            ops.append(cli_op(cli, argv, partial(checks.record_problem, host, sub)))
        yield ops


def render(rng: random.Random, cli, verify, root: Path) -> Iterator[list[Op]]:
    """``render`` across kinds and formats: the golden worked examples,
    tries of words of length 10-16, Hasse diagrams, snakes of length
    100-400 with a matching, and the deep-trie slice. The goldens and the
    deep slice are the same in every pass; the rest is drawn anew for each
    pass, so that a run averages over many random inputs."""
    golden = root / "tests" / "golden"
    goldens = [
        cli_op(
            cli,
            ["render", *argv],
            partial(checks.golden_problem, (golden / name).read_bytes()),
        )
        for name, argv in GOLDEN_RENDERS.items()
    ]
    deep = []
    for j, k in enumerate(DEEP_RUNS):
        for bits in ("1" * k, "1" * k + "0"):
            for kind in TRIE_KINDS:
                fmt = ("dot", "ascii")[j % 2]
                argv = ["render", bits, "--kind", kind, "--format", fmt]
                deep.append(cli_op(cli, argv, partial(checks.trie_problem, bits, fmt, kind)))
    while True:
        ops = list(goldens)
        for i in range(14):
            family = (alternating_word, uniform_word)[i % 2]
            bits = family(rng, 10 + i % 7)
            kind = TRIE_KINDS[i // 2 % 2]
            fmt = ("dot", "json", "ascii")[i % 3]
            argv = ["render", bits, "--kind", kind, "--format", fmt]
            ops.append(cli_op(cli, argv, partial(checks.trie_problem, bits, fmt, kind)))
        for i in range(4):
            bits = uniform_word(rng, rng.randint(20, 60))
            fmt = ("dot", "json")[i % 2]
            argv = ["render", bits, "--kind", "hasse", "--format", fmt]
            ops.append(cli_op(cli, argv, partial(checks.hasse_problem, bits, fmt)))
        for i in range(8):
            host = uniform_word(rng, 100 + 40 * i + rng.randint(0, 20))
            sub = random_subword(rng, host, KEEP_PROBABILITIES[i % len(KEEP_PROBABILITIES)])
            fmt = ("svg", "json")[i % 2]
            argv = ["render", host, "--kind", "snake", "--format", fmt, "--matching", sub]
            ops.append(cli_op(cli, argv, partial(checks.snake_problem, host, fmt)))
        yield ops + deep


#: Per-layer metrics, as ``fnmatch`` patterns, that each workload's traced
#: run must see fire; a traced run where one of them records nothing is not
#: correct. The layers each workload is chosen to measure are here.
MUST_FIRE = {
    "sweep": (
        "verify.*.self_s",
        "snake.*.lookups",
        "words.enumerate_subwords.calls",
        "posets.up_closure.calls",
        "posets.is_antichain.calls",
        "posets.less_equal.calls",
        "snake.filter_region_block.calls",
        "snake.region_boundary.calls",
        "snake.matching_for_subword.calls",
    ),
    "count": (
        "cli.main.self_s",
        "words.enumerate_subwords.calls",
        "posets.enumerate_antichains.calls",
        "posets.enumerate_order_filters.calls",
        "snake.enumerate_perfect_matchings.calls",
        "snake.enumerate_perfect_matchings.lookups",
    ),
    "map": (
        "cli.main.self_s",
        "bijections.full_correspondence.calls",
        "posets.up_closure.calls",
        "posets.is_antichain.calls",
        "posets.less_equal.calls",
        "snake.matching_for_subword.calls",
        "snake.minimal_matching.lookups",
        "snake.filter_region_block.lookups",
    ),
    "render": (
        "cli.main.self_s",
        "render.*.calls",
        "words.lrs_subword_trie.calls",
        "posets.antichain_trie.calls",
        "trie.clone.calls",
    ),
}

WORKLOADS = {
    "sweep": sweep,
    "count": count,
    "map": map_records,
    "render": render,
}
