"""Time the reference points of ROADMAP.md's baseline with this checkout.

Usage, from the root of a snakeword checkout:

    python3 bench/baseline.py

Prints one JSON object: the median of three timings of ``count`` on
``(10)^8`` (d=16), of ``full_correspondence`` on a seeded random word with
d=800, and one ``verify`` sweep over every word up to length 8, each with
snakeword's caches emptied first.
"""

from __future__ import annotations

import json
import random
import statistics
import sys
import time

import run
import spans
import workloads


def timed(call, caches) -> float:
    for cache in caches:
        cache.cache_clear()
    started = time.perf_counter()
    call()
    return time.perf_counter() - started


def main() -> int:
    cli, snake, verify = run.import_snakeword()
    from snakeword import bijections, parse_word

    caches = [getattr(snake, name) for name in spans.CACHED]
    rng = random.Random(0)
    host = parse_word(workloads.uniform_word(rng, 800))
    sub = parse_word(workloads.random_subword(rng, host.bits, 0.5))
    count_op = workloads.cli_op(cli, ["count", "10" * 8], lambda out: None)
    result = {
        "python": sys.version.split()[0],
        "count_d16_s": statistics.median(timed(count_op.call, caches) for _ in range(3)),
        "full_correspondence_d800_s": statistics.median(
            timed(lambda: bijections.full_correspondence(host, sub), caches) for _ in range(3)
        ),
        "verify_sweep_le8_s": timed(
            lambda: verify.verify_words(verify.all_words_up_to(workloads.SWEEP_MAX_LENGTH)), caches
        ),
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
