"""snakeword benchmark: one workload, one seed, one closed-loop caller.

Usage, from the root of a snakeword checkout:

    python3 bench/run.py --workload count --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1

Ops run one after another in this process and thread, each starting when
the previous one returns. Each op is timed alone and its output is checked
after its timer stops. The run makes whole passes (see ``workloads``) until
the ops have taken ``--seconds`` of timed wall time and at least 100 ops
have succeeded, so that p90 has at least 10 samples beyond it.

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json.
``--trace 1`` spends half the time untraced and half traced, and reports the
per-layer metrics with the tracing overhead. The last line of stdout is the
result as one JSON object; the lines before it are for people.
"""

from __future__ import annotations

import argparse
import fnmatch
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import spans
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

MIN_SAMPLES = 100

#: A phase stops at this many times ``--seconds`` of timed wall time even
#: short of ``MIN_SAMPLES``, so that a program whose ops fail still finishes.
MAX_STRETCH = 3

#: Fresh interpreters that import snakeword for ``setup_s`` at the start of
#: every pass, so that the probes sample the host's load across the whole
#: run; the median counts.
SETUP_PROBES_PER_PASS = 2

IMPORT_PROBE = (
    "import time\n"
    "started = time.perf_counter()\n"
    "import snakeword\n"
    "print(time.perf_counter() - started)\n"
)


class Caches:
    """Statistics of snakeword's module-level caches, summed over passes."""

    def __init__(self, caches: dict) -> None:
        self._caches = caches
        self.hits: Counter[str] = Counter()
        self.misses: Counter[str] = Counter()
        self.size: Counter[str] = Counter()

    def start_pass(self) -> None:
        """Fold the last pass's statistics in, then empty every cache."""
        for name, cache in self._caches.items():
            info = cache.cache_info()
            self.hits[name] += info.hits
            self.misses[name] += info.misses
            self.size[name] = max(self.size[name], info.currsize)
            cache.cache_clear()

    def values(self, ops: int) -> dict[str, float]:
        values = {}
        for name in self._caches:
            lookups = self.hits[name] + self.misses[name]
            # With no lookups the ratio reads 0; `silent_layers` names it.
            values[f"snake.{name}.hit_ratio"] = self.hits[name] / lookups if lookups else 0.0
            values[f"snake.{name}.lookups"] = lookups / ops
            values[f"snake.{name}.cache_size"] = self.size[name]
        return values


class Phase:
    """What one stretch of ops did: latency of each op that succeeded, the
    count of ops that failed and why, and what the caches saw."""

    def __init__(self, caches: Caches) -> None:
        self.caches = caches
        self.latencies: list[float] = []
        self.attempted = 0
        self.errors: Counter[str] = Counter()
        self.wrong: Counter[str] = Counter()
        self.timed_s = 0.0
        self.setup_times: list[float] = []

    @property
    def failed(self) -> int:
        return sum(self.errors.values()) + sum(self.wrong.values())

    def throughput(self) -> float:
        """Ops with correct output per second of timed wall time."""
        return len(self.latencies) / self.timed_s


def run_phase(passes, seconds: float, min_samples: int, caches: dict, tracer=None) -> Phase:
    phase = Phase(Caches(caches))
    for ops in passes:
        phase.caches.start_pass()
        phase.setup_times += [import_time() for _ in range(SETUP_PROBES_PER_PASS)]
        for op in ops:
            call = op.call if tracer is None else tracer.op(op.call)
            op_id = None if tracer is None else tracer.next_span()
            started = time.perf_counter()
            try:
                result = call()
            except (Exception, SystemExit) as exc:  # a raising op is a failed op; keep going
                elapsed = time.perf_counter() - started
                phase.errors[f"{op.label}: {type(exc).__name__}"] += 1
            else:
                elapsed = time.perf_counter() - started
                try:
                    problem = op.check(result)
                except (ValueError, KeyError, TypeError, IndexError) as exc:
                    problem = f"unreadable output ({type(exc).__name__})"
                if problem:
                    phase.wrong[f"{op.label}: {problem}"] += 1
                else:
                    phase.latencies.append(elapsed)
            phase.attempted += 1
            phase.timed_s += elapsed
            if tracer is not None:
                tracer.walls[op_id] = elapsed
        enough = phase.timed_s >= seconds and len(phase.latencies) >= min_samples
        if enough or phase.timed_s >= MAX_STRETCH * seconds:
            phase.caches.start_pass()
            return phase
    raise AssertionError("workloads are endless")


def import_time() -> float:
    """Time for a fresh interpreter to import snakeword from src/."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        cwd=ROOT,
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    return float(done.stdout)


def import_snakeword():
    """Import snakeword from this checkout's src/, not from anywhere else."""
    sys.path.insert(0, str(SRC))
    import snakeword
    from snakeword import cli, snake, verify

    if Path(snakeword.__file__).resolve().parent != SRC / "snakeword":
        raise SystemExit(f"error: imported snakeword from {snakeword.__file__}, not {SRC}")
    return cli, snake, verify


def metric(name: str, value: float) -> dict:
    unit = next(m["unit"] for group in ("end_to_end", "per_layer") for m in SPEC[group] if m["name"] == name)
    return {"value": value, "unit": unit}


def end_to_end(phase: Phase) -> dict:
    samples = phase.latencies
    return {
        "throughput_ops_s": phase.throughput(),
        "latency_p50_ms": 1000 * statistics.median(samples),
        "latency_p90_ms": 1000 * statistics.quantiles(samples, n=10)[-1],
        "success_rate": len(samples) / phase.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(phase.setup_times),
    }


def silent_layers(workload: str, names: list[str], values: dict) -> list[str]:
    """Per-layer metrics that recorded nothing: printed for all, and a
    problem for each that ``workloads.MUST_FIRE`` says this workload uses,
    since a call that tracing misses would look like an unused layer."""
    silent = [name for name in names if not values.get(name)]
    if silent:
        print(f"  read 0: {' '.join(silent)}")
    problems = []
    for pattern in workloads.MUST_FIRE[workload]:
        matched = fnmatch.filter(names, pattern)
        if not matched:
            problems.append(f"{pattern} names no per-layer metric")
        problems += [f"{name} recorded nothing on {workload}" for name in matched if name in silent]
    return problems


def report_failures(phase: Phase) -> None:
    for kind, failures in (("error", phase.errors), ("wrong output", phase.wrong)):
        for what, n in failures.most_common(5):
            print(f"  {kind} x{n}: {what}", file=sys.stderr)


def run_workload(args) -> int:
    for needed in (SRC / "snakeword" / "__init__.py", ROOT / "tests" / "golden"):
        if not needed.exists():
            print(f"error: {needed} not found; run from the root of a snakeword checkout", file=sys.stderr)
            return 2
    cli, snake, verify = import_snakeword()
    # Taken before tracing rebinds these names to wrappers.
    caches = {name: getattr(snake, name) for name in spans.CACHED}
    passes = workloads.WORKLOADS[args.workload](random.Random(args.seed), cli, verify, ROOT)
    print(f"workload {args.workload}, seed {args.seed}, closed loop, 1 caller, "
          f"Python {sys.version.split()[0]}")

    if not args.trace:
        phase = run_phase(passes, args.seconds, MIN_SAMPLES, caches)
        phases = [phase]
        values = end_to_end(phase)
        names = [m["name"] for m in SPEC["end_to_end"]]
        print(f"  {phase.attempted} ops, {phase.failed} failed "
              f"(error_rate {phase.failed / phase.attempted:.4f}), "
              f"{len(phase.latencies)} latency samples, {phase.timed_s:.2f} s timed")
        cache_lines = phase.caches.values(phase.attempted)
        correct = not phase.wrong
    else:
        untraced = run_phase(passes, args.seconds / 2, 1, caches)
        tracer = spans.Tracer()
        tracer.install()
        traced = run_phase(passes, args.seconds / 2, 1, caches, tracer)
        phases = [untraced, traced]
        values = {
            **tracer.layer_values(traced.attempted),
            **traced.caches.values(traced.attempted),
            "trace.untraced_throughput_ops_s": untraced.throughput(),
            "trace.traced_throughput_ops_s": traced.throughput(),
            "trace.overhead_ratio": untraced.throughput() / traced.throughput(),
        }
        names = [m["name"] for m in SPEC["per_layer"]]
        print(f"  untraced: {untraced.attempted} ops, {untraced.failed} failed, "
              f"{untraced.throughput():.3f} ops/s")
        print(f"  traced:   {traced.attempted} ops, {traced.failed} failed, "
              f"{traced.throughput():.3f} ops/s, {tracer.next_span()} spans")
        cache_lines = {}
        problems = [tracer.problem(), *silent_layers(args.workload, names, values)]
        for problem in filter(None, problems):
            print(f"  trace broken: {problem}", file=sys.stderr)
        correct = not untraced.wrong and not traced.wrong and not any(problems)
        tracer.write(BENCH_DIR / "out" / f"spans-{args.workload}.csv")

    for name, value in cache_lines.items():
        print(f"  {name} = {value:.6g}")
    metrics = {name: metric(name, values.get(name, 0.0)) for name in names}
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    for phase in phases:
        report_failures(phase)
    result = {
        "correct": correct,
        "attempted": sum(p.attempted for p in phases),
        "failed": sum(p.failed for p in phases),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh child process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
        sys.stderr.write(done.stderr)
        if done.returncode:
            sys.stdout.write(done.stdout)
            print(f"error: workload {name} exited {done.returncode}", file=sys.stderr)
            return done.returncode
        *lines, last = done.stdout.splitlines()
        print("\n".join(lines))
        result = json.loads(last)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
