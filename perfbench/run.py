#!/usr/bin/env python3
"""Benchmark of the ellgroups deciders on four seeded workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
One process, no threads. The last line of standard output is a JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. See perfbench/README.md for what each metric means and
how times are corrected for the speed of the host.
"""

import sys

# Every set-up compiles the package from source, as every `ellgroups` call
# does where bytecode is not written: nothing is written, and bytecode
# left in the checkout by other tools is not read.
sys.dont_write_bytecode = True

import argparse
import gc
import importlib
import json
import os
import random
import resource
import statistics
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.pycache_prefix = os.path.join(OUT, "no-bytecode")

import spans
from workloads import WORKLOADS

MODULES = ("words", "terms", "rightorder", "derivation", "groups", "biorder", "cli")
SETUPS = 9  # fresh set-ups per run; setup_s is their median
WARMUP = 3  # operations that end each set-up, on inputs of WARMUP_SEED
WARMUP_SEED = 0  # the same warm-up for every seed, so that it costs the same
CHUNK_S = 0.025  # operation time between two probes of the host's speed
CHECK_SEED_SALT = 0x5EED


def reference_loop() -> int:
    """Fixed interpreter work whose time tracks the host's current speed:
    small tuples, frozensets, hashing and dictionary lookups, like the
    program's word and set handling."""
    seen = set()
    table: dict = {}
    for i in range(400):
        w = tuple((i * 7 + j) % 5 - 2 for j in range(i % 6))
        key = frozenset((w, w[::-1]))
        seen.add(key)
        table[w] = table.get(w[:-1], 0) + len(key)
    return len(seen) + sum(table.values())


PROBE_DOC = {f"k{i}": [i, str(i), {"x": [1, 2, 3], "y": None}] for i in range(60)}


def cli_reference_loop() -> int:
    """reference_loop plus the work ``cli.main`` does around the deciders:
    building and using an argparse parser, and a JSON round trip."""
    parser = argparse.ArgumentParser(prog="probe")
    commands = parser.add_subparsers(dest="command")
    for name in ("a", "b", "c"):
        command = commands.add_parser(name)
        for j in range(5):
            command.add_argument(f"--option{j}", default=str(j), help="an option")
        command.add_argument("statement")
    parser.parse_args(["b", "--option2", "7", "e <= x"])
    json.loads(json.dumps(PROBE_DOC, sort_keys=True))
    return reference_loop()


# Each workload's reference loop (by the workload's ``reference``), with
# its time on an uncontended core of the 2-core x86 host the reference
# figures in README.md come from; corrected times are in that host's
# seconds. On cli-mixed, whose time is mostly argparse and JSON, the cli
# loop cut the spread of verdict_p50_ms between runs from about 8% to
# about 3%; on xval-r3 and abelian-z2 it widened their spreads.
REFERENCES = {"plain": (reference_loop, 0.0006), "cli": (cli_reference_loop, 0.0015)}


def probe(loop) -> float:
    """Seconds a reference loop takes now; the better of two tries, with
    the collector off so that the program's garbage does not count."""
    gc.disable()
    try:
        best = float("inf")
        for _ in range(2):
            t0 = time.perf_counter()
            loop()
            best = min(best, time.perf_counter() - t0)
        return best
    finally:
        gc.enable()


def load_program() -> dict:
    """Import ellgroups afresh from the checkout's source tree."""
    for name in [m for m in sys.modules if m == "ellgroups" or m.startswith("ellgroups.")]:
        del sys.modules[name]
    mods = {name: importlib.import_module("ellgroups." + name) for name in MODULES}
    if not os.path.abspath(mods["cli"].__file__).startswith(SRC + os.sep):
        raise ImportError(f"ellgroups was not imported from {SRC}")
    return mods


def set_up(workload, seed: int):
    """Import, make the seeded inputs and warm up, each step timed between
    two probes of the host's speed. Returns the corrected seconds of the
    three steps, the program's modules and the inputs."""
    loop, reference_s = REFERENCES[workload.reference]
    probes, steps = [probe(loop)], []

    def step(fn):
        start = time.perf_counter()
        out = fn()
        steps.append(time.perf_counter() - start)
        probes.append(probe(loop))
        return out

    mods = step(load_program)
    inputs = step(lambda: workload.inputs(mods, random.Random(seed), workload.pool_size))
    op = workload.operation(mods)
    step(lambda: [op(x) for x in workload.inputs(mods, random.Random(WARMUP_SEED), WARMUP)])
    corrected = [t * 2 * reference_s / (a + b) for t, a, b in zip(steps, probes, probes[1:])]
    return corrected, mods, inputs


def measure(op, check, inputs, seconds: float, reference, count=None, tracer=None):
    """Decide inputs in order, each output checked right after its timed
    span, until the operations have taken ``seconds`` of wall time (or
    ``count`` of them have run); a slower host makes fewer verdicts.

    Operations run in chunks with a probe of the host's speed between
    chunks; each operation's time is scaled by the ``reference`` loop's
    reference time over the mean of the probes around its chunk. Returns the corrected seconds of each
    operation, how many raised, and how many outputs failed their checks.
    """
    loop, reference_s = reference
    times, failed, wrong = [], 0, 0
    busy = 0.0
    gc.collect()
    before = probe(loop)
    while (busy < seconds) if count is None else (len(times) < count):
        chunk: list[float] = []
        while sum(chunk) < CHUNK_S and (count is None or len(times) + len(chunk) < count):
            x = inputs[(len(times) + len(chunk)) % len(inputs)]
            t0 = time.perf_counter()
            try:
                out = op(x)
            except Exception as exc:  # counted as failed, reported once
                t1 = time.perf_counter()
                failed += 1
                if failed == 1:
                    print(f"operation failed: {exc!r}", file=sys.stderr)
            else:
                t1 = time.perf_counter()
                problems = check(x, out)
                if problems:
                    wrong += 1
                    if wrong <= 5:
                        print(f"check failed on operation {len(times) + len(chunk)}:"
                              f" {problems}", file=sys.stderr)
            chunk.append(t1 - t0)
        after = probe(loop)
        scale = 2 * reference_s / (before + after)
        if tracer is not None:
            tracer.mark(scale)
        times += [t * scale for t in chunk]
        busy += sum(chunk)
        before = after
    return times, failed, wrong


def percentile(sorted_values, p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    index = max(0, min(len(sorted_values) - 1, round(p / 100 * len(sorted_values)) - 1))
    return sorted_values[index]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "ellgroups")):
        print(f"error: no ellgroups sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    workload = WORKLOADS[args.workload]
    setups = []
    for _ in range(SETUPS):
        steps, mods, inputs = set_up(workload, args.seed)
        setups.append(steps)
    op = workload.operation(mods)
    reference = REFERENCES[workload.reference]
    rng = random.Random(args.seed ^ CHECK_SEED_SALT)

    def check(x, out):
        return workload.check(mods, x, out, rng)

    if args.trace:
        # a third of the time with spans; the same operations untraced, and
        # again with only the concat_reduce counter
        tracer = spans.Tracer()

        def paused_check(x, out):
            tracer.paused = True
            try:
                return check(x, out)
            finally:
                tracer.paused = False

        def traced_pass(install, **kwargs):
            install(mods)
            try:
                return measure(op, paused_check, inputs, reference=reference, **kwargs)
            finally:
                tracer.uninstall()

        times, failed, wrong = traced_pass(
            tracer.install, seconds=args.seconds / 3, tracer=tracer)
        plain, f, w = measure(op, check, inputs, 0, reference, count=len(times))
        counted, f2, w2 = traced_pass(tracer.install_counter, seconds=0, count=len(times))
        failed, wrong = failed + f + f2, wrong + w + w2
        attempted = len(times) + len(plain) + len(counted)
        metrics = tracer.metrics(len(times))
        for i, name in enumerate(("setup.import_s", "setup.inputs_s", "setup.warmup_s")):
            metrics[name] = {"value": statistics.median(s[i] for s in setups), "unit": "s"}
        metrics["trace.overhead_s"] = {
            "value": sum(times) + sum(counted) - 2 * sum(plain), "unit": "s"}
        os.makedirs(OUT, exist_ok=True)
        tracer.write(os.path.join(OUT, f"spans-{workload.name}-{args.seed}.tsv"))
    else:
        times, failed, wrong = measure(op, check, inputs, args.seconds, reference)
        attempted = len(times)
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        ordered = sorted(times)
        metrics = {
            "setup_s": {"value": statistics.median(sum(s) for s in setups), "unit": "s"},
            "verdicts_per_s": {"value": len(times) / sum(times), "unit": "1/s"},
            "verdict_p50_ms": {"value": statistics.median(ordered) * 1e3, "unit": "ms"},
            "verdict_tail_ms": {
                "value": percentile(ordered, workload.tail_percentile) * 1e3,
                "unit": "ms",
            },
            "peak_rss_mib": {"value": peak_kib / 1024, "unit": "MiB"},
        }
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
