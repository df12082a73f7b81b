"""Benchmark of the subparticle pipeline, stdlib only.

    python3 bench/run.py --workload short_words --seed 1 --seconds 30 --trace 0

Run from the root of a checkout: the package is imported from ``src/``
there and from nowhere else.  ``--trace 0`` sets up the workload several
times (each set-up imports the package afresh, makes the inputs from the
seed and computes the reference outputs), then runs it untraced for
``--seconds`` and reports the end-to-end metrics.  Times are in reference
seconds, scaled by interleaved calibration (see ``harness.py``), and
throughputs are medians over one-second windows.  ``--trace 1`` runs every
workload, the named one first, each half untraced and half traced, and
reports the per-layer metrics (see ``layers.py``).  Every operation's output
is checked; an operation that raises, exits non-zero or gives a wrong
output counts as failed and the run goes on.  The last line of standard
output is one JSON object with ``correct`` (false if any output was wrong),
``attempted``, ``failed`` and ``metrics``; the lines before it give the
same metrics as a table and the failures by workload, input class and
error type.  Throughputs count only the operations that passed.
"""

from __future__ import annotations

import argparse
import gc
import json
import pathlib
import statistics
import sys
import tempfile
from collections import Counter

from harness import OUT, SRC, WARMUP_S, WORKLOADS, Stats, load_library, percentile, run_loop, set_up

SETUP_REPEATS = 7


def end_to_end(name: str, seed: int, seconds: float):
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        setups = []
        for _ in range(SETUP_REPEATS):
            workload, elapsed = set_up(name, seed, pathlib.Path(tmp))
            setups.append(elapsed)
        warm = run_loop(workload, WARMUP_S)
        gc.collect()
        stats = run_loop(workload, seconds)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (stats.ops_rate, "1/s"),
        "ksym_per_s": (stats.symbol_rate / 1000, "ksym/s"),
        "op_ms_p50": (statistics.median(stats.samples) * 1e3, "ms"),
        "op_ms_tail": (percentile(stats.samples, workload.tail) * 1e3, "ms"),
    }
    notes = [
        f"{name}: {stats.attempted} ops in {stats.wall:.2f} s, {len(stats.samples)} latency samples"
        f" of {workload.group} op(s), op_ms_tail = p{workload.tail}, setup_s = median of {SETUP_REPEATS}",
        f"wall clock, unscaled: {sum(stats.op_ok) / sum(stats.raw_samples):.4f} ok ops/s,"
        f" p50 {statistics.median(stats.raw_samples) * 1e3:.4f} ms,"
        f" median speed factor {statistics.median(stats.factors):.4f}",
    ]
    return metrics, [(name, stats)], warm.wrong, notes


def report(metrics: dict, runs: list[tuple[str, Stats]], wrong: int, notes: list[str]) -> None:
    for note in notes:
        print(note)
    failures, first = Counter(), {}
    for name, stats in runs:
        for (key, kind), count in stats.errors.items():
            failures[name, key, kind] += count
            first.setdefault((name, key, kind), stats.first_error[key, kind])
    for (name, key, kind), count in sorted(failures.items()):
        print(f"failed {name} {key} {kind} x{count}: {first[name, key, kind]}")
    width = max(len(name) for name in metrics)
    for name, (value, unit) in metrics.items():
        print(f"{name:<{width}}  {value:14.4f}  {unit}")
    result = {
        "correct": wrong == 0 and all(s.wrong == 0 for _, s in runs),
        "attempted": sum(s.attempted for _, s in runs),
        "failed": sum(s.failed for _, s in runs),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        load_library()
    except ImportError as exc:
        print(f"cannot import subparticle from {SRC}: {exc}", file=sys.stderr)
        return 2
    if args.trace:
        import layers

        order = [args.workload] + [name for name in WORKLOADS if name != args.workload]
        results = layers.traced(order, args.seed, args.seconds)
    else:
        results = end_to_end(args.workload, args.seed, args.seconds)
    report(*results)
    return 0


if __name__ == "__main__":
    sys.exit(main())
