"""The traced run: per-layer metrics for every workload.

Each workload is set up once, warmed up, run untraced for half its share of
``--seconds`` and then traced for the other half.  The traced half records
spans around the public calls (``spans.install``); the untraced half gives
the rate that tracing overhead is measured against.  Timings of one call
are medians over the calls made, except on ``long_words`` (suffix
``.long``), where they are means, because its inputs come in four sizes.
Span times are scaled by their op's speed factor, as the end-to-end times
are (see ``harness.py``).  Three probes time single layers directly,
outside any operation: the codec at each long-word length, and
``Hyperreal`` add and mul on the operand pairs that the pipeline and the
expression evaluator actually pass.

Metric names say which end-to-end metric they should move: ``.short`` and
``.pipeline`` on short_words, ``.long`` and ``.L<n>`` on long_words,
``.dense`` and ``expr.*`` on expr_dense.
"""

from __future__ import annotations

import operator
import pathlib
import statistics
import tempfile
from time import perf_counter

from harness import OUT, WARMUP_S, calibrate_bigint, run_loop, set_up, speed_factor
from spans import Tracer, count_nodes, count_terms, counts, durations, install, self_times
from workloads import LONG_LENGTHS

PROBE_REPEATS = 5
MAX_PAIRS = 4000


def _median(values, scale):
    return statistics.median(values) * scale if values else 0.0


def _mean(values, scale):
    return statistics.fmean(values) * scale if values else 0.0


def _short_metrics(spans, stats):
    f = stats.factors
    own = self_times(spans, ["pipeline.run_pipeline"], f)
    us = 1e6
    return {
        "codec.encode_us.short": (_median(durations(spans, "codec.encode", f), us), "us"),
        "codec.decode_us.short": (_median(durations(spans, "codec.decode", f), us), "us"),
        "hyperreal.lambda_us.short": (_median(durations(spans, "hyperreal.lambda_for_code", f), us), "us"),
        "engine.particle_us": (_median(durations(spans, "engine.particle", f), us), "us"),
        "engine.coords_us": (_median(durations(spans, "engine.coords", f), us), "us"),
        "engine.bundle_us": (_median(durations(spans, "engine.bundle", f), us), "us"),
        "engine.realize_us": (_median(durations(spans, "engine.realize", f), us), "us"),
        "ledger.to_json_us.short": (_median(durations(spans, "ledger.to_json", f), us), "us"),
        "ledger.from_json_us.short": (_median(durations(spans, "ledger.from_json", f), us), "us"),
        "ledger.bytes.short": (_median(counts(spans, "ledger.to_json"), 1), "count"),
        "pipeline.run_us.short": (_median(durations(spans, "pipeline.run_pipeline", f), us), "us"),
        "pipeline.self_us.short": (_median(own["pipeline.run_pipeline"], us), "us"),
        "pipeline.recompute_us.short": (_median(durations(spans, "pipeline.recompute_decoded", f), us), "us"),
        "pipeline.failed.short": (stats.failed_by_layer["pipeline"], "count"),
    }


def _long_metrics(spans, stats):
    f = stats.factors
    own = self_times(spans, ["cli.encode", "cli.realize"], f)
    ms = 1e3
    return {
        "ledger.to_json_ms.long": (_mean(durations(spans, "ledger.to_json", f), ms), "ms"),
        "ledger.from_json_ms.long": (_mean(durations(spans, "ledger.from_json", f), ms), "ms"),
        "ledger.bytes.long": (_median(counts(spans, "ledger.to_json"), 1), "count"),
        "pipeline.run_ms.long": (_mean(durations(spans, "pipeline.run_pipeline", f), ms), "ms"),
        "cli.encode_ms.long": (_mean(durations(spans, "cli.encode", f, ok_only=False), ms), "ms"),
        "cli.realize_ms.long": (_mean(durations(spans, "cli.realize", f, ok_only=False), ms), "ms"),
        "cli.self_ms.long": (_mean(own["cli.encode"] + own["cli.realize"], ms), "ms"),
        "ledger.failed.long": (stats.failed_by_layer["ledger"], "count"),
        "cli.failed.long": (stats.failed_by_layer["cli"], "count"),
    }


def _expr_metrics(spans, stats):
    f = stats.factors
    return {
        "expr.parse_us": (_median(durations(spans, "expr.parse", f), 1e6), "us"),
        "expr.eval_us": (_median(durations(spans, "expr.eval_ast", f), 1e6), "us"),
    }


LAYER_METRICS = {"short_words": _short_metrics, "long_words": _long_metrics, "expr_dense": _expr_metrics}


def _coverage(spans, stats) -> float:
    """Share of op time that the top spans of each op cover."""
    covered = sum(s.end - s.start for s in spans if s.parent < 0)
    return covered / sum(stats.raw_samples)


def _codec_probe(lib, long_words):
    """Direct encode and decode at each long-word length; returns (metrics, wrong)."""
    metrics = {}
    wrong = 0
    for n in LONG_LENGTHS:
        word = next(w for w in long_words.inputs if len(w) == n)
        enc, dec = [], []
        for _ in range(PROBE_REPEATS):
            before = speed_factor(calibrate_bigint)
            t0 = perf_counter()
            code = lib.codec.encode(word)
            t1 = perf_counter()
            back = lib.codec.decode(code)
            t2 = perf_counter()
            factor = (before + speed_factor(calibrate_bigint)) / 2
            enc.append((t1 - t0) * factor)
            dec.append((t2 - t1) * factor)
            wrong += back != word
        metrics[f"codec.encode_ms.L{n}"] = (_median(enc, 1e3), "ms")
        metrics[f"codec.decode_ms.L{n}"] = (_median(dec, 1e3), "ms")
    ratio = metrics[f"codec.decode_ms.L{LONG_LENGTHS[-1]}"][0] / metrics[f"codec.decode_ms.L{LONG_LENGTHS[0]}"][0]
    metrics[f"codec.decode_ratio.L{LONG_LENGTHS[-1]}_L{LONG_LENGTHS[0]}"] = (ratio, "ratio")
    return metrics, wrong


def _capture_pairs(Hyperreal, fn):
    """Run ``fn`` and return the operand pairs it passed to Hyperreal add and mul."""
    adds, muls = [], []
    saved = {name: Hyperreal.__dict__[name] for name in ("__add__", "__radd__", "__mul__", "__rmul__")}

    def add(self, other):
        adds.append((self, other))
        return saved["__add__"](self, other)

    def mul(self, other):
        muls.append((self, other))
        return saved["__mul__"](self, other)

    Hyperreal.__add__ = Hyperreal.__radd__ = add
    Hyperreal.__mul__ = Hyperreal.__rmul__ = mul
    try:
        fn()
    finally:
        for name, original in saved.items():
            setattr(Hyperreal, name, original)
    return adds[:: len(adds) // MAX_PAIRS + 1], muls[:: len(muls) // MAX_PAIRS + 1]


def _per_call_us(pairs, op) -> float:
    batches = []
    for _ in range(PROBE_REPEATS):
        before = speed_factor()
        t0 = perf_counter()
        for a, b in pairs:
            op(a, b)
        elapsed = perf_counter() - t0
        batches.append(elapsed * (before + speed_factor()) / 2 / len(pairs))
    return statistics.median(batches) * 1e6


def _hyperreal_probe(short_words, expr_dense):
    """Add and mul on pipeline-shaped and on dense operands, and the exact
    counts of one pass over the expression inputs."""
    lib = short_words.lib

    def pipeline_pass():
        for word, config, _ in short_words.inputs[:64]:
            lib.pipeline.run_pipeline(word, config)

    adds, muls = _capture_pairs(lib.hyperreal.Hyperreal, pipeline_pass)
    metrics = {
        "hyperreal.add_us.pipeline": (_per_call_us(adds, operator.add), "us"),
        "hyperreal.mul_us.pipeline": (_per_call_us(muls, operator.mul), "us"),
    }

    lib = expr_dense.lib
    asts = [(lib.expr.parse(text), base) for text, base, _ in expr_dense.inputs]
    values = []
    adds, muls = _capture_pairs(
        lib.hyperreal.Hyperreal, lambda: values.extend(lib.expr.eval_ast(ast, base) for ast, base in asts)
    )
    metrics["hyperreal.add_us.dense"] = (_per_call_us(adds, operator.add), "us")
    metrics["hyperreal.mul_us.dense"] = (_per_call_us(muls, operator.mul), "us")
    metrics["hyperreal.terms.dense"] = (sum(count_terms(v) for v in values), "count")
    metrics["expr.nodes"] = (sum(count_nodes(ast) for ast, _ in asts), "count")
    return metrics


def traced(order, seed: int, seconds: float):
    share = seconds / len(order) / 2
    metrics, runs, notes = {}, [], []
    wrong = 0
    built = {}
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp, (OUT / "spans.jsonl").open("w") as span_file:
        for name in order:
            workload, _ = set_up(name, seed, pathlib.Path(tmp))
            built[name] = workload
            wrong += run_loop(workload, WARMUP_S).wrong
            plain = run_loop(workload, share)
            tracer = Tracer()
            restore = install(workload.lib, tracer)
            try:
                stats = run_loop(workload, share, tracer)
            finally:
                restore()
            tracer.write(span_file, name)
            metrics.update(LAYER_METRICS[name](tracer.spans, stats))
            overhead = (sum(stats.samples) / stats.attempted) / (sum(plain.samples) / plain.attempted) - 1
            metrics[f"trace.overhead_frac.{name}"] = (overhead, "frac")
            metrics[f"trace.coverage_frac.{name}"] = (_coverage(tracer.spans, stats), "frac")
            runs += [(name, plain), (name, stats)]
            notes.append(
                f"{name}: {plain.attempted} ops untraced, {stats.attempted} traced, {len(tracer.spans)} spans"
            )
        codec_metrics, codec_wrong = _codec_probe(built["long_words"].lib, built["long_words"])
        metrics.update(codec_metrics)
        wrong += codec_wrong
        metrics.update(_hyperreal_probe(built["short_words"], built["expr_dense"]))
    notes.append(f"spans written to {OUT / 'spans.jsonl'}")
    return dict(sorted(metrics.items())), runs, wrong, notes
