"""In-memory spans around the program's public calls, for the traced run.

The benchmark does not edit the program.  ``install`` rebinds the public
names that the benchmark and the program's own modules call through
(module attributes and class attributes) to wrappers that record a span,
and returns a function that restores the originals.  A span is recorded
when its call returns or raises; the spans of one benchmark operation share
its ``op`` id, and ``parent`` is the index of the enclosing span (-1 at the
top of an operation).
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass
from time import perf_counter


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int
    op: int
    error: str | None
    count: int | None  # size of the result, where the wrapper measures one

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    def __init__(self):
        self.spans: list[Span | None] = []
        self.op = -1
        self._stack: list[int] = []

    def wrap(self, name, fn, measure=None):
        spans = self.spans
        stack = self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            error = None
            count = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if measure is not None:
                    count = measure(result)
                return result
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = Span(name, start, end, parent, self.op, error, count)

        return traced

    def write(self, out, workload: str) -> None:
        """One JSON array per span: workload, op, index, parent, name, start
        and end in microseconds, error type, count."""
        for index, s in enumerate(self.spans):
            row = [workload, s.op, index, s.parent, s.name, round(s.start * 1e6, 3),
                   round(s.end * 1e6, 3), s.error, s.count]
            out.write(json.dumps(row) + "\n")


def count_nodes(ast) -> int:
    """Nodes of an expression tree."""
    return 1 + sum(count_nodes(child) for child in ast.children)


def count_terms(value) -> int:
    """Terms of a Hyperreal; 1 for the Fraction of a root ``st``."""
    terms = getattr(value, "terms", None)
    return len(terms) if terms is not None else 1


def install(lib, tracer: Tracer):
    """Wrap every public call the workloads reach; return the undo function."""
    undo = []

    def patch(owner, attr, replacement):
        undo.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, replacement)

    codec, hyperreal, engine = lib.codec, lib.hyperreal, lib.engine
    ledger, pipeline, expr, cli = lib.ledger, lib.pipeline, lib.expr, lib.cli

    patch(pipeline, "encode", tracer.wrap("codec.encode", codec.encode))
    patch(pipeline, "decode", tracer.wrap("codec.decode", codec.decode))
    patch(pipeline, "lambda_for_code", tracer.wrap("hyperreal.lambda_for_code", hyperreal.lambda_for_code))
    patch(pipeline, "Ultrasubparticle", tracer.wrap("engine.particle", engine.Ultrasubparticle))
    patch(engine.Ultrasubparticle, "coords", tracer.wrap("engine.coords", engine.Ultrasubparticle.coords))
    patch(pipeline, "bundle", tracer.wrap("engine.bundle", engine.bundle))
    patch(pipeline, "realize", tracer.wrap("engine.realize", engine.realize))

    Ledger = ledger.Ledger
    patch(Ledger, "to_json", tracer.wrap("ledger.to_json", Ledger.to_json, measure=len))
    from_json = Ledger.__dict__["from_json"].__func__
    patch(Ledger, "from_json", classmethod(tracer.wrap("ledger.from_json", from_json)))

    run_pipeline = tracer.wrap("pipeline.run_pipeline", pipeline.run_pipeline)
    recompute = tracer.wrap("pipeline.recompute_decoded", pipeline.recompute_decoded)
    for owner in (pipeline, cli):
        patch(owner, "run_pipeline", run_pipeline)
        patch(owner, "recompute_decoded", recompute)

    patch(expr, "parse", tracer.wrap("expr.parse", expr.parse, measure=count_nodes))
    patch(expr, "eval_ast", tracer.wrap("expr.eval_ast", expr.eval_ast, measure=count_terms))

    # One span name per subcommand the workloads run: cli.encode, cli.realize.
    commands = {name: tracer.wrap(f"cli.{name}", cli.main) for name in ("encode", "realize")}
    patch(cli, "main", lambda argv: commands[argv[0]](argv))

    # File I/O inside ``cli.main`` gets its own spans, so that cli self time
    # is the command line layer alone.
    base_path = type(pathlib.Path())

    class TracedPath(base_path):
        read_text = tracer.wrap("io.read_text", base_path.read_text)
        write_text = tracer.wrap("io.write_text", base_path.write_text)

    patch(cli, "Path", TracedPath)

    def restore():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return restore


def self_times(spans: list[Span], names, factors) -> dict[str, list[float]]:
    """Per span name: duration minus the time its direct children cover,
    each scaled by the speed factor of its op."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_time[s.parent] += s.end - s.start
    out: dict[str, list[float]] = {name: [] for name in names}
    for index, s in enumerate(spans):
        if s.name in out:
            out[s.name].append((s.end - s.start - child_time[index]) * factors[s.op])
    return out


def durations(spans: list[Span], name: str, factors, ok_only: bool = True) -> list[float]:
    """Durations of the spans called ``name``, scaled by their op's speed factor."""
    return [(s.end - s.start) * factors[s.op] for s in spans
            if s.name == name and (s.error is None or not ok_only)]


def counts(spans: list[Span], name: str) -> list[int]:
    return [s.count for s in spans if s.name == name and s.count is not None]


def failing_layer(spans: list[Span]) -> str | None:
    """Layer of the innermost span that raised, among one op's spans."""
    raised = [s for s in spans if s.error is not None]
    if not raised:
        return None
    # Spans are stored in call order of their start, so the last one that
    # raised is the innermost on the failing path.
    return raised[-1].layer
