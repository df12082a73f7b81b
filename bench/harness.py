"""Loading the package, setting up a workload and running its closed loop.

The machine this runs on may be shared, and the speed it gives one process
can change by a factor of two within seconds.  So every operation is
followed by calibration: fixed chunks of work like the workload's own (see
``CALIBRATION``) that do not touch the program, for at least one chunk and
``CAL_SHARE`` of the operation's time.  Each operation's wall time is
scaled by ``CAL_REF_S`` over the mean chunk time just before and just
after it.  Reported times are thus reference seconds: wall time as if a
chunk had taken ``CAL_REF_S``, a round figure near its time on the 2-CPU,
2 GHz machine the benchmark was tuned on.  Raw wall-clock figures are
printed too.
"""

from __future__ import annotations

import gc
import importlib
import pathlib
import statistics
import sys
from collections import Counter
from fractions import Fraction
from time import perf_counter
from types import SimpleNamespace

import workloads
from spans import failing_layer

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = pathlib.Path(__file__).resolve().parent / ".out"
MODULES = ("codec", "hyperreal", "engine", "ledger", "pipeline", "expr", "cli")
WARMUP_S = 0.5
CAL_REF_S = 200e-6
CAL_SHARE = 0.125
WINDOW_S = 1.0
WORKLOADS = {
    "short_words": lambda lib, seed, workdir: workloads.ShortWords(lib, seed),
    "long_words": lambda lib, seed, workdir: workloads.LongWords(lib, seed, workdir),
    "expr_dense": lambda lib, seed, workdir: workloads.ExprDense(lib, seed),
}


def load_library() -> SimpleNamespace:
    """Import the package afresh from ``src/`` of this checkout."""
    for name in [m for m in sys.modules if m == "subparticle" or m.startswith("subparticle.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    modules = {name: importlib.import_module(f"subparticle.{name}") for name in MODULES}
    origin = pathlib.Path(modules["codec"].__file__).resolve()
    if not origin.is_relative_to(SRC):
        raise ImportError(f"subparticle was imported from {origin}, not from {SRC}")
    return SimpleNamespace(**modules)


def calibrate() -> float:
    """Wall time of one fixed chunk of small-Fraction and dict work."""
    start = perf_counter()
    acc: dict = {}
    x = Fraction(3, 7)
    for i in range(40):
        acc[i % 17] = acc.get(i % 17, 0) + x * i
    return perf_counter() - start


_BIG = 27**3000


def calibrate_bigint() -> float:
    """Wall time of one fixed chunk of small-radix steps on a 4300-digit int.

    long_words spends its time in big-integer loops in C, which a contended
    machine slows about half as much as interpreted code, so it gets a chunk
    of the same kind of work as its codec.
    """
    start = perf_counter()
    n = _BIG
    for digit in range(40):
        n = n * 27 + digit
    for _ in range(40):
        n //= 27
    return perf_counter() - start


CALIBRATION = {"short_words": calibrate, "long_words": calibrate_bigint, "expr_dense": calibrate}


def speed_factor(chunk=calibrate, chunks: int = 15) -> float:
    """``CAL_REF_S`` over the median of a few calibration chunks."""
    return CAL_REF_S / statistics.median(chunk() for _ in range(chunks))


def set_up(name: str, seed: int, workdir: pathlib.Path):
    """Import the package, make the inputs and their references.

    Returns the workload and the set-up time in reference seconds.
    """
    gc.collect()  # the previous set-up's modules are cyclic garbage
    before = speed_factor()
    start = perf_counter()
    workload = WORKLOADS[name](load_library(), seed, workdir)
    elapsed = perf_counter() - start
    return workload, elapsed * (before + speed_factor()) / 2


class Stats:
    """Outcome of one closed loop over a workload's operations."""

    def __init__(self, group: int):
        self.group = group  # ops per latency sample
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        # Flat lists of numbers, which the garbage collector does not track,
        # so that bookkeeping does not lengthen the program's collections.
        self.op_times: list[float] = []  # wall-clock seconds per op
        self.op_ok: list[int] = []  # 1 if the op passed, else 0
        self.op_symbols: list[int] = []  # symbols of the op if it passed, else 0
        self.chunk_end: list[int] = []  # end of each op's calibration chunks in ``chunks``
        self.chunks: list[float] = []  # calibration chunk times
        self.wall = 0.0  # wall-clock seconds, calibration included
        self.errors: Counter = Counter()  # (input class, error kind) -> count
        self.first_error: dict = {}
        self.failed_by_layer: Counter = Counter()
        # Filled in by ``scale``:
        self.factors: list[float] = []  # speed factor of each op
        self.samples: list[float] = []  # reference seconds per latency sample
        self.raw_samples: list[float] = []  # wall-clock seconds per latency sample
        self.ops_rate = 0.0  # median over windows of ok ops per reference second
        self.symbol_rate = 0.0  # the same for the symbols of ok ops

    def fail(self, key: str, kind: str, message: str, layer: str) -> None:
        self.failed += 1
        self.errors[key, kind] += 1
        self.first_error.setdefault((key, kind), message)
        self.failed_by_layer[layer] += 1

    def scale(self) -> None:
        """Speed factor of each op from the chunks just before and after it;
        rates over windows of whole latency samples with at least
        ``WINDOW_S`` of op time, the last, shorter window joining the one
        before it."""
        after = []
        first = 0
        for end in self.chunk_end:
            after.append(statistics.median(self.chunks[first:end]))
            first = end
        for i, chunk in enumerate(after):
            before = after[i - 1] if i else chunk
            self.factors.append(2 * CAL_REF_S / (before + chunk))
        scaled = [t * f for t, f in zip(self.op_times, self.factors)]
        ops_rates, symbol_rates = [], []
        start = elapsed = 0
        for k in range(0, len(scaled), self.group):
            stop = k + self.group
            self.samples.append(sum(scaled[k:stop]))
            self.raw_samples.append(sum(self.op_times[k:stop]))
            elapsed += self.samples[-1]
            if elapsed >= WINDOW_S or (stop == len(scaled) and not ops_rates):
                ops_rates.append(sum(self.op_ok[start:stop]) / elapsed)
                symbol_rates.append(sum(self.op_symbols[start:stop]) / elapsed)
                start, elapsed = stop, 0
        self.ops_rate = statistics.median(ops_rates)
        self.symbol_rate = statistics.median(symbol_rates)


def run_loop(workload, seconds: float, tracer=None) -> Stats:
    """Closed loop, one caller, for ``seconds`` (at least one latency sample).

    With a tracer, a failure is charged to the layer of the innermost span
    that raised; a wrong output or a non-zero exit to ``workload.layer``.
    """
    stats = Stats(workload.group)
    calibrate_op = CALIBRATION[workload.name]
    i = 0
    begin = perf_counter()
    deadline = begin + seconds
    while True:
        for _ in range(workload.group):
            first = 0
            if tracer is not None:
                tracer.op = i
                first = len(tracer.spans)
            stats.attempted += 1
            ok = symbols = 0
            t0 = perf_counter()
            try:
                wrong = workload.op(i)
            except Exception as exc:  # an op's failure is counted, not fatal
                elapsed = perf_counter() - t0
                layer = failing_layer(tracer.spans[first:]) if tracer is not None else None
                kind = getattr(exc, "kind", type(exc).__name__)
                stats.fail(workload.key(i), kind, str(exc)[:200], layer or workload.layer)
            else:
                elapsed = perf_counter() - t0
                if wrong is None:
                    ok, symbols = 1, workload.symbols(i)
                else:
                    stats.wrong += 1
                    stats.fail(workload.key(i), "wrong", wrong[:200], workload.layer)
            spent = 0.0
            while not spent or spent < elapsed * CAL_SHARE:
                chunk = calibrate_op()
                stats.chunks.append(chunk)
                spent += chunk
            stats.chunk_end.append(len(stats.chunks))
            stats.op_times.append(elapsed)
            stats.op_ok.append(ok)
            stats.op_symbols.append(symbols)
            i += 1
        if perf_counter() >= deadline:
            break
    stats.wall = perf_counter() - begin
    stats.scale()
    return stats


def percentile(values: list[float], pct: int) -> float:
    return statistics.quantiles(values, n=100)[pct - 1] if len(values) > 1 else values[0]
