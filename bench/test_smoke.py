"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest -q bench/test_smoke.py
"""

from __future__ import annotations

import contextlib
import io
import json
import pathlib
from fractions import Fraction

import pytest

import harness
import layers
import run
import workloads
from spans import Tracer, install

BENCHMARK = json.loads((harness.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def lib():
    return harness.load_library()


def _all_ops(workload) -> list:
    return [workload.op(i) for i in range(len(workload.inputs))]


def test_short_words_pass_their_checks(lib):
    workload = workloads.ShortWords(lib, seed=3, size=16)
    assert {config.dims for _, config, _ in workload.inputs} == {8, 32}
    assert _all_ops(workload) == [None] * 16


def test_long_words_pass_their_checks(lib, tmp_path):
    workload = workloads.LongWords(lib, seed=3, workdir=tmp_path, lengths=(5, 60), per_length=2)
    assert [len(w) for w in workload.inputs] == [5, 60, 5, 60]
    assert _all_ops(workload) == [None] * 4


def test_expr_dense_pass_their_checks(lib):
    workload = workloads.ExprDense(lib, seed=3, size=8)
    assert {base for _, base, _ in workload.inputs} == {2, 10}
    assert _all_ops(workload) == [None] * 8


def test_inputs_follow_the_seed(lib):
    def texts(seed):
        return [text for text, _, _ in workloads.ExprDense(lib, seed, size=8).inputs]

    assert texts(1) == texts(1)
    assert texts(1) != texts(2)


def test_wrong_expression_reference_is_a_failure(lib):
    workload = workloads.ExprDense(lib, seed=3, size=1)
    text, base, expected = workload.inputs[0]
    wrong = {exp: coeff + Fraction(1, 3) for exp, coeff in expected.items()}
    workload.inputs[0] = (text, base, wrong)
    stats = harness.run_loop(workload, seconds=0)
    assert (stats.attempted, stats.failed, stats.wrong) == (1, 1, 1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        run.report({"ops_per_s": (1.0, "1/s")}, [(workload.name, stats)], 0, [])
    result = json.loads(out.getvalue().splitlines()[-1])
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 1, 1)


def test_failure_is_charged_to_the_layer_that_raised(lib):
    workload = workloads.ShortWords(lib, seed=3, size=1)
    workload.inputs[0] = ("a#", workload.inputs[0][1], 0)
    tracer = Tracer()
    restore = install(lib, tracer)
    try:
        stats = harness.run_loop(workload, seconds=0, tracer=tracer)
    finally:
        restore()
    assert stats.failed_by_layer == {"codec": 1}
    assert list(stats.errors) == [("dims8", "SymbolNotInAlphabetError")]
    assert [s.name for s in tracer.spans] == ["pipeline.run_pipeline", "codec.encode"]
    assert lib.pipeline.run_pipeline.__module__ == "subparticle.pipeline"  # restored


def test_end_to_end_run_reports_every_metric(lib):
    for name in harness.WORKLOADS:
        metrics, runs, wrong, _ = run.end_to_end(name, seed=2, seconds=0.1)
        assert set(metrics) == {m["name"] for m in BENCHMARK["end_to_end"]}
        assert all(value > 0 for value, _ in metrics.values())
        assert wrong == 0 and runs[0][1].wrong == 0


def test_traced_run_reports_every_layer_metric(lib):
    metrics, runs, wrong, _ = layers.traced(list(harness.WORKLOADS), seed=2, seconds=0.3)
    assert set(metrics) == {m["name"] for m in BENCHMARK["per_layer"]}
    assert wrong == 0 and all(stats.wrong == 0 for _, stats in runs)
    assert (harness.OUT / "spans.jsonl").stat().st_size > 0


def test_benchmark_refuses_a_missing_package(monkeypatch, capsys):
    monkeypatch.setattr(harness, "SRC", pathlib.Path("/nonexistent/src"))
    assert run.main(["--workload", "short_words", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
