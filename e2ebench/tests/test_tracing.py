"""The traced run: design checks, guards and outside-in timing."""

import json
import os

import pytest

import layers
import run
from workloads import WORKLOADS, generate

BENCHMARK = os.path.join(run.ROOT, "BENCHMARK.json")

#: The layer(s) that must hold the most self time on each workload.
DOMINANT = {
    "back-image": ("fsm.back_image_s",),
    "conj-policy": ("iclist.evaluate_s", "iclist.simplify_s"),
    "fwd-relprod": ("fsm.image_s",),
}


def _bound(metric):
    with open(BENCHMARK) as handle:
        spec = json.load(handle)
    return next(entry["bound"] for entry in spec["end_to_end"]
                if entry["name"] == metric)


@pytest.mark.parametrize("workload", sorted(DOMINANT))
def test_traced_pass_confirms_workload_design(repro, workload):
    outcome = run.run_pass(repro, generate(workload, 1), traced=True)
    assert not outcome.failures
    metrics = run.layer_metrics(outcome)
    run.guard(workload, outcome, metrics)
    assert set(metrics) | {"bench.trace_overhead_frac"} == \
        {name for name, _unit in run.metric_units("per_layer")}
    times = {name: value for name, value in metrics.items()
             if name.endswith("_s") and name != "core.unattributed_s"}
    dominant = sum(times[name] for name in DOMINANT[workload])
    others = [value for name, value in times.items()
              if name not in DOMINANT[workload]]
    assert dominant > max(others + [metrics["core.unattributed_s"]])
    total = sum(metrics[name] for name in run.LAYER_SPANS)
    assert total == pytest.approx(outcome.seconds, rel=1e-9)


def test_guard_rejects_a_workload_missing_its_layer(repro):
    outcome = run.run_pass(repro, WORKLOADS["fwd-relprod"][:1], traced=True)
    with pytest.raises(run.GuardError, match="fsm.back_image_calls"):
        run.guard("back-image", outcome, run.layer_metrics(outcome))


def test_missing_wrapped_name_fails_loudly(repro, monkeypatch):
    monkeypatch.setattr(layers, "WRAP_POINTS", layers.WRAP_POINTS + (
        ("repro.core.xici", "no_such_function", "fsm.back_image"),))
    with pytest.raises(layers.GuardError, match="no_such_function"):
        with layers.installed(layers.SpanRecorder()):
            pass


def test_wrappers_are_removed_after_the_traced_pass(repro):
    import repro.core.xici as xici
    original = xici.back_image
    with layers.installed(layers.SpanRecorder()):
        assert xici.back_image is not original
    assert xici.back_image is original


def test_outside_in_back_image_time_agrees_with_program_spans(repro):
    bound = _bound("suite_ref")
    recorder = layers.SpanRecorder()
    with layers.installed(recorder):
        for case in WORKLOADS["back-image"]:
            problem = repro.build_model(case.model, **dict(case.params))
            options = repro.Options(spans=repro.SpanProfiler())
            result = repro.verify(problem, case.method, options)
            rollup = result.span_rollup["back_image"]
            spans = [row for row in recorder.spans
                     if row[0] == "fsm.back_image"]
            recorder.spans.clear()
            assert len(spans) == rollup["count"]
            wrapped = sum(end - start for _n, start, end, _p, _c
                          in spans) / 1e9
            assert wrapped == pytest.approx(rollup["seconds"], rel=bound)
