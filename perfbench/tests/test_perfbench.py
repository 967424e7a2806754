"""Tests of the benchmark's own logic: spans, wrappers, failures, printing."""

import io
import json
import os
import signal
import sys
import time
import types
from contextlib import redirect_stdout

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
for path in (ROOT, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

from perfbench import compare, hostspeed, layers, run, workloads  # noqa: E402
from perfbench.tracing import Span, Tracer, TraceSummary, self_times  # noqa: E402


def _span(name, start, end, parent=-1, tag=""):
    return Span(name, start, end, parent, 0, tag)


def test_self_time_subtracts_nested_children():
    spans = [
        _span("root", 0.0, 10.0),
        _span("a", 1.0, 4.0, parent=0),
        _span("a.inner", 2.0, 3.0, parent=1),
        _span("b", 5.0, 6.0, parent=0),
    ]
    assert self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0])


def test_self_time_counts_overlapping_children_once():
    spans = [
        _span("root", 0.0, 10.0),
        _span("x", 1.0, 5.0, parent=0),
        _span("y", 3.0, 7.0, parent=0),
        _span("z", 9.0, 12.0, parent=0),  # clipped to the parent's end
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_summary_layer_self_time_and_ancestry():
    spans = [
        _span("graphflow.relax_flow", 0.0, 10.0),
        _span("graphflow.FlowTrace.record", 1.0, 3.0, parent=0),
        _span("graphflow.field_jets", 1.5, 2.0, parent=1),
        _span("graphflow.field_jets", 4.0, 5.0, parent=0),
        _span("sphere.great_circle", 6.0, 7.0, parent=0),
    ]
    summary = TraceSummary(spans, {}, {})
    assert summary.layer_self_s("graphflow") == pytest.approx(9.0)
    assert summary.layer_self_s("sphere") == pytest.approx(1.0)
    assert summary.count_under("graphflow.field_jets", "graphflow.FlowTrace.record") == 1
    assert summary.median_duration("graphflow.field_jets") == pytest.approx(0.75)


def _fake_module():
    mod = types.ModuleType("fakepkg.geom")
    exec(
        "def inner(x):\n    return 2 * x\n"
        "def outer(x):\n    return inner(x) + 1\n"
        "def _private(x):\n    return x\n",
        mod.__dict__,
    )
    mod.borrowed = json.dumps  # defined elsewhere: must stay unwrapped
    return mod


def test_wrappers_record_internal_calls_and_are_removed():
    mod = _fake_module()
    originals = dict(vars(mod))
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    tracer.patch_module(mod)
    assert mod.borrowed is originals["borrowed"]
    assert mod._private is originals["_private"]
    assert mod.outer(3) == 7
    spans = tracer.spans()
    assert [s.name for s in spans] == ["geom.outer", "geom.inner"]
    assert spans[1].parent == 0 and spans[0].parent == -1
    assert tracer.calls["geom.inner"] == 1
    tracer.remove()
    for key in ("inner", "outer"):
        assert vars(mod)[key] is originals[key]


def test_patch_restores_classmethods_and_dict_entries():
    class Box:
        @classmethod
        def make(cls, x):
            return cls, x

    table = {"k": Box.make}
    raw = vars(Box)["make"]
    tracer = Tracer()
    tracer.patch(Box, "make", "box.make", on_result=lambda r: {"made": 1})
    tracer.patch(table, "k", "table.k")
    assert Box.make(2) == (Box, 2)
    assert table["k"](3) == (Box, 3)
    assert tracer.calls == {"box.make": 1, "table.k": 1}
    assert tracer.work["made"] == 1
    tracer.remove()
    assert vars(Box)["make"] is raw
    assert table["k"] == Box.make


def test_failures_are_counted_and_the_pass_goes_on(tmp_path, monkeypatch):
    def boom(op, outdir):
        raise ValueError("normal directions are not orthonormal")

    def fine(op, outdir):
        return {"probes": 1}, {"out": "abc"}

    def missed(op, outdir):
        workloads._check(False, "residual too large")

    monkeypatch.setattr(
        workloads, "RUNNERS", {"boom": boom, "fine": fine, "missed": missed}
    )
    ops = [workloads.Op("fine"), workloads.Op("boom"), workloads.Op("missed"),
           workloads.Op("fine", seed=1)]
    ticks = iter(range(100))
    records = workloads.run_pass(ops, str(tmp_path), lambda: float(next(ticks)))
    assert [r.ok for r in records] == [True, False, False, True]
    assert "ValueError: normal directions" in records[1].error
    assert "CheckFailed: residual too large" in records[2].error
    assert records[3].counts == {"probes": 1}


def test_plan_is_a_function_of_workload_seed_and_seconds():
    for workload in workloads.WORKLOADS:
        first = workloads.plan(workload, 3, 25)
        assert first == workloads.plan(workload, 3, 25)
        assert first != workloads.plan(workload, 4, 25)
    flow = workloads.plan("flow-relax", 0, 25)
    assert flow[-1].kind == "c10-segment" and flow[-1].steps % 100 == 0
    assert [op.seed for op in flow[:-1]] == list(range(len(flow) - 1))
    with pytest.raises(ValueError):
        workloads.plan("nope", 0, 25)


def test_table_prints_every_metric_with_its_unit():
    metrics = {m.name: {"value": 1.5, "unit": m.unit} for m in layers.PER_LAYER}
    result = {
        "workload": "certify", "seed": 0, "seconds": 25, "trace": 1,
        "machine": {"nproc": 2}, "fail_ratio": 0.0,
        "ops": [{"index": 0, "kind": "quadrature", "seed": 0, "seconds": 1.0,
                 "ok": True, "error": "", "counts": {"mesh_nodes": 4}}],
        "summary": {"correct": True, "attempted": 1, "failed": 0, "metrics": metrics},
    }
    out = io.StringIO()
    with redirect_stdout(out):
        run.print_table(result)
    lines = out.getvalue().splitlines()
    for m in layers.PER_LAYER:
        assert any(line.split()[:1] == [m.name] and line.endswith(" " + m.unit)
                   for line in lines), m.name
    assert any(line.split()[0] == "fail_ratio" for line in lines)


def test_per_layer_metrics_cover_the_declared_list():
    spans = [_span("ineq.sup_F_sweep", 0.0, 2.0)]
    facts = {"ops": 1, "probes": 0, "composition_kept": 0, "trace_overhead_s": 0.1}
    metrics = layers.per_layer_metrics(spans, {}, {"sweep_samples": 10,
                                                   "sweep_grid": 40}, facts)
    assert list(metrics) == [m.name for m in layers.PER_LAYER]
    assert metrics["ineq.sweep_samples_per_s"]["value"] == pytest.approx(5.0)
    assert metrics["ineq.sweep_member_ratio"] == {"value": 0.25, "unit": "1"}


def test_benchmark_json_matches_the_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert spec["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in layers.PER_LAYER
    ]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_normalised_time_removes_sampling_and_scales_by_local_slowdown():
    host = hostspeed.HostSampler()
    slow = 2.0 * hostspeed.NOMINAL_S
    host.samples = [(1.0, slow), (2.0, slow), (9.0, 4.0 * hostspeed.NOMINAL_S)]
    assert host.slowdown(0.0, 4.0) == pytest.approx(2.0)
    assert host.normalised(0.0, 4.0) == pytest.approx((4.0 - 2 * slow) / 2.0)
    # a window without samples falls back to the median over the whole run
    assert host.slowdown(5.0, 6.0) == pytest.approx(2.0)


def test_sampler_fires_inside_work_and_restores_the_alarm():
    previous = signal.getsignal(signal.SIGALRM)
    with hostspeed.HostSampler(interval=0.02) as host:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
    assert len(host.samples) >= 3
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is previous


def test_spread_is_the_quartile_distance_over_the_median():
    med, rel = compare.spread([1.0, 2.0, 3.0, 4.0, 5.0])
    assert med == 3.0
    assert rel == pytest.approx((4.5 - 1.5) / 3.0)


def test_traced_cli_op_sees_internal_calls_and_restores_the_package(tmp_path):
    from shrinkerlab import cli, graphflow, sphere

    before = (cli.main, dict(cli.HANDLERS), sphere.great_circle,
              vars(graphflow.FlowTrace)["record"],
              vars(graphflow.GridField)["from_function"])
    tracer = Tracer()
    layers.install(tracer)
    try:
        records = workloads.run_pass(
            [workloads.Op("verify-targets", seed=1)], str(tmp_path),
            tracer.clock, tracer,
        )
    finally:
        tracer.remove()
    after = (cli.main, dict(cli.HANDLERS), sphere.great_circle,
             vars(graphflow.FlowTrace)["record"],
             vars(graphflow.GridField)["from_function"])
    assert after == before
    assert records[0].ok, records[0].error
    assert "report_verify-targets.json" in records[0].digests
    names = {s.name for s in tracer.spans()}
    assert {"cli.main", "cli.cmd_verify_targets", "sphere.great_circle",
            "grassmann.jordan_spectrum"} <= names
    assert all(s.op == 0 for s in tracer.spans())
