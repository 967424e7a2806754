"""Per-layer metrics of the traced run, and the spans they are computed from.

Every metric names the end-to-end metric it should move and on which
workload; on every other pairing the prediction is no change.  The names,
units and directions here are the `per_layer` list of BENCHMARK.json.
"""

from __future__ import annotations

import importlib
from typing import Callable, NamedTuple

from perfbench.tracing import TraceSummary

MODULES = ("sphere", "grassmann", "immersion", "ineq", "graphflow", "cli")

FLOW = "wall_norm_s on flow-relax"
PROBES = "wall_norm_s on shrinker-probes"
CERTIFY = "wall_norm_s on certify"
MESH = "wall_norm_s and peak_rss_mb on certify"
NONE = "none (work count or bookkeeping)"

GRAPHFLOW_IO = (
    "graphflow.GridField.from_function",
    "graphflow.field_to_csv",
    "graphflow.trace_svg",
    "graphflow.gauss_image_report",
)


def _grid(field):
    return "x".join(str(s) for s in field.values.shape)


# span name -> keyword arguments for Tracer.wrap
HOOKS = {
    "graphflow.system_residual": {"tag": lambda field, *a, **k: _grid(field)},
    "graphflow.FlowTrace.record": {
        "tag": lambda trace, step, time, field, *a, **k: _grid(field),
    },
    "graphflow.relax_flow": {
        "on_result": lambda r: {"flow_steps": r[1].steps[-1]},
    },
    "ineq.sup_F_sweep": {
        "on_result": lambda r: {
            "sweep_samples": r.samples,
            "sweep_grid": r.v_count * r.rt_resolution,
        },
    },
    "ineq.adversarial_margin_search": {
        "on_result": lambda r: {"search_evaluations": r.evaluations},
    },
    "immersion.patch_mesh": {
        "on_result": lambda r: {"mesh_nodes": r.node_count},
    },
}


def install(tracer):
    """Wrap the public functions of all six modules, plus the methods and
    the handler table that module-attribute patching does not reach."""
    mods = {name: importlib.import_module(f"shrinkerlab.{name}") for name in MODULES}
    for mod in mods.values():
        tracer.patch_module(mod, HOOKS)
    graphflow, cli = mods["graphflow"], mods["cli"]
    tracer.patch(graphflow.FlowTrace, "record", "graphflow.FlowTrace.record",
                 **HOOKS["graphflow.FlowTrace.record"])
    tracer.patch(
        graphflow.GridField, "from_function", "graphflow.GridField.from_function"
    )
    for key, handler in list(cli.HANDLERS.items()):
        tracer.patch(cli.HANDLERS, key, f"cli.{handler.__name__}")


def _ratio(num, den):
    return num / den if den else 0.0


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    moves: str
    value: Callable  # (TraceSummary, facts dict) -> float


def _calls(name):
    return lambda s, f: s.calls[name]


def _self(*names):
    return lambda s, f: s.layer_self_s(*names)


def _median(name, scale, tag=None):
    return lambda s, f: scale * s.median_duration(name, tag)


def _work(key):
    return lambda s, f: s.work[key]


PER_LAYER = (
    Metric("graphflow.self_s", "s", "lower", FLOW, _self("graphflow")),
    Metric("graphflow.system_residual.calls", "count", "lower", FLOW,
           _calls("graphflow.system_residual")),
    Metric("graphflow.system_residual.self_s", "s", "lower", FLOW,
           _self("graphflow.system_residual")),
    Metric("graphflow.field_jets.calls", "count", "lower", FLOW,
           _calls("graphflow.field_jets")),
    Metric("graphflow.field_jets.self_s", "s", "lower", FLOW,
           _self("graphflow.field_jets")),
    Metric("graphflow.residual_ms.25x25x1", "ms", "lower", FLOW,
           _median("graphflow.system_residual", 1e3, "25x25x1")),
    Metric("graphflow.residual_ms.129x129x2", "ms", "lower", FLOW,
           _median("graphflow.system_residual", 1e3, "129x129x2")),
    Metric("graphflow.trace_sample_ms", "ms", "lower", FLOW,
           _median("graphflow.FlowTrace.record", 1e3, "129x129x2")),
    # 4 jet evaluations per sample of an m = 1 field, 3 for m = 2
    Metric("graphflow.jets_per_trace_sample", "count", "lower", FLOW,
           lambda s, f: _ratio(
               s.count_under("graphflow.field_jets", "graphflow.FlowTrace.record"),
               s.calls["graphflow.FlowTrace.record"])),
    Metric("graphflow.steps", "count", "lower", FLOW, _work("flow_steps")),
    Metric("graphflow.trace_samples", "count", "lower", FLOW,
           _calls("graphflow.FlowTrace.record")),
    Metric("graphflow.relax_flow.self_s", "s", "lower", FLOW,
           _self("graphflow.relax_flow")),
    Metric("graphflow.io.self_s", "s", "lower", FLOW, _self(*GRAPHFLOW_IO)),
    Metric("sphere.self_s", "s", "lower", PROBES + "; a small share of flow-relax",
           _self("sphere")),
    Metric("sphere.region_membership.calls", "count", "lower", PROBES,
           _calls("sphere.region_membership")),
    Metric("sphere.great_circle.calls", "count", "lower", PROBES,
           _calls("sphere.great_circle")),
    Metric("grassmann.self_s", "s", "lower", PROBES, _self("grassmann")),
    Metric("grassmann.jordan_spectrum.calls", "count", "lower", PROBES,
           _calls("grassmann.jordan_spectrum")),
    Metric("grassmann.jordan_spectrum.us", "us", "lower", PROBES,
           _median("grassmann.jordan_spectrum", 1e6)),
    Metric("grassmann.geodesic_from_velocity.calls", "count", "lower", PROBES,
           _calls("grassmann.geodesic_from_velocity")),
    Metric("immersion.self_s", "s", "lower", PROBES + " and certify",
           _self("immersion")),
    Metric("immersion.point_frame.calls", "count", "lower", PROBES,
           _calls("immersion.point_frame")),
    Metric("immersion.point_frame.us", "us", "lower", PROBES,
           _median("immersion.point_frame", 1e6)),
    Metric("immersion.weighted_tension.us", "us", "lower", PROBES,
           _median("immersion.weighted_tension", 1e6)),
    Metric("immersion.point_frame_per_tension", "count", "lower", PROBES,
           lambda s, f: _ratio(
               s.count_under("immersion.point_frame", "immersion.weighted_tension"),
               s.calls["immersion.weighted_tension"])),
    Metric("immersion.composition_check.ms", "ms", "lower", PROBES,
           _median("immersion.composition_check", 1e3)),
    Metric("immersion.composition_draws", "count", "lower", PROBES,
           _calls("grassmann.w_product")),
    Metric("immersion.composition_accept_ratio", "1", "higher", PROBES,
           lambda s, f: _ratio(f["composition_kept"], s.calls["grassmann.w_product"])),
    Metric("immersion.patch_mesh.us_per_node", "us", "lower", MESH,
           lambda s, f: _ratio(1e6 * s.total_duration("immersion.patch_mesh"),
                               s.work["mesh_nodes"])),
    Metric("immersion.stability_identity_check.self_s", "s", "lower", MESH,
           _self("immersion.stability_identity_check")),
    Metric("immersion.mesh_nodes", "count", "lower", NONE, _work("mesh_nodes")),
    Metric("ineq.self_s", "s", "lower", CERTIFY, _self("ineq")),
    Metric("ineq.group_terms.us", "us", "lower", CERTIFY,
           _median("ineq.group_terms", 1e6)),
    Metric("ineq.master_margin.us", "us", "lower", CERTIFY,
           _median("ineq.master_margin", 1e6)),
    Metric("ineq.random_group_sample.us", "us", "lower", CERTIFY,
           _median("ineq.random_group_sample", 1e6)),
    Metric("ineq.sweep_samples", "count", "lower", NONE, _work("sweep_samples")),
    Metric("ineq.sweep_samples_per_s", "1/s", "higher", CERTIFY,
           lambda s, f: _ratio(s.work["sweep_samples"],
                               s.total_duration("ineq.sup_F_sweep"))),
    Metric("ineq.sweep_member_ratio", "1", "higher", NONE,
           lambda s, f: _ratio(s.work["sweep_samples"], s.work["sweep_grid"])),
    Metric("ineq.search_evaluations", "count", "lower", NONE,
           _work("search_evaluations")),
    Metric("ineq.search_evals_per_s", "1/s", "higher", CERTIFY,
           lambda s, f: _ratio(s.work["search_evaluations"],
                               s.total_duration("ineq.adversarial_margin_search"))),
    Metric("cli.self_s", "s", "lower", "wall_norm_s on all three, as a small share",
           _self("cli")),
    Metric("cli.ops", "count", "higher", NONE, lambda s, f: f["ops"]),
    Metric("cli.probes", "count", "lower", NONE, lambda s, f: f["probes"]),
    Metric("trace.overhead_s", "s", "lower", "none: traced minus untraced op time",
           lambda s, f: f["trace_overhead_s"]),
)


def per_layer_metrics(spans, calls, work, facts):
    """Every PER_LAYER metric as {name: {"value": v, "unit": u}}."""
    summary = TraceSummary(spans, calls, work)
    return {
        m.name: {"value": float(m.value(summary, facts)), "unit": m.unit}
        for m in PER_LAYER
    }
