"""The benchmark's hooks against the functions they wrap.

`perfbench.layers.HOOKS` tags the spans of a few shrinkerlab functions and
reads work counts from their results.  Each hooked function is called here
once, at a small size, under an installed tracer: a hook that no longer fits
its function raises, or leaves its tag or count unset.  The I/O functions
whose self time `graphflow.io.self_s` sums must all be reached by a small
copy of what the flow-relax workload runs (a `flow-graph` op and the c10
segment's field build), so that a renamed or removed one fails here instead
of leaving that metric silently short.
"""

import json
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench import layers, workloads  # noqa: E402
from perfbench.tracing import Tracer  # noqa: E402
from shrinkerlab import cli, graphflow, immersion, ineq  # noqa: E402


@pytest.fixture
def tracer():
    t = Tracer()
    layers.install(t)
    yield t
    t.remove()


def test_every_hook_fits_its_function(tracer):
    field = graphflow.GridField.from_function(
        lambda x: [0.05 * x[0] * x[1]], L=1.0, resolution=(9, 9), m=1
    )
    graphflow.system_residual(field)
    # FlowTrace.record is reached only inside the run, with its workspace
    graphflow.relax_flow(field, graphflow.SolverConfig(max_steps=20, sample_interval=5))
    ineq.sup_F_sweep(v_count=8, rt_resolution=8)
    ineq.adversarial_margin_search(seed=1, restarts=48)
    immersion.patch_mesh(immersion.catalog_immersion("sphere:n=2,R=2"), (4, 8))

    for name in layers.HOOKS:
        assert tracer.calls[name] >= 1, name
    tags = {s.name: s.tag for s in tracer.spans()}
    assert tags["graphflow.system_residual"] == "9x9x1"
    assert tags["graphflow.FlowTrace.record"] == "9x9x1"
    assert dict(tracer.work) == {
        "flow_steps": 20,
        "sweep_samples": tracer.work["sweep_samples"],
        "sweep_grid": 64,
        "search_evaluations": 48,
        "mesh_nodes": 32,
    }
    assert 0 < tracer.work["sweep_samples"] <= 64


def test_flow_graph_calls_every_graphflow_io_function(tracer, tmp_path):
    # what flow-relax runs, small: a flow-graph op and the c10 segment's
    # field build, the one caller of GridField.from_function among them
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"m": 1, "resolution": 9, "max_steps": 40, "sample_interval": 10}))
    cli.main(["flow-graph", "--config", str(cfg), "--out", str(tmp_path / "out")])
    workloads.c10_field(res=17)
    for name in layers.GRAPHFLOW_IO:
        assert tracer.calls[name] >= 1, name
