"""The three workloads: seeded op lists, op runners and per-op output checks.

Each workload is one closed-loop client: the next op starts only after the
previous one has finished and been checked.  Op counts scale with the run
length through fixed nominal op costs (measured once on a 2-core x86 VM),
so a run of `seconds` always executes the same op list for the same seed,
and a faster program finishes it sooner.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import shutil
import traceback
from dataclasses import dataclass, field

WORKLOADS = ("flow-relax", "shrinker-probes", "certify")

# nominal seconds per op, used only to size op lists from --seconds
NOMINAL_OP_S = {
    "flow-graph": 3.7,
    "c10-step": 0.018,
    "probe-pair": 4.8,  # one verify-targets plus one verify-shrinkers
    "verify-prop41": 1.2,
    "quadrature": 12.7,
}
C10_SAMPLE_INTERVAL = 100
QUADRATURE_SHAPES = ((64, 128), (128, 256))
QUADRATURE_POLE = (0.2, 0.5, 0.84)


class CheckFailed(AssertionError):
    """An op finished but its output missed its check."""


@dataclass(frozen=True)
class Op:
    kind: str  # a CLI subcommand, "c10-segment" or "quadrature"
    seed: int = 0
    steps: int = 0  # c10-segment length


@dataclass
class OpRecord:
    index: int
    op: Op
    start: float = 0.0
    end: float = 0.0
    error: str = ""
    counts: dict = field(default_factory=dict)
    digests: dict = field(default_factory=dict)

    @property
    def ok(self):
        return not self.error

    @property
    def seconds(self):
        return self.end - self.start

    def as_dict(self):
        return {
            "index": self.index,
            "kind": self.op.kind,
            "seed": self.op.seed,
            "steps": self.op.steps,
            "seconds": self.seconds,
            "ok": self.ok,
            "error": self.error,
            "counts": self.counts,
            "digests": self.digests,
        }


def plan(workload, seed, seconds):
    """The op list of one pass: a pure function of workload, seed, seconds."""
    if workload == "flow-relax":
        flows = max(1, round(0.7 * seconds / NOMINAL_OP_S["flow-graph"]))
        steps = C10_SAMPLE_INTERVAL * max(
            1, round(0.3 * seconds / NOMINAL_OP_S["c10-step"] / C10_SAMPLE_INTERVAL)
        )
        ops = [Op("flow-graph", seed + k) for k in range(flows)]
        return ops + [Op("c10-segment", steps=steps)]
    if workload == "shrinker-probes":
        pairs = max(1, round(seconds / NOMINAL_OP_S["probe-pair"]))
        ops = []
        for k in range(pairs):
            ops += [Op("verify-targets", seed + k), Op("verify-shrinkers", seed + k)]
        return ops
    if workload == "certify":
        rest = seconds - NOMINAL_OP_S["quadrature"]
        sweeps = max(1, round(rest / NOMINAL_OP_S["verify-prop41"]))
        ops = [Op("verify-prop41", seed + k) for k in range(sweeps)]
        return ops + [Op("quadrature")]
    raise ValueError(f"unknown workload {workload!r}")


def run_pass(ops, workdir, clock, tracer=None):
    """Run `ops` in order; an op that raises or misses its check is recorded
    as failed and the pass goes on."""
    records = []
    for index, op in enumerate(ops):
        outdir = os.path.join(workdir, f"op{index:03d}")
        shutil.rmtree(outdir, ignore_errors=True)
        os.makedirs(outdir)
        rec = OpRecord(index, op)
        if tracer is not None:
            tracer.op = index
        rec.start = clock()
        try:
            rec.counts, rec.digests = RUNNERS.get(op.kind, _run_cli)(op, outdir)
        except Exception as exc:  # the pass must survive any op failure
            rec.error = "".join(traceback.format_exception_only(type(exc), exc)).strip()
        rec.end = clock()
        records.append(rec)
    return records


def sha256_bytes(data):
    return hashlib.sha256(data).hexdigest()


def _dir_digests(outdir):
    digests = {}
    for name in sorted(os.listdir(outdir)):
        with open(os.path.join(outdir, name), "rb") as fh:
            digests[name] = sha256_bytes(fh.read())
    return digests


def _check(ok, message):
    if not ok:
        raise CheckFailed(message)


def _run_cli(op, outdir):
    from shrinkerlab import cli

    argv = [op.kind, "--out", outdir, "--seed", str(op.seed), "--jobs", "1"]
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    _check(code == 0, f"{op.kind} exited with {code}")
    with open(os.path.join(outdir, f"report_{op.kind}.json"), encoding="utf-8") as fh:
        report = json.load(fh)
    checks = {c["name"]: c["value"] for c in report["checks"]}
    cfg = cli.DEFAULTS[op.kind]
    counts = {}
    if op.kind == "flow-graph":
        _check(report["status"] in ("PASS", "OBSERVATION"), f"status {report['status']}")
        _check(checks.get("final_residual", math.inf) <= 1e-8,
               f"final_residual {checks.get('final_residual')}")
        _check(checks.get("affine_deviation", math.inf) <= 1e-6,
               f"affine_deviation {checks.get('affine_deviation')}")
        counts["flow_steps"] = int(checks["steps_to_converge"])
        with open(os.path.join(outdir, cfg["trace_csv"]), encoding="utf-8") as fh:
            counts["trace_samples"] = len(fh.read().splitlines()) - 1
    else:
        _check(report["status"] == "PASS", f"status {report['status']}")
    if op.kind == "verify-targets":
        counts["probes"] = cfg["probes"]
    elif op.kind == "verify-shrinkers":
        surfaces = len(cfg["surfaces"]) + len(cfg["control_surfaces"])
        counts["probes"] = cfg["probes"] * surfaces
        counts["composition_kept"] = cfg["composition_probes"] * len(cfg["surfaces"])
    elif op.kind == "verify-prop41":
        with open(os.path.join(outdir, cfg["certificate"]), encoding="utf-8") as fh:
            counts["sweep_samples"] = json.load(fh)["samples"]
        counts["group_samples"] = cfg["samples"]
    return counts, _dir_digests(outdir)


def c10_field(L=4.0, res=129, amp=1.2, seed=7):
    """The acceptance suite's c10 start field: an affine map plus a bump."""
    import numpy as np
    from shrinkerlab import graphflow

    rng = np.random.default_rng(seed)
    n = m = 2
    A = np.array([[0.3, -0.2], [0.1, 0.25]])
    coef = rng.standard_normal((n, m))
    base = rng.standard_normal(m)

    def value(x):
        z = x / L
        window = float(np.prod((1.0 - z * z) ** 2))
        return A @ x + amp * window * (base + coef.T @ z)

    return graphflow.GridField.from_function(
        value, L, (res, res), m, boundary="affine", A=A, b=np.zeros(m)
    )


def _run_c10_segment(op, outdir):
    import numpy as np
    from shrinkerlab import graphflow

    solver = graphflow.SolverConfig(
        max_steps=op.steps, threshold=1e-8, sample_interval=C10_SAMPLE_INTERVAL
    )
    final, trace = graphflow.relax_flow(c10_field(), solver)
    _check(trace.steps[-1] == op.steps, f"stopped at step {trace.steps[-1]}")
    channels = (trace.sup_slope, trace.sup_residual, trace.sup_b2, trace.min_w)
    _check(all(np.all(np.isfinite(c)) for c in channels), "non-finite trace")
    _check(bool(np.all(np.isfinite(final.values))), "non-finite field")
    text = graphflow.trace_to_csv(trace)
    digests = {
        "flow_trace.csv": sha256_bytes(text.encode()),
        "final_values": sha256_bytes(final.values.tobytes()),
    }
    return {"flow_steps": op.steps, "trace_samples": len(trace.steps)}, digests


def _run_quadrature(op, outdir):
    import numpy as np
    from shrinkerlab import immersion

    a = np.asarray(QUADRATURE_POLE)
    a = a / np.linalg.norm(a)
    reports, nodes = [], 0
    for shape in QUADRATURE_SHAPES:
        mesh = immersion.sphere_mesh(R=2.0, shape=shape)
        nodes += mesh.node_count
        reports.append(immersion.stability_identity_check(mesh, a))
    coarse, fine = reports
    rel = abs(fine.residual) / max(abs(fine.lhs), abs(fine.rhs))
    ratio = coarse.residual / fine.residual
    _check(rel <= 1e-4, f"relative defect {rel:.3e}")
    _check(3.3 <= ratio <= 4.7, f"refinement ratio {ratio:.3f}")
    text = ",".join(float(v).hex() for r in reports for v in r)
    return {"mesh_nodes": nodes}, {"stability": sha256_bytes(text.encode())}


RUNNERS = {"c10-segment": _run_c10_segment, "quadrature": _run_quadrature}
