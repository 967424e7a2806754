"""shrinkerlab benchmark: run one workload and print its metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload flow-relax --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 25

`--trace 0` measures the end-to-end metrics; `--trace 1` runs the op list
once plain and once under span-recording wrappers and reports the per-layer
metrics.  `--workload all` runs every workload both ways in child processes
and prints every metric.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics; a human-readable
table precedes it, and the full record (machine facts, every op with its
counts and output digests) is written under `--out`.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench import hostspeed, layers, workloads  # noqa: E402
from perfbench.tracing import Tracer, spans_to_csv  # noqa: E402

SETUP_PROBES = 7
END_TO_END_UNITS = {"wall_norm_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PINNED_EPOCH = "1700000000"
_SC_LEVEL2_CACHE_SIZE = 191  # glibc sysconf names
_SC_LEVEL3_CACHE_SIZE = 194


def import_package():
    """Import shrinkerlab from this checkout's sources, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "shrinkerlab", "__init__.py")):
        raise SystemExit(f"error: no shrinkerlab sources under {SRC}")
    sys.path.insert(0, SRC)
    import shrinkerlab.cli  # noqa: F401  (imports all six modules)
    import shrinkerlab

    if not os.path.abspath(shrinkerlab.__file__).startswith(os.path.join(SRC, "")):
        raise SystemExit("error: shrinkerlab was imported from outside the checkout")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=workloads.WORKLOADS + ("all",)
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--out", default=os.path.join(ROOT, ".perfbench_out"),
        help="directory for result files and op outputs",
    )
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def _sysconf(name):
    try:
        libc = ctypes.CDLL(None)
        libc.sysconf.argtypes = [ctypes.c_int]
        libc.sysconf.restype = ctypes.c_long
        value = libc.sysconf(name)
    except (OSError, AttributeError):
        return None
    return value if value > 0 else None


def _openblas_threads():
    import numpy

    libdir = os.path.dirname(numpy.__file__) + ".libs"
    for path in sorted(glob.glob(os.path.join(libdir, "*openblas*.so*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def _version(dist):
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def machine_facts():
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "openblas_threads": _openblas_threads(),
        "l2_bytes": _sysconf(_SC_LEVEL2_CACHE_SIZE),
        "l3_bytes": _sysconf(_SC_LEVEL3_CACHE_SIZE),
    }


def setup_probes(args):
    """Seconds from spawning a fresh process until it has imported the
    package and planned its ops, which it signals on its standard output."""
    cmd = [
        sys.executable, os.path.abspath(__file__), "--setup-probe",
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds),
    ]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            ready = proc.stdout.readline()
            times.append(time.perf_counter() - t0)
            proc.stdout.read()
        if proc.returncode != 0 or ready != "ready\n":
            raise RuntimeError(f"setup probe exited with {proc.returncode}")
    return times


def wall(records):
    return sum(r.seconds for r in records)


def measure_end_to_end(args, ops, workdir, clock, result):
    """Untraced run under the host sampler: the end-to-end metrics."""
    probes = setup_probes(args)
    with hostspeed.HostSampler(clock=clock) as host:
        records = workloads.run_pass(ops, workdir, clock)
    result["setup_runs_s"] = probes
    result["wall_s"] = wall(records) - sum(
        sum(host.within(r.start, r.end)) for r in records
    )
    result["host_slowdown"] = host.slowdown()
    result["op_host_slowdown"] = [host.slowdown(r.start, r.end) for r in records]
    result["host_samples"] = len(host.samples)
    values = {
        "wall_norm_s": sum(host.normalised(r.start, r.end) for r in records),
        "setup_s": statistics.median(probes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    return records, metrics


def measure_layers(args, ops, workdir, clock, result):
    """The op list plain, then under the span wrappers: per-layer metrics."""
    plain = workloads.run_pass(ops, workdir, clock)
    tracer = Tracer(clock)
    layers.install(tracer)
    try:
        traced = workloads.run_pass(ops, workdir, clock, tracer)
    finally:
        tracer.remove()
    for a, b in zip(plain, traced):
        if b.ok and a.digests != b.digests:
            b.error = "outputs differ from the untraced pass"
    spans = tracer.spans()
    facts = {
        "ops": len(traced),
        "probes": sum(r.counts.get("probes", 0) for r in traced),
        "composition_kept": sum(r.counts.get("composition_kept", 0) for r in traced),
        "trace_overhead_s": wall(traced) - wall(plain),
    }
    metrics = layers.per_layer_metrics(spans, tracer.calls, tracer.work, facts)
    stem = f"{args.workload}-seed{args.seed}"
    with open(os.path.join(args.out, stem + "-spans.csv"), "w", encoding="utf-8") as fh:
        fh.write(spans_to_csv(spans))
    result["untraced_wall_s"] = wall(plain)
    result["traced_wall_s"] = wall(traced)
    return plain + traced, metrics


def run_workload(args):
    load_start = os.getloadavg()
    import_package()
    os.makedirs(args.out, exist_ok=True)
    # the traced run executes its op list twice, so each pass gets half
    seconds = args.seconds / 2 if args.trace else args.seconds
    ops = workloads.plan(args.workload, args.seed, seconds)
    facts = machine_facts()
    workdir = os.path.join(args.out, "work", args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    result = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace}
    runner = measure_layers if args.trace else measure_end_to_end
    records, metrics = runner(args, ops, workdir, time.perf_counter, result)
    failed = sum(not r.ok for r in records)
    facts["loadavg_start"] = list(load_start)
    facts["loadavg_end"] = list(os.getloadavg())
    result.update(
        machine=facts,
        ops=[r.as_dict() for r in records],
        fail_ratio=failed / len(records),
        summary={"correct": failed == 0, "attempted": len(records),
                 "failed": failed, "metrics": metrics},
    )
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(args.out, name), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    print_table(result)
    return result["summary"]


def print_table(result):
    facts = result["machine"]
    print(f"workload {result['workload']}  seed {result['seed']}  "
          f"seconds {result['seconds']}  trace {result['trace']}")
    print("machine " + "  ".join(f"{k}={v}" for k, v in sorted(facts.items())))
    for op in result["ops"]:
        status = "ok" if op["ok"] else "FAILED " + op["error"]
        counts = " ".join(f"{k}={v}" for k, v in sorted(op["counts"].items()))
        print(f"  op {op['index']:3d} {op['kind']:<17} seed {op['seed']:<5d} "
              f"{op['seconds']:9.4f} s  {counts}  {status}")
    summary = result["summary"]
    rows = dict(summary["metrics"])
    rows["fail_ratio"] = {"value": result["fail_ratio"], "unit": "1"}
    if "wall_s" in result:
        rows["wall_s"] = {"value": result["wall_s"], "unit": "s"}
        rows["host_slowdown"] = {"value": result["host_slowdown"], "unit": "1"}
    for name, entry in rows.items():
        print(f"  {name:<44} {entry['value']:>16.6f} {entry['unit']}")


def run_all(args):
    """Every workload, untraced then traced, each in its own process."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            cmd = [
                sys.executable, os.path.abspath(__file__), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(trace), "--out", args.out,
            ]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=600)
            sys.stdout.write(proc.stdout.rsplit("\n", 2)[0] + "\n")
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                raise SystemExit(f"error: {workload} trace {trace} exited "
                                 f"with {proc.returncode}")
            summary = json.loads(proc.stdout.strip().splitlines()[-1])
            merged["correct"] &= summary["correct"]
            merged["attempted"] += summary["attempted"]
            merged["failed"] += summary["failed"]
            for name, entry in summary["metrics"].items():
                merged["metrics"][f"{workload}.{name}"] = entry
    return merged


def main(argv=None):
    args = parse_args(argv)
    os.environ["SOURCE_DATE_EPOCH"] = PINNED_EPOCH
    os.environ.pop("SHRINKER_LAB_OUT", None)
    args.out = os.path.abspath(args.out)
    if args.setup_probe:
        import_package()
        workloads.plan(args.workload, args.seed, args.seconds)
        print("ready", flush=True)
        return 0
    if args.workload == "all":
        os.makedirs(args.out, exist_ok=True)
        summary = run_all(args)
    else:
        summary = run_workload(args)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
