"""Benchmark harness for shrinkerlab: workloads, checks, tracing, metrics.

Run it from the repository root with ``python3 perfbench/run.py``; see
``perfbench/README.md`` for the workloads and the metric mapping.
"""
