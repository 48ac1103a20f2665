"""Benchmark for qmeasure: closed-loop workloads over the CLI and the Python
API, with an optional traced run that attributes time to each layer.

Run it from the root of a checkout with ``python3 perfbench/run.py``.
"""
