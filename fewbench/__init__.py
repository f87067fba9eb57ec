"""Benchmark of ``fewdet``: end-to-end timings of its training and
evaluation paths, and a per-layer trace taken from outside the package.

``python3 fewbench/run.py --help`` runs it; ``BENCHMARK.json`` names the
workloads and metrics. Left out on purpose: a default ``ablate`` run (about
ten minutes, too long to repeat for every comparison) and the single-class
baseline's one-forward-per-class fan-out. Both are made of the layers the
workloads already time.
"""
