"""The repository benchmark: seeded workloads, end-to-end and per-layer metrics.

Run it from the repository root with ``python3 perfbench/run.py`` (see
``perfbench/README.md``).
"""
