"""The repository benchmark: batch, service and distributed workloads
measured end to end, with a traced run for per-layer metrics.

Run ``python3 perfbench/run.py --help`` from the repository root; see
``perfbench/README.md`` for the metrics and workloads.
"""
