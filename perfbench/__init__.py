"""End-to-end and per-layer benchmark of the sliceprofit solvers.

Run it with ``python3 perfbench/run.py --workload <name> --seed <n>``;
README.md in this directory describes the workloads, checks and metrics.
"""
