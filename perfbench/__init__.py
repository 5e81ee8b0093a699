"""The repository benchmark: workloads, tracing, load generation, compare tool.

Entry point: ``python3 perfbench/run.py --help``.
"""
