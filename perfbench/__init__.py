"""Benchmark of the labopt study CLI; run ``python3 perfbench/run.py --help``."""
