"""Benchmark of transversal-lab; run ``python3 perfbench/run.py --help``."""
