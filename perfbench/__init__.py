"""Trial-throughput benchmark for the secrecy-ascent Monte Carlo engine.

Run ``python3 perfbench/run.py --help`` from the repository root.
"""
