"""Cold-first, oracle-checked benchmark for the FSAM pipeline.

Run ``python3 perfbench/run.py --help`` from the repository root.
"""
