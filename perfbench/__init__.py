"""The repository benchmark: four workloads, end-to-end and per-layer.

Run it with ``python3 perfbench/run.py --workload NAME --seed N
--seconds S --trace 0|1``; see ``perfbench/README.md``.
"""
