"""The repository benchmark: chip build, interactive seats and library
cascade, measured end to end and layer by layer.

Run one workload with ``python3 perfbench/run.py --workload build
--seed 0 --seconds 20 --trace 0``; ``perfbench/README.md`` describes
the workloads, the metrics and which layer moves which number.
"""
