"""End-to-end and per-layer host-time benchmark of the PIMphony simulator.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one workload in fresh child processes and prints its metrics; see
``perfbench/README.md`` for the workloads, metrics and layer map.
"""
