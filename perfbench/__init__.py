"""The repository benchmark: sharing-pattern workloads on both machine families.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root.  See ``perfbench/README.md``.
"""
