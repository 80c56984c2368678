"""End-to-end and per-layer benchmark of the MoPAC reproduction.

Run ``python3 perfbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>`` from the checkout root; see README.md.
"""
