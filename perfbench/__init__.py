"""The repository benchmark: ``big_graph``, ``sweep`` and ``serve`` workloads.

Run one workload with ``python3 perfbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>`` from the root of a checkout.  ``METRICS.md``
defines every metric and names the end-to-end metric each per-layer metric
should move.
"""
