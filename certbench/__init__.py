"""Outside-in benchmark for patchcert: certify, audit and train workloads.

Run ``python3 certbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root. See ``run.py`` for the output
contract and ``METRICS.md`` for what each metric should respond to.
"""
