"""The repository benchmark: four request workloads, end to end and per layer.

Run one workload the way ``BENCHMARK.json`` names it::

    python3 benchmarks/e2e/run.py --workload oneshot --seed 0 --seconds 15 --trace 0

or every workload, appending the results to a file for ``compare``::

    PYTHONPATH=src python -m benchmarks.e2e run --seed 0 --out runs.jsonl
    python -m benchmarks.e2e compare before.jsonl after.jsonl

``README.md`` in this directory is the catalogue: why each workload
exists, what every metric means, and which layer metric should move
which end-to-end number on which workload.
"""
