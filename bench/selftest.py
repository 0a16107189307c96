"""Self-test of the benchmark's per-layer predictions.

Usage, from the repository root:

    python3 bench/selftest.py

Runs one traced pass of every workload at the benchmark seed recorded in
``bench/record.json`` and checks, for every per-layer counter and self time:

- it is nonzero on each workload the record predicts exercises it ("on");
- it is zero on each workload the record predicts bypasses it ("zero_on").

It also checks that the record names exactly the per-layer metrics of
BENCHMARK.json, that its item counts and zero-free share match the items the
seed generates, and that every traced output matches the recorded bytes.
Exits 1 on any mismatch.
"""

from __future__ import annotations

import json
import sys

import run
import workloads


def main() -> int:
    record = json.loads(run.RECORD.read_text())
    spec = json.loads(run.SPEC.read_text())
    expected = json.loads(run.EXPECTED.read_text())["outputs"]
    predictions = record["predictions"]
    seed = record["benchmark_seed"]
    problems = []

    names = [m["name"] for m in spec["per_layer"]]
    if sorted(names) != sorted(predictions):
        problems.append("record.json and BENCHMARK.json name different "
                        "per-layer metrics")

    for workload in workloads.WORKLOADS:
        facts = record["workloads"][workload]
        items = workloads.items(workload, seed)
        if facts["items_per_pass"] != len(items):
            problems.append(f"{workload}: {len(items)} items per pass, "
                            f"record says {facts['items_per_pass']}")
        if "zero_free_share" in facts:
            zero_free, base = workloads.zero_free_share(items)
            share = facts["zero_free_share"]
            if (share["zero_free"], share["base"]) != (zero_free, base):
                problems.append(f"{workload}: zero-free share "
                                f"{zero_free}/{base} differs from record")

        _, reply = run.run_pass(items, trace=True)
        failures = []
        run.check_pass(items, reply, expected, failures)
        problems += [f"{workload}: {' '.join(a)}: {why}"
                     for a, why, _ in failures]
        values = {**reply["trace"]["counters"], **reply["trace"]["times"]}
        for name, value in sorted(values.items()):
            want = predictions[name]
            if workload in want["on"] and not value:
                problems.append(f"{workload}: {name} is zero, predicted "
                                f"nonzero")
            if workload in want["zero_on"] and value:
                problems.append(f"{workload}: {name} = {value}, predicted "
                                f"zero")
        print(f"{workload}: {len(values)} per-layer values checked")

    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
