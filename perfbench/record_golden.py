"""Record golden digests for seeds, so later runs can prove identical output.

    python3 perfbench/record_golden.py 0 1 2 ...

For each workload and seed this makes one short run.py measurement and
stores the digests of its leading pairs and of its CLI output in
golden.json.  Stored entries are never overwritten: a seed whose digest
differs from its entry, or whose run had failures, is reported and the
script exits 1.
"""

from __future__ import annotations

import json
import sys

import run


def record(seeds: list[int]) -> int:
    golden = json.loads(run.GOLDEN.read_text()) if run.GOLDEN.exists() else {}
    status = 0
    for workload in run.WORKLOADS.values():
        entries = golden.setdefault(workload.name, {})
        for seed in seeds:
            result = run.measure(workload, seed, 1e-3, 0, min_rounds=1)
            found = result["digests"]
            if not result["correct"]:
                print(f"{workload.name} seed {seed}: failures "
                      f"{result['failures']}, not recorded")
                status = 1
            elif entries.setdefault(str(seed), found) != found:
                print(f"{workload.name} seed {seed}: digest differs from "
                      "golden.json, kept the stored one")
                status = 1
            else:
                print(f"{workload.name} seed {seed}: {found}", flush=True)
    run.GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return status


if __name__ == "__main__":
    sys.path.insert(0, str(run.SRC))
    sys.exit(record([int(s) for s in sys.argv[1:]]))
