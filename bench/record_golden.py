"""Rewrite ``golden.json`` from the current code at the default seed.

Run this only after a change that is meant to alter outputs, and review the
diff of ``golden.json``: it pins model differentials, verdicts, certificates
and report bytes for every task of every workload, at both scales.

    python3 bench/record_golden.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import workloads  # noqa: E402


def main():
    golden = {}
    for scale in workloads.SCALES:
        golden[scale] = {}
        for workload in workloads.WORKLOADS:
            records = golden[scale][workload] = {}
            for task in workloads.build(workload, workloads.DEFAULT_SEED, scale):
                text, invariants = task.summarize(task.run())
                records[task.name] = {"digest": workloads.digest(text),
                                      "invariants": invariants}
                print(f"{scale} {workload} {task.name}", flush=True)
    (BENCH / "golden.json").write_text(json.dumps(golden, indent=1,
                                                  sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
